import numpy as np
import pytest

from iondpt import fockspace as fs
from iondpt.fockspace import FockCutoff
from iondpt import model
from iondpt.model import DriveParams, CoolParams, derive, khz
from iondpt import channels as ch
from iondpt.channels import (NoiseParams, SplitStepPropagator, CoolingChannel,
                             Dissipator, make_noise_jumps,
                             lindblad_step, unitary_step, pulse_kraus,
                             apply_kraus, recoil_diffusion, recoil_kick)

import helpers
from helpers import (composite_split_step, embed_down, h_qrm, h_red_sideband,
                     ket, on_parity_blocks, on_spin_blocks, p_up, projector,
                     spin_reset, tensor)

COOL = CoolParams.from_khz(20.0, 5.0, 13.0)
DERIVED = derive(DriveParams.from_khz(26.0, 24.0, 9.0, 20.0))
THETA = 0.5 * COOL.omega_c * COOL.tau_c


def boson_ops(n_max):
    return fs.build_boson_ops(FockCutoff(n_max))


def fock(n_max, n):
    """Boson projector |n><n|."""
    rho = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    rho[n, n] = 1.0
    return rho


def number(rho_m):
    return fs.expectation(rho_m, np.diag(np.arange(rho_m.shape[0])))


def cooling_stage(rho_m, mode, cool=COOL, noise=None):
    """One cooling stage on rho_m through its parity blocks; returns
    (rho_m, p_up before the pump)."""
    cut = FockCutoff(rho_m.shape[0] - 1)
    channel = CoolingChannel(cool, DERIVED, cut, noise=noise, mode=mode)
    return on_parity_blocks(channel.apply)(rho_m)


def cool_exact(rho_m, cool=COOL, noise=None):
    """One exact cooling stage; returns (state, p_up before the pump)."""
    return cooling_stage(rho_m, "exact", cool=cool, noise=noise)


def cool_lindblad(rho_m, noise=None):
    """One linearized cooling stage."""
    return cooling_stage(rho_m, "lindblad", noise=noise)[0]


def pulse_map(mode, theta, cut):
    """The noise-free cooling pulse of area theta as a map on rho_m: the
    exact Kraus pair on the parity blocks, or the linearized jump
    sqrt(theta^2/tau_c) a over tau_c as a Dissipator."""
    if mode == "exact":
        kraus = pulse_kraus(theta, cut, 1.0)   # no free evolution
        return on_parity_blocks(lambda state: apply_kraus(kraus, state))
    a = fs.build_boson_ops(cut)[0]
    return Dissipator([theta / np.sqrt(COOL.tau_c) * a], COOL.tau_c).apply


def lifted(jumps):
    """Spin-identity extensions I (x) L of boson jumps."""
    return [tensor(np.eye(2), L) for L in jumps]


def random_state(n_max, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(n_max + 1,) * 2) + 1j * rng.normal(size=(n_max + 1,) * 2)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def even_state(n_max, seed):
    """A random boson state without odd offsets: the mean of rho and
    P rho P for the boson parity P = (-1)^n."""
    rho = random_state(n_max, seed)
    p = (-1.0) ** np.arange(n_max + 1)
    return 0.5 * (rho + p[:, None] * rho * p[None, :])


def test_noise_params_validation_and_units():
    with pytest.raises(ValueError):
        NoiseParams(heating_rate=-1.0)
    with pytest.raises(ValueError):
        NoiseParams(thermal_nth=0.0)
    n = NoiseParams.from_per_second(heating_per_s=50.0, dephasing_per_s=200.0)
    assert n.heating_rate == pytest.approx(5e-5)
    assert n.dephasing_rate == pytest.approx(2e-4)
    assert n.any_decoherence
    assert not NoiseParams().any_decoherence


def test_unitary_step_phase_and_energy():
    cut = FockCutoff(2)
    omega = khz(25.0)
    sz = tensor(np.diag([-1.0, 1.0]), np.eye(cut.bdim))
    H = 0.5 * omega * sz
    psi = (ket(cut, 0, 0) + ket(cut, 1, 0)) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    t = 3.7
    out = unitary_step(rho, H, t)
    # |down><up| coherence acquires phase e^{-i omega t}, magnitude unchanged
    coh_in = rho[0, cut.bdim]
    coh_out = out[0, cut.bdim]
    assert abs(coh_out) == pytest.approx(abs(coh_in), abs=1e-12)
    assert coh_out == pytest.approx(coh_in * np.exp(1j * omega * t), abs=1e-12)
    assert fs.expectation(out, H) == pytest.approx(fs.expectation(rho, H), abs=1e-12)


def test_unitary_step_pi_pulse():
    cut = FockCutoff(4)
    omega_c = khz(20.0)
    H = h_red_sideband(omega_c, cut)
    rho = projector(cut, 0, 1)
    out = unitary_step(rho, H, np.pi / omega_c)  # Omega_c t = pi on sqrt(1)
    assert np.abs(out - projector(cut, 1, 0)).max() < 1e-10


def test_unitary_step_rejects_non_hermitian():
    H = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rho = np.eye(2, dtype=complex) / 2
    with pytest.raises(ValueError):
        unitary_step(rho, H, 1.0)
    with pytest.raises(ValueError):
        lindblad_step(rho, H, [], 1.0)


def test_lindblad_damping_oracle():
    # jumps = {sqrt(kappa) a}: <n>(t) = n0 exp(-kappa t) to 1e-12 relative
    n_max = 15
    a, _, num = boson_ops(n_max)
    kappa = 0.5
    rho0 = np.diag([0, 0, 0, 1.0] + [0.0] * (n_max - 3)).astype(complex)
    for t in (0.4, 1.0, 2.0):
        out = lindblad_step(rho0, None, [np.sqrt(kappa) * a], t)
        n_t = np.real(np.trace(out @ num))
        assert n_t == pytest.approx(3.0 * np.exp(-kappa * t), rel=1e-12)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-9)
    # a damping strong enough that expm_multiply estimates norms, which
    # draws from numpy's global random state: the caller's state stays
    state = np.random.get_state()
    out = lindblad_step(rho0, None, [np.sqrt(100.0) * a], 20.0)
    assert all(np.array_equal(x, y)
               for x, y in zip(state, np.random.get_state()))
    assert np.real(np.trace(out @ num)) == pytest.approx(0.0, abs=1e-12)
    assert np.trace(out).real == pytest.approx(1.0, abs=1e-9)


def test_lindblad_dephasing_oracle():
    n_max = 6
    a, _, num = boson_ops(n_max)
    gamma_m = 0.3
    psi = np.zeros(n_max + 1, dtype=complex)
    psi[[0, 1, 2]] = 1 / np.sqrt(3)
    rho0 = np.outer(psi, psi.conj())
    t = 1.5
    out = lindblad_step(rho0, None, [np.sqrt(2 * gamma_m) * num], t)
    # coherence <n|rho|m> decays as exp(-gamma_m (n-m)^2 t)
    assert abs(out[0, 1]) == pytest.approx(abs(rho0[0, 1]) * np.exp(-gamma_m * t),
                                           rel=1e-12)
    assert abs(out[0, 2]) == pytest.approx(abs(rho0[0, 2]) * np.exp(-4 * gamma_m * t),
                                           rel=1e-12)
    # populations are fixed points of pure dephasing
    assert np.allclose(np.diag(out).real, np.diag(rho0).real, atol=1e-10)


def test_lindblad_step_no_jumps_matches_unitary():
    cut = FockCutoff(4)
    H = h_qrm(DERIVED, cut)
    rho = projector(cut, 0, 2)
    assert np.allclose(lindblad_step(rho, H, [], 7.0), unitary_step(rho, H, 7.0))


def test_make_noise_jumps():
    cut = FockCutoff(5)
    assert make_noise_jumps(NoiseParams(), cut) == []
    heat = NoiseParams.from_per_second(heating_per_s=50.0)
    assert len(make_noise_jumps(heat, cut)) == 2
    both = NoiseParams.from_per_second(heating_per_s=50.0, dephasing_per_s=200.0)
    assert len(make_noise_jumps(both, cut)) == 3


def test_heating_rate_from_vacuum():
    cut = FockCutoff(8)
    rate = 5e-3  # exaggerated for a measurable slope
    noise = NoiseParams(heating_rate=rate)
    jumps = make_noise_jumps(noise, cut)
    rho = fock(cut.n_max, 0)
    t = 1.0
    out = lindblad_step(rho, None, jumps, t)
    n_t = number(out)
    assert n_t == pytest.approx(rate * t, rel=1e-3)


def test_dephasing_fixes_diagonal_states():
    cut = FockCutoff(6)
    noise = NoiseParams(dephasing_rate=0.1)
    jumps = make_noise_jumps(noise, cut)
    rho = 0.3 * fock(cut.n_max, 0) + 0.7 * fock(cut.n_max, 3)
    out = lindblad_step(rho, None, jumps, 2.0)
    assert np.abs(out - rho).max() < 1e-10


def test_spin_reset():
    cut = FockCutoff(3)
    assert np.allclose(spin_reset(projector(cut, 1, 2)), projector(cut, 0, 2))
    prod = projector(cut, 0, 1)
    assert np.allclose(spin_reset(prod), prod)  # idempotent on down states
    psi = (ket(cut, 0, 0) + ket(cut, 1, 1)) / np.sqrt(2)
    out = spin_reset(np.outer(psi, psi.conj()))
    expected = 0.5 * projector(cut, 0, 0) + 0.5 * projector(cut, 0, 1)
    assert np.allclose(out, expected)
    assert np.trace(out).real == pytest.approx(1.0)


def test_p_up():
    cut = FockCutoff(2)
    assert p_up(projector(cut, 1, 0)) == pytest.approx(1.0)
    assert p_up(projector(cut, 0, 2)) == pytest.approx(0.0)


def test_recoil_kick():
    vac = fock(10, 0)
    diffusion = recoil_diffusion(FockCutoff(10))
    noise = NoiseParams(recoil_enabled=True, recoil_dn=0.01, photons_per_pump=3)
    out = recoil_kick(vac, 1.0, noise, diffusion)
    n_t = number(out)
    assert n_t == pytest.approx(0.09, abs=1e-5)
    assert np.allclose(recoil_kick(vac, 0.0, noise, diffusion), vac)
    disabled = NoiseParams(recoil_dn=0.01)
    assert np.allclose(recoil_kick(vac, 1.0, disabled, diffusion), vac)
    with pytest.raises(ValueError):
        recoil_kick(vac, 1.5, noise, diffusion)


def test_linearized_channel_ignores_recoil():
    # the linearized pulse reports p_up = 0, so no recoil kick can follow it
    rho = random_state(8, seed=5)
    for rates in ({}, {"heating_rate": 1e-4, "dephasing_rate": 1e-4}):
        kicked = cool_lindblad(rho, NoiseParams(recoil_enabled=True,
                                                recoil_dn=0.5, **rates))
        assert np.array_equal(kicked, cool_lindblad(rho, NoiseParams(**rates)))


def test_cooling_exact_single_phonon():
    rho = fock(8, 1)
    out, pup = cool_exact(rho)
    # loss probability sin^2(0.5 sqrt(1) Omega_c tau_c) = sin^2(0.31416)
    expected = np.sin(0.5 * COOL.omega_c * COOL.tau_c) ** 2
    assert expected == pytest.approx(0.0955, abs=2e-4)
    assert pup == pytest.approx(expected, abs=1e-10)
    n_after = number(out)
    assert n_after == pytest.approx(1.0 - expected, abs=1e-10)


def test_cooling_exact_high_n_sublinear():
    rho = fock(10, 4)
    out, pup = cool_exact(rho)
    expected = np.sin(0.5 * 2.0 * COOL.omega_c * COOL.tau_c) ** 2
    assert expected == pytest.approx(0.345, abs=5e-4)
    assert pup == pytest.approx(expected, abs=1e-10)
    # sub-linear: exact loss well below the linearized 4 * 0.0955
    assert pup < 4 * 0.0956


def test_cooling_vacuum_fixed_point():
    vac = fock(6, 0)
    out, pup = cool_exact(vac)
    assert np.abs(out - vac).max() < 1e-12
    assert pup == pytest.approx(0.0, abs=1e-14)
    out_l = cool_lindblad(vac)
    assert np.abs(out_l - vac).max() < 1e-9


def test_cooling_lindblad_survival():
    rho = fock(8, 1)
    out = cool_lindblad(rho)
    n_after = number(out)
    survival = np.exp(-(0.5 * COOL.omega_c * COOL.tau_c) ** 2)
    assert survival == pytest.approx(0.906, abs=5e-4)
    assert n_after == pytest.approx(survival, rel=1e-4)


def test_channel_equivalence_single_application():
    # diagonal states with <n> < 10: one channel application agrees < 5%
    cut = FockCutoff(80)
    for nbar in (1.0, 3.0, 5.0, 9.0):
        rho = fs.thermal_state(nbar, cut, eps=1e-3)
        out_e, _ = cool_exact(rho)
        out_l = cool_lindblad(rho)
        n_e = number(out_e)
        n_l = number(out_l)
        assert abs(n_e - n_l) / n_e < 0.05


def test_repeated_cooling_monotone_to_vacuum():
    rho = fs.thermal_state(2.0, FockCutoff(40))
    last = number(rho)
    for _ in range(15):
        rho, _ = cool_exact(rho)
        n_now = number(rho)
        assert n_now <= last + 1e-12
        last = n_now
    assert last < 0.5


def test_channels_preserve_density_matrix_validity():
    cut = FockCutoff(30)
    noise = NoiseParams.from_per_second(heating_per_s=50.0, dephasing_per_s=200.0,
                                        recoil_enabled=True)
    rho = fs.thermal_state(2.0, cut, eps=1e-4)
    out_e, pup = cool_exact(rho, noise=noise)
    fs.check_density_matrix(out_e)
    out_l = cool_lindblad(rho, noise=noise)
    fs.check_density_matrix(out_l)
    assert 0.0 <= pup <= 1.0


@pytest.mark.parametrize("mode", ["exact", "lindblad"])
@pytest.mark.parametrize("theta", [THETA, 1.3])
def test_pulse_kraus_complete(mode, theta):
    # sum_k A_k^dag A_k = I: its element (m, n) is Tr Phi(|n><m|)
    cut = FockCutoff(40)
    pulse = pulse_map(mode, theta, cut)
    total = np.zeros((cut.bdim, cut.bdim), dtype=complex)
    for n in range(cut.bdim):
        for m in range(cut.bdim):
            unit = np.zeros((cut.bdim, cut.bdim), dtype=complex)
            unit[n, m] = 1.0
            total[m, n] = np.trace(pulse(unit))
    assert np.abs(total - np.eye(cut.bdim)).max() < 1e-12


@pytest.mark.parametrize("mode", ["exact", "lindblad"])
def test_noise_free_cooling_stage_trace_and_positivity(mode):
    rho = random_state(25, seed=5)
    out, pup = cooling_stage(rho, mode)
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out)[0] > -1e-12
    assert 0.0 <= pup <= 1.0
    pulse = pulse_map(mode, THETA, FockCutoff(25))(rho)
    assert abs(np.trace(pulse) - 1.0) < 1e-12
    # the free evolution is a pure phase: the stage differs from the pulse
    # only in its coherences
    assert np.abs(np.diag(out) - np.diag(pulse)).max() < 1e-15


def test_exact_pulse_matches_sideband_rotation():
    cut = FockCutoff(12)
    rho = even_state(cut.n_max, seed=2)
    rotated = unitary_step(embed_down(rho), h_red_sideband(COOL.omega_c, cut),
                           COOL.tau_c)
    out = pulse_map("exact", THETA, cut)(rho)
    assert np.abs(out - fs.trace_out_spin(rotated)).max() < 1e-12
    assert p_up(rotated) == pytest.approx(
        float(np.sin(THETA * np.sqrt(np.arange(cut.bdim))) ** 2
              @ np.real(np.diag(rho))), abs=1e-12)


def test_amplitude_damping_matches_lindblad_step():
    # oracle for the linearized pulse: the jump sqrt(theta^2/tau_c) a over tau_c
    cut = FockCutoff(30)
    a, _, _ = fs.build_boson_ops(cut)
    rho = 0.5 * random_state(cut.n_max, seed=7) + 0.5 * fs.thermal_state(
        3.0, cut, eps=1e-3)
    ref = lindblad_step(rho, None, [np.sqrt(THETA**2 / COOL.tau_c) * a],
                        COOL.tau_c)
    out = pulse_map("lindblad", THETA, cut)(rho)
    assert np.abs(out - ref).max() < 1e-12


def test_split_step_matches_lindblad_step():
    cut = FockCutoff(12)
    H = h_qrm(DERIVED, cut)
    noise = NoiseParams(heating_rate=5e-3, dephasing_rate=2e-2)
    jumps = make_noise_jumps(noise, cut)
    rho_m = fs.thermal_state(1.5, cut, eps=5e-3)
    t = 20.0
    ref = lindblad_step(embed_down(rho_m), H, lifted(jumps), t)
    out, pup = on_parity_blocks(SplitStepPropagator(
        model.h_qrm(DERIVED, cut), jumps, t).apply)(rho_m)
    # the Strang splitting error of the 0.5 us slice: 2.4e-6 measured on
    # the state and 4.1e-6 on p_up
    assert 1e-6 < np.abs(out - fs.trace_out_spin(ref)).max() < 1e-5
    assert 1e-6 < abs(pup - p_up(ref)) < 1e-5
    # a diagonal generator commutes with the phase-covariant dissipator, so
    # the split is exact
    Hd = np.diag(np.diag(H)).astype(complex)
    ref_d = lindblad_step(embed_down(rho_m), Hd, lifted(jumps), t)
    d, e = model.h_qrm(DERIVED, cut)
    out_d, pup_d = on_parity_blocks(SplitStepPropagator(
        (d, 0 * e), jumps, t).apply)(rho_m)
    assert np.abs(out_d - fs.trace_out_spin(ref_d)).max() < 1e-12
    assert abs(pup_d - p_up(ref_d)) < 1e-12


def test_split_step_without_jumps_is_unitary():
    cut = FockCutoff(6)
    H = h_qrm(DERIVED, cut)
    out, pup = on_parity_blocks(SplitStepPropagator(
        model.h_qrm(DERIVED, cut), [], 13.0).apply)(fock(cut.n_max, 2))
    ref = unitary_step(projector(cut, 0, 2), H, 13.0)
    # one exact slice: 1.7e-15 on the state and 7.2e-16 on p_up
    assert np.abs(out - fs.trace_out_spin(ref)).max() < 1e-14
    assert abs(pup - p_up(ref)) < 1e-14


@pytest.mark.parametrize("n_max", [12, 30])
@pytest.mark.parametrize("stage", ["drive", "pulse"])
def test_chain_split_step_matches_composite(stage, n_max):
    cut = FockCutoff(n_max)
    name, x, t = (("h_qrm", DERIVED, 20.0) if stage == "drive"
                  else ("h_red_sideband", COOL.omega_c, COOL.tau_c))
    jumps = make_noise_jumps(NoiseParams(heating_rate=5e-3,
                                         dephasing_rate=2e-2), cut)
    rho_m = even_state(n_max, seed=n_max)
    out, pup = on_parity_blocks(SplitStepPropagator(
        getattr(model, name)(x, cut), jumps, t).apply)(rho_m)
    ref = composite_split_step(getattr(helpers, name)(x, cut), jumps, t,
                               embed_down(rho_m))
    assert np.abs(out - fs.trace_out_spin(ref)).max() <= 1e-12
    assert abs(pup - p_up(ref)) <= 1e-12


def test_zero_amplitude_cooling_pulse_keeps_populations():
    cool0 = CoolParams.from_khz(0.0, 5.0, 13.0)
    rho = fs.thermal_state(2.0, FockCutoff(25), eps=5e-3)
    out, pup = cool_exact(rho, cool=cool0)
    assert pup == pytest.approx(0.0, abs=1e-14)
    assert np.allclose(np.diag(out).real, np.diag(rho).real, atol=1e-12)


def dissipator_jump_sets(cut):
    a, adag, _ = fs.build_boson_ops(cut)
    noise = make_noise_jumps(NoiseParams(heating_rate=5e-3, thermal_nth=3.0,
                                         dephasing_rate=2e-2), cut)
    cooling = 0.3 * a
    return {"heating+dephasing": noise,
            "cooling+heating+dephasing": [cooling] + noise,
            "cooling": [cooling],
            "recoil pair": [0.1 * adag, 0.1 * a]}


@pytest.mark.parametrize("name", ["heating+dephasing",
                                  "cooling+heating+dephasing", "cooling",
                                  "recoil pair"])
def test_dissipator_matches_lindblad_step(name):
    cut = FockCutoff(16)
    jumps = dissipator_jump_sets(cut)[name]
    rho = random_state(cut.n_max, seed=3)
    t = 4.0
    ref = lindblad_step(rho, None, jumps, t)
    assert np.abs(Dissipator(jumps, t).apply(rho) - ref).max() <= 1e-12


def test_recoil_kick_matches_lindblad_step():
    # the kick dn = recoil_dn * (N_p * p_up)^2 is the unit pair's flow over dn
    cut = FockCutoff(16)
    a, adag, _ = fs.build_boson_ops(cut)
    rho = random_state(cut.n_max, seed=6)
    noise = NoiseParams(recoil_enabled=True, recoil_dn=0.04, photons_per_pump=2)
    out = recoil_kick(rho, 0.5, noise, recoil_diffusion(cut))
    ref = lindblad_step(rho, None, [0.2 * adag, 0.2 * a], 1.0)
    assert np.abs(out - ref).max() <= 1e-12


def test_dissipator_trace_and_positivity():
    cut = FockCutoff(16)
    # half a spin superposition (|down> phi + |up> chi)/sqrt2, half mixed
    rng = np.random.default_rng(11)
    phi, chi = rng.normal(size=(2, cut.bdim)) + 1j * rng.normal(size=(2, cut.bdim))
    psi = np.concatenate([phi / np.linalg.norm(phi),
                          chi / np.linalg.norm(chi)]) / np.sqrt(2)
    composite = 0.5 * np.outer(psi, psi.conj()) + 0.25 * np.kron(
        np.eye(2), random_state(cut.n_max, seed=12))
    assert np.linalg.norm(composite[:cut.bdim, cut.bdim:]) > 0.1
    for jumps in dissipator_jump_sets(cut).values():
        diss = Dissipator(jumps, 4.0)
        on_blocks = on_spin_blocks(diss.apply)
        for apply, rho in ((diss.apply, random_state(cut.n_max, seed=4)),
                           (on_blocks, composite)):
            out = apply(rho)
            assert abs(np.trace(out) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(out)[0] > -1e-12
        # the composite map is I (x) D: the exact flow of the lifted jumps
        ref = lindblad_step(composite, None, lifted(jumps), 4.0)
        assert np.abs(on_blocks(composite) - ref).max() <= 1e-12
        # the Dissipator takes b x b blocks: a composite state is refused,
        # not split into four wrong ones
        with pytest.raises(ValueError, match="blocks"):
            diss.apply(composite)


@pytest.mark.parametrize("n_max", [15, 16])
def test_parity_blocks_map_like_rho_m(n_max):
    """On the parity blocks the Dissipator and the recoil kick gather the
    even offsets alone, and agree with their maps on rho_m; the padding
    column of an odd dimension stays zero."""
    cut = FockCutoff(n_max)
    rho = even_state(n_max, seed=n_max)
    noise = NoiseParams(recoil_enabled=True, recoil_dn=0.04, photons_per_pump=2)
    diffusion = recoil_diffusion(cut)
    maps = [Dissipator(jumps, 4.0).apply
            for jumps in dissipator_jump_sets(cut).values()]
    maps.append(lambda r: recoil_kick(r, 0.5, noise, diffusion))
    for apply in maps:
        out = apply(fs.to_blocks(rho))
        assert out.shape == (cut.bdim, (cut.bdim + 1) // 2)
        assert np.abs(fs.from_blocks(out) - apply(rho)).max() <= 1e-15
        assert np.all(out[cut.bdim // 2 + 1:, cut.bdim // 2:] == 0)


def test_dissipator_rejects_non_covariant_jump():
    a, adag, _ = boson_ops(6)
    with pytest.raises(ValueError):
        Dissipator([a + adag], 1.0)
    with pytest.raises(ValueError):
        Dissipator([1j * np.diag(np.arange(7.0))], 1.0)


def test_split_step_slice_error(monkeypatch):
    """Pins the Strang splitting error of the 0.5 us slice on a short noisy
    exact-channel run against 0.05 us slices."""
    from iondpt.protocol import (ExperimentConfig, InitialState, CutoffPolicy,
                                 config_with_coupling, run)
    cfg = config_with_coupling(ExperimentConfig(
        drive=DriveParams.from_khz(51.0, 49.0, 10.0, 20.0), cool=COOL,
        noise=NoiseParams.from_per_second(heating_per_s=50.0,
                                          dephasing_per_s=200.0,
                                          recoil_enabled=True),
        initial=InitialState(kind="thermal", nbar=1.0), max_cycles=8,
        cutoff=CutoffPolicy(n_max=16, eps=1e-2)), 1.3)
    coarse = run(cfg).nbar
    monkeypatch.setattr(ch, "SLICE_US", 0.05)
    fine = run(cfg).nbar
    error = np.abs(coarse - fine).max()
    assert 3e-7 < error < 1.2e-6   # 5.6e-7 measured
