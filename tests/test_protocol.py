import numpy as np
import pytest
from dataclasses import replace

from iondpt.fockspace import FockCutoff
from iondpt import fockspace as fs
from iondpt.model import DriveParams, CoolParams, derive
from iondpt import model
from iondpt.channels import (NoiseParams, drive_stage, make_noise_jumps,
                             unitary_propagator)
from iondpt.protocol import (ExperimentConfig, InitialState, Convergence,
                             CutoffPolicy, SimulationDiverged, prepare_initial,
                             run, config_with_coupling, config_with_ratio,
                             _cooling_stage)

from helpers import h_qrm, on_parity_blocks

DRIVE = DriveParams.from_khz(26.0, 24.0, 9.0, 20.0)
COOL = CoolParams.from_khz(20.0, 5.0, 13.0)


def make_config(**kw):
    base = dict(drive=DRIVE, cool=COOL, initial=InitialState(kind="ground"),
                channel_mode="exact", max_cycles=30)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(max_cycles=0)
    with pytest.raises(ValueError):
        make_config(channel_mode="hybrid")
    with pytest.raises(ValueError):
        InitialState(kind="coherent")
    with pytest.raises(ValueError, match="nbar"):
        InitialState(nbar=-1)
    with pytest.raises(ValueError, match="unknown convergence mode"):
        Convergence(mode="adaptive")
    with pytest.raises(ValueError):
        Convergence(mode="tolerance", tol=0.0)
    with pytest.raises(ValueError):
        Convergence(window=1)
    # growth <= 1 would re-run an overflowing cutoff at the same size forever
    for setting in ({"growth": 1.0}, {"eps": 0.0}, {"n_max": 0}):
        with pytest.raises(ValueError, match=next(iter(setting))):
            CutoffPolicy(**setting)


def test_prepare_initial():
    cut = FockCutoff(50)
    num = np.diag(np.arange(cut.bdim))
    ground = fs.from_blocks(prepare_initial(make_config(), cut))
    assert fs.expectation(ground, num) == pytest.approx(0.0)
    assert ground[0, 0].real == pytest.approx(1.0)
    cfg = make_config(initial=InitialState(kind="thermal", nbar=5.0))
    thermal = prepare_initial(cfg, cut)
    assert fs.expectation(fs.from_blocks(thermal), num) == pytest.approx(
        5.0, abs=0.02)
    # the parity blocks of a boson state: the spin is not carried, it is
    # always down
    assert thermal.shape == (cut.bdim, (cut.bdim + 1) // 2)


def test_no_drive_stays_in_vacuum():
    d0 = DriveParams.from_khz(26.0, 24.0, 0.0, 20.0)
    traj = run(make_config(drive=d0, max_cycles=20))
    assert np.all(traj.nbar < 1e-12)
    assert np.all(traj.p_up < 1e-12)


def test_zero_coupling_zero_cooling_invariance():
    # pure frame bookkeeping must leave populations exactly alone
    d0 = DriveParams.from_khz(26.0, 24.0, 0.0, 20.0)
    c0 = CoolParams.from_khz(0.0, 5.0, 13.0)
    cfg = make_config(drive=d0, cool=c0, max_cycles=25,
                      initial=InitialState(kind="thermal", nbar=3.0))
    traj = run(cfg)
    assert np.abs(traj.nbar - traj.nbar[0]).max() < 1e-12


def test_wall_clock_increments():
    traj = run(make_config(max_cycles=10))
    dt = np.diff(traj.t_us)
    assert np.allclose(dt, DRIVE.tau + COOL.tau_d)
    assert traj.t_us[0] == pytest.approx(DRIVE.tau + COOL.tau_d)


def test_determinism_bitwise():
    cfg = make_config(initial=InitialState(kind="thermal", nbar=2.0),
                      max_cycles=15)
    t1 = run(cfg)
    t2 = run(cfg)
    assert np.array_equal(t1.nbar, t2.nbar)
    assert np.array_equal(t1.p_up, t2.p_up)
    assert np.array_equal(t1.final_state, t2.final_state)


def test_tolerance_convergence_trivial():
    d0 = DriveParams.from_khz(26.0, 24.0, 0.0, 20.0)
    cfg = make_config(drive=d0, max_cycles=100,
                      convergence=Convergence(mode="tolerance", tol=0.05,
                                              window=5))
    traj = run(cfg)
    assert traj.converged
    assert traj.cycles_run == 5  # first full window


def test_run_dispatches_on_mode():
    cfg = make_config(max_cycles=12)
    assert run(cfg).cycles_run == 12
    cfg_tol = make_config(max_cycles=200,
                          convergence=Convergence(mode="tolerance", tol=0.05,
                                                  window=10))
    traj = run(cfg_tol)
    assert traj.converged
    assert traj.cycles_run < 200


def test_initial_state_independence_cheap():
    # relaxation from above and below meets within twice the window spread
    conv = Convergence(mode="tolerance", tol=0.05, window=20)
    cfg_g = make_config(max_cycles=200, convergence=conv)
    cfg_t = make_config(max_cycles=200, convergence=conv,
                        initial=InitialState(kind="thermal", nbar=5.0))
    n_g = run(cfg_g).steady_nbar()
    n_t = run(cfg_t).steady_nbar()
    assert abs(n_g - n_t) < 2 * conv.tol


def test_steady_nbar_reads_the_run_window():
    # a relaxing fixed-mode run: the last 7 and the last 20 cycles differ
    cfg = make_config(initial=InitialState(kind="thermal", nbar=5.0),
                      convergence=Convergence(window=7))
    traj = run(cfg)
    assert traj.steady_nbar() == np.mean(traj.nbar[-7:])
    assert abs(np.mean(traj.nbar[-20:]) - traj.steady_nbar()) > 1e-3


def test_cutoff_escalation():
    cfg = make_config(initial=InitialState(kind="thermal", nbar=5.0),
                      max_cycles=5,
                      cutoff=CutoffPolicy(n_max=5, eps=5e-4, growth=1.5,
                                          ceiling=200))
    traj = run(cfg)
    assert traj.n_max > 5  # escalated past the inadequate start


def test_initial_state_tail_escalates_before_any_build(monkeypatch):
    """A thermal start with nbar 1 at n_max 10 leaves 4.9e-4 beyond the
    cutoff, which thermal_state accepts, but 1.47e-3 in the top two levels,
    above eps: the run moves to n_max 15 before it builds a drive at 10,
    and with no coupling the cycles only cool."""
    from iondpt import protocol
    built = []

    def h_qrm(derived, cutoff):
        built.append(cutoff.n_max)
        return model.h_qrm(derived, cutoff)

    monkeypatch.setattr(protocol, "h_qrm", h_qrm)
    cfg = make_config(drive=DriveParams.from_khz(26.0, 24.0, 0.0, 20.0),
                      initial=InitialState(kind="thermal", nbar=1.0),
                      max_cycles=5, cutoff=CutoffPolicy(n_max=10))
    assert run(cfg).n_max == 15
    assert built == [15]


def test_divergence_reported():
    cfg = make_config(initial=InitialState(kind="thermal", nbar=5.0),
                      max_cycles=5,
                      cutoff=CutoffPolicy(n_max=5, eps=5e-4, growth=1.5,
                                          ceiling=6))
    with pytest.raises(SimulationDiverged):
        run(cfg)


def test_config_with_coupling():
    cfg = make_config()
    for g in (0.5, 1.0, 1.8):
        assert derive(config_with_coupling(cfg, g).drive).coupling_g == \
            pytest.approx(g, rel=1e-12)


def test_config_with_ratio():
    cfg = make_config()
    out = config_with_ratio(cfg, 50.0, g=1.3)
    der = derive(out.drive)
    assert der.ratio_r == pytest.approx(50.0, rel=1e-12)
    assert der.coupling_g == pytest.approx(1.3, rel=1e-12)
    # delta_b - delta_r held fixed
    assert out.drive.delta_b - out.drive.delta_r == \
        pytest.approx(DRIVE.delta_b - DRIVE.delta_r, rel=1e-12)


def test_jitter_changes_drive_deterministically():
    cfg = make_config(jitter_sigma=0.01, seed=42, max_cycles=3)
    t1 = run(cfg)
    t2 = run(cfg)
    assert np.array_equal(t1.nbar, t2.nbar)
    t3 = run(replace(cfg, seed=43))
    assert not np.array_equal(t1.nbar, t3.nbar)


def test_trajectory_validity_during_run():
    cfg = make_config(max_cycles=8, debug_validate=True,
                      initial=InitialState(kind="thermal", nbar=2.0))
    traj = run(cfg)  # raises StateValidityError on violation
    assert np.all(traj.nbar >= 0)


# Exaggerated, phase-covariant noise: heating/cooling pair and dephasing.
NOISE = NoiseParams(heating_rate=1e-3, dephasing_rate=1e-3, recoil_enabled=True)


@pytest.mark.parametrize("noisy", [False, True], ids=["quiet", "noisy"])
@pytest.mark.parametrize("mode", ["exact", "lindblad"])
def test_wall_clock_origin_invariance(mode, noisy, composite_reference):
    """The boson-state cycle carries no wall clock.  That is exact because
    the spin is optically pumped to |down> perfectly at every cycle and all
    noise is covariant under exp(-i phi n): the interaction-frame phases of
    the composite engine then cancel, whatever the clock's origin.  Here
    the composite engine, started at several wall-clock origins, must agree
    with the boson engine to 1e-12 in nbar."""
    cfg = make_config(channel_mode=mode, max_cycles=6,
                      noise=NOISE if noisy else NoiseParams(),
                      initial=InitialState(kind="thermal", nbar=1.0),
                      cutoff=CutoffPolicy(n_max=24))
    traj = run(cfg)
    cut = FockCutoff(traj.n_max)
    for t0 in (0.0, 137.5, 2.5e4):
        ref = composite_reference(cfg, cut, 6, t0)
        assert np.abs(ref - traj.nbar).max() <= 1e-12


def drive_of(cfg, cut):
    """The drive stage of a run of cfg at cutoff cut."""
    derived = derive(cfg.drive)
    free = np.exp(-1j * derived.omega_f * np.arange(cut.bdim) * cfg.cool.tau_d)
    return drive_stage(model.h_qrm(derived, cut), cfg.drive.tau, free,
                       make_noise_jumps(cfg.noise, cut))


@pytest.mark.parametrize("noisy", [False, True], ids=["quiet", "noisy"])
def test_drive_stage_trace_and_positivity(noisy):
    cut = FockCutoff(20)
    cfg = make_config(noise=NOISE if noisy else NoiseParams())
    rho = fs.thermal_state(2.0, cut, eps=1e-3)
    out = on_parity_blocks(drive_of(cfg, cut))(rho)
    assert abs(np.trace(out) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(out)[0] > -1e-12
    assert np.abs(out - out.conj().T).max() < 1e-14


@pytest.mark.parametrize("n_max", [45, 153])
def test_noise_free_drive_map_matches_dense_unitary(n_max):
    """The parity-sector drive map against P (U_dd rho U_dd^dag +
    U_ud rho U_ud^dag) P^dag from the dense exp(-i H tau) of the whole
    space and the free evolution P = exp(-i omega_f n tau_d)."""
    cut = FockCutoff(n_max)
    b = cut.bdim
    derived = derive(DRIVE)
    U = unitary_propagator(h_qrm(derived, cut), DRIVE.tau)
    P = np.exp(-1j * derived.omega_f * np.arange(b) * COOL.tau_d)
    rng = np.random.default_rng(n_max)
    m = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
    rho = m @ m.conj().T
    # the cycle keeps rho_m free of odd offsets, which the map ignores
    z = (-1.0) ** np.arange(b)
    rho = 0.5 * (rho + z[:, None] * rho * z[None, :]) / np.trace(rho).real
    ref = sum(u @ rho @ u.conj().T for u in (U[:b, :b], U[b:, :b]))
    ref = P[:, None] * ref * P.conj()[None, :]
    out = on_parity_blocks(drive_of(make_config(), cut))(rho)
    assert np.abs(out - ref).max() <= 1e-12


def stage(cfg, n_max=12):
    """The cooling stage that a run of cfg takes at cutoff n_max."""
    return _cooling_stage(cfg.cool, FockCutoff(n_max), cfg.noise,
                          cfg.channel_mode)


def test_scan_points_share_one_cooling_stage():
    cfg = make_config(noise=NOISE)
    first = stage(cfg)
    for point in (config_with_coupling(cfg, 1.7),
                  config_with_ratio(cfg, 50.0, g=1.3),
                  replace(cfg, jitter_sigma=0.01, seed=3)):
        assert stage(point) is first
    for other in (replace(cfg, cool=CoolParams.from_khz(15.0, 5.0, 13.0)),
                  replace(cfg, noise=NoiseParams()),
                  replace(cfg, channel_mode="lindblad")):
        built = stage(cfg)
        assert stage(other) is not built
    built = stage(cfg)
    assert stage(cfg, n_max=13) is not built


def test_escalation_frees_the_smaller_stage(monkeypatch):
    """A run that escalates drops the smaller cutoff's cooling stage before
    it builds the larger one, so the cache adds no stage to its peak."""
    import weakref
    from iondpt import protocol
    alive, seen = [], []

    class Stage(protocol.CoolingChannel):
        def __init__(self, *args, **kwargs):
            seen.append(sum(ref() is not None for ref in alive))
            super().__init__(*args, **kwargs)
            alive.append(weakref.ref(self))

    monkeypatch.setattr(protocol, "CoolingChannel", Stage)
    _cooling_stage.cache_clear()
    cfg = make_config(max_cycles=20,
                      cutoff=CutoffPolicy(n_max=10, eps=5e-4, ceiling=200))
    assert run(config_with_coupling(cfg, 2.2)).n_max > 10
    assert len(seen) > 1 and seen == [0] * len(seen)
    _cooling_stage.cache_clear()


@pytest.mark.parametrize("kind", ["r-scan", "noisy-g-scan"])
def test_scan_nbar_independent_of_the_stage_cache(kind):
    """A scan reads the same nbar whether each point builds its own
    cooling stage or takes the previous point's."""
    from iondpt import analysis
    if kind == "r-scan":
        cfg = make_config(channel_mode="lindblad", max_cycles=20)
        values = [20.0, 30.0, 50.0]
        scan = lambda v: analysis.r_scan(cfg, v, 1.2).nbar
    else:
        cfg = make_config(noise=NOISE, max_cycles=6)
        values = [0.8, 1.2]
        scan = lambda v: analysis.g_scan(cfg, v).nbar
    cold = []
    for v in values:
        _cooling_stage.cache_clear()
        cold.extend(scan([v]))
    # the last point left its stage in the cache
    assert np.array_equal(scan(values), cold)
