import pathlib

import numpy as np
import pytest

from iondpt.fockspace import FockCutoff, thermal_state
from iondpt.model import CoolParams, khz
from iondpt import probe as pr
from iondpt.probe import (ProbeScan, simulate_probe, fit_populations,
                          nbar_from_fit, measure_nbar, default_probe_times,
                          scan_to_csv, scan_from_csv, FitError, PopulationFit,
                          ProbeParams)
from iondpt.config import load_tree, experiment_from_tree
from iondpt.protocol import run

from helpers import embed_down, h_blue_sideband

OMEGA = khz(20.0)
CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"


def fock_diag(pops, n_max=None):
    n_max = n_max if n_max is not None else len(pops) + 4
    p = np.zeros(n_max + 1)
    p[:len(pops)] = pops
    return np.diag(p).astype(complex)


def test_probe_scan_validation():
    with pytest.raises(ValueError):
        ProbeScan(times=[1.0, 2.0], p_up=[0.5], omega_probe=OMEGA)
    with pytest.raises(ValueError):
        ProbeScan(times=[2.0, 1.0], p_up=[0.5, 0.5], omega_probe=OMEGA)
    with pytest.raises(ValueError):
        simulate_probe(np.ones((1, 1)), OMEGA, default_probe_times(OMEGA))
    for omega in (0.0, -OMEGA):
        with pytest.raises(ValueError, match="omega_probe"):
            simulate_probe(fock_diag([1.0]), omega, [1.0])


@pytest.mark.parametrize("setting,match", [
    ({"omega_probe": 0.0}, "probe Rabi frequency"),
    ({"omega_probe": -1.0}, "probe Rabi frequency"),
    ({"shots": 0}, "shots"), ({"k_max": -1}, "k_max"),
    ({"decay_model": "foo"}, "decay_model"),
    ({"decay_model": ["sqrt"]}, "decay_model")])
def test_probe_params_rejects_bad_settings(setting, match):
    with pytest.raises(ValueError, match=match):
        ProbeParams(**setting)


def test_probe_params_frequency_falls_back_to_cooling_rabi():
    cool = CoolParams.from_khz(20.0, 5.0, 13.0)
    explicit = ProbeParams.from_khz(10.0, k_max=0)
    assert explicit.resolved(cool) == explicit
    assert explicit.omega_probe == pytest.approx(khz(10.0))
    assert (ProbeParams(shots=10).resolved(cool)
            == ProbeParams(omega_probe=cool.omega_c, shots=10))
    with pytest.raises(ValueError, match="probe Rabi frequency"):
        ProbeParams().resolved(CoolParams.from_khz(0.0, 5.0, 13.0))


def test_vacuum_flop():
    times = default_probe_times(OMEGA)
    scan = simulate_probe(fock_diag([1.0]), OMEGA, times)
    assert np.allclose(scan.p_up, np.sin(OMEGA * times / 2) ** 2, atol=1e-10)


def composite_probe_reference(rho_m, omega, times):
    """Clipped p_up of |down><down| (x) rho_m evolved under h_blue_sideband
    on the composite space, by eigendecomposition, one time at a time."""
    cut = FockCutoff(rho_m.shape[0] - 1)
    w, v = np.linalg.eigh(h_blue_sideband(omega, cut))
    rho_eig = v.conj().T @ embed_down(rho_m) @ v
    up = slice(cut.bdim, cut.dim)
    p = []
    for t in times:
        ph = np.exp(-1j * w * t)
        rho_t = v @ (ph[:, None] * rho_eig * ph.conj()[None, :]) @ v.conj().T
        p.append(np.real(np.trace(rho_t[up, up])))
    return np.clip(p, 0.0, 1.0)


def random_state(b, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


@pytest.mark.parametrize("rho_m", [
    random_state(12, seed=3),                         # coherences do not enter
    fock_diag([0.2, 0.3, 0.0, 0.0, 0.0, 0.5], 5),     # n_max does not flop
    1.5 * fock_diag([1.0], 3),                        # p_up > 1 is clipped
], ids=["full-rank", "top-level", "overfull"])
def test_simulate_probe_matches_composite_evolution(rho_m):
    times = default_probe_times(OMEGA)
    scan = simulate_probe(rho_m, OMEGA, times)
    ref = composite_probe_reference(rho_m, OMEGA, times)
    assert np.abs(scan.p_up - ref).max() <= 1e-12


def test_single_phonon_flop():
    times = default_probe_times(OMEGA)
    scan = simulate_probe(fock_diag([0.0, 1.0]), OMEGA, times)
    expected = np.sin(np.sqrt(2) * OMEGA * times / 2) ** 2
    assert np.allclose(scan.p_up, expected, atol=1e-10)


def test_finite_shots_law_of_large_numbers():
    times = default_probe_times(OMEGA)
    exact = simulate_probe(fock_diag([0.5, 0.3, 0.2]), OMEGA, times)
    noisy = simulate_probe(fock_diag([0.5, 0.3, 0.2]), OMEGA, times,
                           shots=10**6, seed=1)
    assert np.abs(noisy.p_up - exact.p_up).max() < 5e-3


def test_fit_round_trip_known_populations():
    rho = fock_diag([0.5, 0.3, 0.2])
    times = default_probe_times(OMEGA, n_points=80)
    scan = simulate_probe(rho, OMEGA, times)
    fit = fit_populations(scan, k_max=4)
    sig = np.sqrt(np.clip(np.diag(fit.cov), 0, None))
    target = np.array([0.5, 0.3, 0.2, 0.0, 0.0])
    for k in range(5):
        assert abs(fit.p[k] - target[k]) <= max(2 * sig[k], 1e-3)
    nbar, sigma = nbar_from_fit(fit)
    assert nbar == pytest.approx(0.7, abs=0.01)


def test_fit_vacuum():
    times = default_probe_times(OMEGA, n_points=60)
    scan = simulate_probe(fock_diag([1.0]), OMEGA, times)
    fit = fit_populations(scan, k_max=3)
    assert fit.p[0] == pytest.approx(1.0, abs=1e-3)
    assert fit.residual_rms < 1e-4


@pytest.mark.filterwarnings("error")   # the cutoff drops < 0.02 phonons
def test_fit_thermal_nbar_within_5_percent():
    rho = thermal_state(1.0, FockCutoff(30))
    nbar, sigma, fit, scan = measure_nbar(rho, OMEGA, k_max=8)
    assert abs(nbar - 1.0) / 1.0 < 0.05


def decaying_scan(p, gamma0, decay_model, n_points=80):
    """P_up of the fit's own model with decay rates gamma0 f(k)."""
    times = default_probe_times(OMEGA, n_points=n_points)
    k = np.arange(len(p), dtype=float)
    rate = gamma0 * pr.DECAY_MODELS[decay_model](k)
    osc = np.exp(-rate * times[:, None]) * np.cos(OMEGA * np.sqrt(k + 1) * times[:, None])
    return ProbeScan(times=times, p_up=0.5 * (1.0 - osc @ p), omega_probe=OMEGA)


@pytest.mark.parametrize("decay_model", list(pr.DECAY_MODELS))
def test_fit_recovers_decay_scale(decay_model):
    p = np.array([0.5, 0.25, 0.15, 0.1])
    fit = fit_populations(decaying_scan(p, 0.02, decay_model), k_max=4,
                          decay_model=decay_model)
    assert fit.gamma0 == pytest.approx(0.02, rel=0.01)
    assert nbar_from_fit(fit)[0] == pytest.approx(np.arange(4) @ p, abs=0.01)


def finite_difference(fun, x, h=1e-7):
    cols = []
    for j in range(x.size):
        step = np.zeros_like(x)
        step[j] = h
        cols.append((fun(x + step) - fun(x - step)) / (2 * h))
    return np.column_stack(cols)


def test_fit_jacobian_matches_finite_difference(monkeypatch):
    seen, least_squares = {}, pr.least_squares

    def spy(fun, x0, jac, **kwargs):
        sol = least_squares(fun, x0, jac=jac, **kwargs)
        seen.update(fun=fun, jac=jac, x=sol.x)
        return sol

    monkeypatch.setattr(pr, "least_squares", spy)
    # sum p = 0.9 keeps the solution off the penalty's kink at sum p = 1
    fit_populations(decaying_scan(np.array([0.5, 0.3, 0.1]), 0.02, "sqrt"),
                    k_max=3)
    x = seen["x"]
    over = np.append(1.3 * x[:-1] / x[:-1].sum(), x[-1])   # sum p = 1.3
    for point in (x, over):
        expected = finite_difference(seen["fun"], point)
        assert np.abs(seen["jac"](point) - expected).max() < 1e-6
    assert seen["jac"](over)[-1, :-1] == pytest.approx(10.0)


def converged_measurement(monkeypatch, rho, **settings):
    """measure_nbar's (nbar, sigma) with least_squares run to tolerances of
    1e-15: the optimum that the default tolerances may stop short of."""
    least_squares = pr.least_squares

    def tight(fun, x0, jac, **kwargs):
        return least_squares(fun, x0, jac=jac, ftol=1e-15, xtol=1e-15,
                             gtol=1e-15, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(pr, "least_squares", tight)
        return measure_nbar(rho, OMEGA, **settings)[:2]


def test_shot_free_fit_lands_on_the_converged_optimum(monkeypatch):
    """Shot-free data has its optimum on the gamma0 = 0 bound, where the
    fit starts; a start at gamma0 = 1e-3 stopped 1.25e-4 phonons short."""
    rho = thermal_state(3.0, FockCutoff(45), eps=1e-3)
    nbar, sigma, fit, _ = measure_nbar(rho, OMEGA)
    ref_nbar, ref_sigma = converged_measurement(monkeypatch, rho)
    assert abs(nbar - ref_nbar) <= 1e-8
    assert sigma == pytest.approx(ref_sigma, rel=1e-6)
    assert fit.gamma0 <= 1e-8


@pytest.mark.parametrize("seed", range(3))
def test_shot_noise_fit_lands_on_the_converged_optimum(monkeypatch, seed):
    """The start on the gamma0 bound does not strand a fit of noisy data."""
    rho = thermal_state(3.0, FockCutoff(45), eps=1e-3)
    nbar, sigma = measure_nbar(rho, OMEGA, shots=1000, seed=seed)[:2]
    ref_nbar, _ = converged_measurement(monkeypatch, rho, shots=1000, seed=seed)
    assert abs(nbar - ref_nbar) <= 1e-3 * sigma


@pytest.mark.filterwarnings("ignore:k_max=40 drops")   # the capped tail
def test_fit_insensitive_to_rounding_noise():
    """A capped fit of a fat tail moves nbar by far less than the 1e-9 an
    equal-results check allows when rho changes in the 14th digit."""
    rho = thermal_state(6.0, FockCutoff(60), eps=1e-3)
    x = np.random.default_rng(0).normal(size=rho.shape)
    clean = measure_nbar(rho, OMEGA)[0]
    noisy = measure_nbar(rho + 1e-14 * (x + x.T) / 2, OMEGA)[0]
    assert abs(noisy - clean) <= 1e-10


def test_measure_nbar_warns_when_cutoff_drops_the_tail():
    tree = load_tree(CONFIGS / "fig2a.yaml")
    tree["cycles"] = {"mode": "fixed", "max": 30}
    rho = run(experiment_from_tree(tree)).final_state
    with pytest.warns(RuntimeWarning, match=r"k_max=10 drops 0\.789 tail"):
        nbar = measure_nbar(rho, khz(18.0), shots=800, seed=0, k_max=10)[0]
    assert nbar < np.arange(rho.shape[0]) @ np.real(np.diag(rho)) - 0.5


def test_measure_nbar_cannot_fit_the_top_level():
    """The probe never flops level n_max, so a k_max of n_max fits as
    n_max - 1 does and warns about the tail it cannot see."""
    rho = thermal_state(2.0, FockCutoff(12), eps=1e-2)
    assert pr.default_k_max(rho) == 11
    fits = {}
    for k_max in (12, 11):
        with pytest.warns(RuntimeWarning, match=r"k_max=11 drops 0\.031 tail"):
            fits[k_max] = measure_nbar(rho, OMEGA, k_max=k_max)
    assert fits[12][0] == fits[11][0]
    assert fits[12][2].p.size == 12
    direct = np.arange(13) @ np.real(np.diag(rho))
    assert direct - fits[12][0] > 0.03


def test_fit_requires_enough_samples():
    times = np.linspace(0.1, 10.0, 12)
    scan = simulate_probe(fock_diag([1.0]), OMEGA, times)
    with pytest.raises(FitError):
        fit_populations(scan, k_max=6)


def test_unknown_decay_model():
    times = default_probe_times(OMEGA)
    scan = simulate_probe(fock_diag([1.0]), OMEGA, times)
    with pytest.raises(ValueError):
        fit_populations(scan, k_max=2, decay_model="cubic")


def test_nbar_from_fit_hand_arithmetic():
    fit = PopulationFit(p=np.array([1.0, 0.0, 0.0]), cov=np.zeros((3, 3)),
                        gamma0=0.0, residual_rms=0.0)
    assert nbar_from_fit(fit) == (0.0, 0.0)

    fit = PopulationFit(p=np.array([0.5, 0.25, 0.25]), cov=np.zeros((3, 3)),
                        gamma0=0.0, residual_rms=0.0)
    nbar, sigma = nbar_from_fit(fit)
    assert nbar == pytest.approx(0.75)
    assert sigma == 0.0

    fit = PopulationFit(p=np.array([0.5, 0.25, 0.25]),
                        cov=np.diag([0.0, 0.01, 0.04]),
                        gamma0=0.0, residual_rms=0.0)
    _, sigma = nbar_from_fit(fit)
    assert sigma == pytest.approx(np.sqrt(0.01 + 0.16))


def test_nbar_from_fit_negative_variance_clamped():
    fit = PopulationFit(p=np.array([1.0, 0.0]), cov=np.diag([0.0, -1e-9]),
                        gamma0=0.0, residual_rms=0.0)
    with pytest.warns(RuntimeWarning):
        nbar, sigma = nbar_from_fit(fit)
    assert sigma == 0.0


def test_decay_models_selectable():
    rho = fock_diag([0.6, 0.4])
    times = default_probe_times(OMEGA, n_points=70)
    scan = simulate_probe(rho, OMEGA, times)
    for model in ("sqrt", "pow07", "const"):
        fit = fit_populations(scan, k_max=3, decay_model=model)
        nbar, _ = nbar_from_fit(fit)
        assert nbar == pytest.approx(0.4, abs=0.02)


def test_default_k_max_tail_policy():
    rho = thermal_state(3.0, FockCutoff(60))
    k = pr.default_k_max(rho)
    pops = np.real(np.diag(rho))
    n = np.arange(pops.size)
    lost = float((n * pops)[k + 1:].sum())
    assert lost <= 0.02 + 1e-12
    assert k >= 2


def test_csv_round_trip(tmp_path):
    times = default_probe_times(OMEGA, n_points=20)
    for shots in (None, 500):
        scan = simulate_probe(fock_diag([0.7, 0.3]), OMEGA, times,
                              shots=shots, seed=2)
        path = tmp_path / f"scan_{shots}.csv"
        scan_to_csv(scan, path)
        back = scan_from_csv(path, OMEGA)
        assert np.allclose(back.times, scan.times)
        assert np.allclose(back.p_up, scan.p_up)
        assert back.shots == scan.shots
    with pytest.raises(ValueError):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y\n1,2\n")
        scan_from_csv(bad, OMEGA)


def test_table_cells_and_bad_rows(tmp_path):
    path = tmp_path / "t.csv"
    pr.write_table(path, {"n": [1, 2], "x": [0.5, np.nan], "ok": [True, False]})
    assert path.read_bytes() == b"n,x,ok\r\n1,0.5,1\r\n2,nan,0\r\n"
    header, data = pr.read_table(path)
    assert header == ["n", "x", "ok"]
    assert np.array_equal(data, [[1, 0.5, 1], [2, np.nan, 0]], equal_nan=True)
    for text, message in (
            ("a,b\n1,2\n3\n", "row 3 ['3'] is shorter than the header"),
            ("a,b\n1,2,3\n", "row 2 ['1', '2', '3'] is longer than the header"),
            ("a,b\n1,x\n", "row 2 ['1', 'x'] holds a cell that is not a number")):
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            pr.read_table(path)
        assert str(info.value) == message


def test_sigma_shrinks_with_shots():
    rho = thermal_state(1.0, FockCutoff(30))
    sig = {}
    for shots in (10**3, 10**5):
        draws = [measure_nbar(rho, OMEGA, shots=shots, seed=s, k_max=8)[1]
                 for s in range(3)]
        sig[shots] = np.mean(draws)
    ratio = sig[10**3] / sig[10**5]
    assert 3.0 < ratio < 33.0  # ~sqrt(100) = 10 expected
