import numpy as np
import pytest

from iondpt.model import DriveParams, CoolParams
from iondpt.probe import ProbeParams
from iondpt.protocol import ExperimentConfig, InitialState
from iondpt import analysis as an
from iondpt.analysis import (ScanResult, FitError, g_scan, r_scan,
                             extrapolate_saturation, fit_exponential_saturation,
                             fit_critical_power_law, fit_loglog_slope,
                             crossover_midpoint, scan_to_csv, scan_from_csv)


def make_scan(values, nbar, axis="R"):
    values = np.asarray(values, dtype=float)
    nbar = np.asarray(nbar, dtype=float)
    n = values.size
    return ScanResult(axis=axis, values=values, nbar=nbar,
                      sigma=np.full(n, np.nan), converged=np.ones(n, bool),
                      cycles=np.full(n, 100), n_max=np.full(n, 30))


def small_config(**kw):
    base = dict(drive=DriveParams.from_khz(26.0, 24.0, 9.0, 20.0),
                cool=CoolParams.from_khz(20.0, 5.0, 13.0),
                initial=InitialState(kind="ground"),
                channel_mode="exact", max_cycles=40)
    base.update(kw)
    return ExperimentConfig(**base)


def test_scan_result_validation():
    with pytest.raises(ValueError):
        make_scan([1.0, 1.0, 2.0], [0, 0, 0])


def test_g_scan_small_monotone():
    cfg = small_config()
    scan = g_scan(cfg, [0.5, 1.2, 1.8])
    assert scan.axis == "g"
    assert np.all(np.diff(scan.nbar) > 0)  # rising through the crossover
    assert scan.nbar[0] < 0.3
    with pytest.raises(ValueError):
        g_scan(cfg, [0.0, 1.0])


def test_scan_parallel_matches_serial():
    cfg = small_config(max_cycles=25)
    gs = [0.8, 1.2, 1.6]
    serial = g_scan(cfg, gs, threads=1)
    parallel = g_scan(cfg, gs, threads=2)
    assert np.array_equal(serial.nbar, parallel.nbar)


def test_r_scan_labels_and_axis():
    cfg = small_config(max_cycles=20)
    scan = r_scan(cfg, [25, 50], fixed_g=1.0)
    assert scan.axis == "R"
    assert "g=1.0" in scan.label
    assert scan.nbar.size == 2


@pytest.mark.parametrize("scan", [lambda cfg, kw: g_scan(cfg, [1.0], **kw),
                                  lambda cfg, kw: r_scan(cfg, [50.0], 1.0, **kw)],
                         ids=["g_scan", "r_scan"])
def test_probe_scan_rejects_zero_frequency_before_any_point(monkeypatch, scan):
    # the probe falls back to the cooling Rabi frequency, here 0
    def no_cycles(config):
        raise AssertionError("a cycle ran")

    monkeypatch.setattr(an, "run", no_cycles)
    cfg = small_config(cool=CoolParams.from_khz(0.0, 5.0, 13.0))
    with pytest.raises(ValueError, match="probe Rabi frequency"):
        scan(cfg, dict(probe=ProbeParams()))


def test_fit_exponential_saturation_round_trip():
    rng = np.random.default_rng(5)
    x = np.arange(1.0, 201.0)
    y = 3.0 * np.exp(-x / 15.0) + 3.2 + rng.normal(0, 0.01, x.size)
    fit = fit_exponential_saturation((x, y))
    for name, true in (("A", 3.0), ("N0", 15.0), ("B", 3.2)):
        assert abs(fit.params[name] - true) <= max(2 * fit.errors[name], 0.02)


def test_fit_exponential_saturation_constant():
    x = np.arange(1.0, 51.0)
    fit = fit_exponential_saturation((x, np.full(50, 2.5)))
    assert abs(fit.params["A"]) < 1e-6
    assert fit.params["B"] == pytest.approx(2.5, abs=1e-6)


def test_extrapolate_saturation_round_trip():
    R = np.array([50, 100, 200, 400, 800, 1600.0])
    y = 1.54 - 2.0 * R ** -0.8
    ns, err = extrapolate_saturation(make_scan(R, y))
    assert abs(ns - 1.54) <= max(2 * err, 1e-3)
    rng = np.random.default_rng(1)
    ns2, err2 = extrapolate_saturation(make_scan(R, y + rng.normal(0, 0.005, 6)))
    assert abs(ns2 - 1.54) <= max(2 * err2, 0.05)


def test_extrapolate_saturation_constant():
    R = np.array([50, 100, 200, 400, 800, 1600.0])
    ns, err = extrapolate_saturation(make_scan(R, np.full(6, 0.7)))
    assert ns == pytest.approx(0.7, abs=1e-6)


def test_extrapolate_saturation_detects_divergence():
    R = np.array([50, 100, 200, 400, 800, 1600.0])
    y = 0.05 * R ** 0.843
    with pytest.raises(FitError, match="non-saturating"):
        extrapolate_saturation(make_scan(R, y))


def test_extrapolate_saturation_needs_points():
    with pytest.raises(FitError):
        extrapolate_saturation(make_scan([100, 200, 400], [1, 1.2, 1.3]))


def _critical_grid_oracle(g, ns):
    """Brute-force grid search over (g_c, nu) with logC solved in closed form."""
    best = (np.inf, None)
    for gc in np.linspace(g.max() + 1e-4, g.max() + 0.5, 400):
        lx = np.log(gc - g)
        ly = np.log(ns)
        for nu in np.linspace(0.2, 3.0, 300):
            logc = np.mean(ly + nu * lx)
            r = logc - nu * lx - ly
            cost = float(r @ r)
            if cost < best[0]:
                best = (cost, (gc, nu))
    return best[1]


def test_fit_critical_power_law_round_trip_and_oracle():
    g = np.arange(1.0, 1.34, 0.02)
    ns = 0.5 * (1.351 - g) ** -1.092
    fit = fit_critical_power_law(np.column_stack([g, ns]))
    assert fit.params["g_c"] == pytest.approx(1.351, abs=1e-3)
    assert fit.params["nu"] == pytest.approx(1.092, abs=1e-3)
    assert fit.params["nu"] > 0
    gc_o, nu_o = _critical_grid_oracle(g, ns)
    assert abs(fit.params["g_c"] - gc_o) < max(fit.errors["g_c"], 2e-3)
    assert abs(fit.params["nu"] - nu_o) < max(fit.errors["nu"], 2e-2)


def test_fit_critical_power_law_window_and_errors():
    g = np.arange(1.0, 1.34, 0.02)
    ns = 0.5 * (1.351 - g) ** -1.092
    fit = fit_critical_power_law(np.column_stack([g, ns]), g_window=(1.2, 1.33))
    assert fit.params["g_c"] == pytest.approx(1.351, abs=2e-3)
    with pytest.raises(FitError):
        fit_critical_power_law([(1.0, 1.0), (1.1, 2.0)])
    with pytest.raises(FitError):
        fit_critical_power_law(np.column_stack([g, -ns]))


def test_fit_critical_power_law_bounded_retry():
    # flat N_s has no critical point: the first fit runs past gmax + 1.9
    # and the retry from a closer g_c must stay within its bound gmax + 0.5
    g = np.linspace(1.0, 1.2, 6)
    fit = fit_critical_power_law(np.column_stack([g, np.full(g.size, 2.0)]))
    assert fit.params["g_c"] <= g.max() + 0.5
    assert list(fit.params) == ["C", "g_c", "nu"]
    assert list(fit.errors) == ["C", "g_c", "nu"]


def test_fit_loglog_slope_exact_and_oracle():
    x = np.array([50, 100, 200, 400, 800.0])
    y = 2.0 * x ** 0.531
    fit = fit_loglog_slope(np.column_stack([x, y]))
    assert fit.params["slope"] == pytest.approx(0.531, abs=1e-10)
    assert fit.residual_rms < 1e-12
    # hand OLS oracle
    lx, ly = np.log(x), np.log(y)
    slope = ((lx - lx.mean()) @ (ly - ly.mean())) / ((lx - lx.mean()) @ (lx - lx.mean()))
    assert fit.params["slope"] == pytest.approx(slope)
    with pytest.raises(FitError):
        fit_loglog_slope([(1.0, -1.0), (2.0, 1.0), (3.0, 2.0)])
    with pytest.raises(FitError):
        fit_loglog_slope([(1.0, 1.0), (2.0, 2.0)])


def test_crossover_midpoint():
    g = np.linspace(0.8, 1.8, 11)
    y = 1.0 / (1.0 + np.exp(-(g - 1.3) / 0.05))
    scan = make_scan(g, y, axis="g")
    assert crossover_midpoint(scan) == pytest.approx(1.3, abs=0.02)
    assert crossover_midpoint(scan, level=0.25) < crossover_midpoint(scan, level=0.75)
    flat = make_scan(g, np.full(11, 0.1), axis="g")
    with pytest.raises(FitError):
        crossover_midpoint(flat, level=5.0)


def test_scan_csv_round_trip(tmp_path):
    scan = make_scan([50, 100, 200], [0.4, 0.5, 0.6])
    path = tmp_path / "scan.csv"
    scan_to_csv(scan, path)
    back = scan_from_csv(path)
    assert back.axis == "R"
    assert np.allclose(back.values, scan.values)
    assert np.allclose(back.nbar, scan.nbar)
    assert np.array_equal(back.converged, scan.converged)
    bad = tmp_path / "bad.csv"
    header = "R,nbar,sigma,converged,cycles,n_max\n"
    # too few columns, short rows, ragged rows
    for text in ("a,b\n1,2\n", header + "50,1,0,1,10\n",
                 header + "50,1,0,1,10,30\n100,1,0,1,10\n"):
        bad.write_text(text)
        with pytest.raises(ValueError):
            scan_from_csv(bad)
