"""Parameter sweeps and curve fits: g-scans, R-scans, cooling-rate scans,
exponential saturation, saturation extrapolation, critical power law and
log-log slopes.  A scan reads each point's nbar out directly, or through
the probe emulation when given a probe.ProbeParams."""

from dataclasses import dataclass, asdict, replace

import numpy as np
from scipy.optimize import least_squares

# not called here: the benchmark tracer (perfbench/spans.py) wraps this name
from .fockspace import trace_out_spin
from .probe import (FitError, fit_covariance, measure_nbar, read_table,
                    write_table)
from .protocol import (run, config_with_coupling, config_with_ratio,
                       SimulationDiverged, one_blas_thread)


# a scan point's columns after the axis value, with their types: the
# ScanResult fields, _steady_point's keys and the scan CSV's header
POINT_COLUMNS = {"nbar": float, "sigma": float, "converged": bool,
                 "cycles": int, "n_max": int}


@dataclass
class ScanResult:
    axis: str                  # "g", "R" or "omega_c"
    values: np.ndarray
    nbar: np.ndarray
    sigma: np.ndarray          # NaN when read out directly
    converged: np.ndarray      # bool per point
    cycles: np.ndarray
    n_max: np.ndarray
    label: str = ""

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(np.diff(self.values) <= 0):
            raise ValueError("scan axis must be strictly increasing")


@dataclass
class FitResult:
    model: str
    params: dict               # name -> value
    errors: dict               # name -> 1-S.D.
    cov: np.ndarray
    residual_rms: float
    window: tuple = ()


def _steady_point(args):
    """The POINT_COLUMNS of one (config, probe) scan point, as a dict."""
    config, probe = args
    try:
        traj = run(config)
    except SimulationDiverged:
        point = (np.nan, np.nan, False, 0, config.cutoff.ceiling)
    else:
        nbar, sigma = traj.steady_nbar(), np.nan
        if probe is not None:
            nbar, sigma, _, _ = measure_nbar(traj.final_state,
                                             seed=config.seed, **asdict(probe))
        point = (nbar, sigma, traj.converged, traj.cycles_run, traj.n_max)
    return dict(zip(POINT_COLUMNS, point))


def _point_configs(make, values, probe, threads, axis=True):
    """(make(v), probe resolved for it) for every scan value, all built
    before any point runs; probe None reads nbar out directly.  A value or
    probe frequency that fails a check, an axis whose values do not
    strictly increase, or threads other than 1 (points run in the calling
    process) is reported as ConfigError."""
    from .config import ConfigError   # keeps yaml out of `import iondpt`
    try:
        if threads != 1:
            raise ValueError(f"threads must be 1, got {threads}")
        if axis and np.any(np.diff(values) <= 0):
            raise ValueError("scan axis must be strictly increasing")
        configs = [make(v) for v in values]
        return [(c, None if probe is None else probe.resolved(c.cool))
                for c in configs]
    except ValueError as exc:
        raise ConfigError(f"scan: {exc}") from exc


def _scan(axis, values, jobs, label=""):
    """The ScanResult of each (config, probe) job's steady-state point, run
    in this process on one BLAS thread."""
    with one_blas_thread():
        rows = [_steady_point(j) for j in jobs]
    return ScanResult(axis, values, label=label, **{
        name: np.array([r[name] for r in rows], dtype=kind)
        for name, kind in POINT_COLUMNS.items()})


def g_scan(base_config, g_values, probe=None, threads=1):
    """Steady-state nbar versus dimensionless coupling g at fixed detunings."""
    g_values = np.asarray(g_values, dtype=float)

    def make(g):
        if not g > 0:
            raise ValueError("g values must be > 0")
        return config_with_coupling(base_config, g)

    return _scan("g", g_values, _point_configs(make, g_values, probe, threads))


def r_scan(base_config, r_values, fixed_g, probe=None, threads=1):
    """Steady-state nbar versus frequency ratio R at fixed g and fixed
    delta_b - delta_r."""
    r_values = np.asarray(r_values, dtype=float)
    jobs = _point_configs(
        lambda r: config_with_ratio(base_config, r, g=fixed_g), r_values,
        probe, threads)
    return _scan("R", r_values, jobs, label=f"g={fixed_g}")


def cooling_scan(base_config, omega_c_values, g_values, probe=None, threads=1):
    """One g-scan per cooling Rabi frequency omega_c, every omega_c and its
    probe frequency checked before the first g-scan runs."""
    bases = _point_configs(lambda omega_c: replace(
        base_config, cool=replace(base_config.cool, omega_c=omega_c)),
        omega_c_values, probe, threads, axis=False)
    results = []
    for omega_c, (cfg, _) in zip(omega_c_values, bases):
        scan = g_scan(cfg, g_values, probe, threads)
        scan.label = f"omega_c={omega_c:.6g}"
        results.append(scan)
    return results


def _fit_result(model, names, values, cov, residuals, window=()):
    errs = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(model=model,
                     params=dict(zip(names, map(float, values))),
                     errors=dict(zip(names, map(float, errs))),
                     cov=cov,
                     residual_rms=float(np.sqrt(np.mean(residuals**2))),
                     window=window)


def _least_squares_fit(model, residuals, x0, names, bounds, window=(),
                       **options):
    """Bounded least_squares fit; options go to scipy's least_squares."""
    sol = least_squares(residuals, x0, bounds=bounds, **options)
    if not sol.success:
        raise FitError(f"{model} fit did not converge: {sol.message}")
    return _fit_result(model, names, sol.x, fit_covariance(sol.fun, sol.jac),
                       sol.fun, window)


def fit_exponential_saturation(xy):
    """Fit nbar = A exp(-N/N0) + B to a relaxation trajectory xy = (N, nbar),
    run to its optimum: a refit from the result moves no parameter."""
    x, y = (np.asarray(v, dtype=float) for v in xy)
    if x.size < 10:
        raise FitError("need at least 10 cycles for a saturation fit")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise FitError("saturation fit needs finite data")
    b0 = float(np.mean(y[-max(3, x.size // 10):]))
    a0 = float(y[0] - b0)
    if abs(a0) < 1e-12:
        a0 = 1e-12
    x0 = [a0, max(x.size / 5.0, 1.0), max(b0, 0.0)]

    def residuals(p):
        a, n0, b = p
        return a * np.exp(-x / n0) + b - y

    return _least_squares_fit(
        "exponential_saturation", residuals, x0, ["A", "N0", "B"],
        bounds=([-np.inf, 1e-9, 0.0], [np.inf, np.inf, np.inf]),
        ftol=1e-15, xtol=1e-15, gtol=1e-15)


def extrapolate_saturation(scan):
    """Extrapolate nbar(R) = N_s - b R^(-c) to R -> infinity.

    The shifted power law only describes the asymptotic tail of a scan, so
    the fit window is the longest trailing run over which successive
    differences decay geometrically (the model's signature on a log-spaced
    grid).  When only the last three points qualify this reduces to Aitken
    extrapolation of the tail, with the window sensitivity reported as the
    error.  Returns (N_s, err); raises FitError("non-saturating") when the
    trailing differences grow, i.e. the data prefer c <= 0.
    """
    x = scan.values
    y = scan.nbar
    good = np.isfinite(y)
    x, y = x[good], y[good]
    if x.size < 4:
        raise FitError("need at least 4 R points in the saturating regime")

    def tail_fit(n, x0):
        """N_s and its 1-S.D. error from the last n points."""
        xs, ys = x[-n:], y[-n:]

        def residuals(p):
            ns, b, c = p
            return ns - b * xs ** (-c) - ys

        fit = _least_squares_fit(
            "saturation_extrapolation", residuals, x0, ["N_s", "b", "c"],
            bounds=([0.0, -np.inf, 1e-3], [np.inf, np.inf, 5.0]),
            x_scale="jac", max_nfev=5000)
        return fit.params["N_s"], fit.errors["N_s"]

    span = float(y.max() - y.min())
    d = np.diff(y)
    small = max(1e-12, 1e-3 * span)
    if span < 1e-12 or abs(d[-1]) <= small or abs(d[-2]) <= small:
        # Flat tail: any window works, fit everything.
        return tail_fit(x.size, [float(y[-1]), max(span, 1e-6), 1.0])

    ratio = d[-1] / d[-2]
    if ratio >= 1.0 or ratio <= 0.0:
        raise FitError("non-saturating: trailing differences do not decay "
                       "(fit prefers c <= 0)")

    # Local exponent from the last difference pair on the log-spaced axis.
    c_tail = -np.log(ratio) / np.log(x[-1] / x[-2])
    ns_tail = float(y[-1] + d[-1] * ratio / (1.0 - ratio))
    b_tail = float((ns_tail - y[-1]) * x[-1] ** c_tail)

    # Longest trailing window with a consistent local exponent.
    window = 3
    for i in range(d.size - 2, 0, -1):
        if d[i] == 0 or d[i - 1] == 0:
            break
        r_i = d[i] / d[i - 1]
        if r_i <= 0 or r_i >= 1:
            break
        c_i = -np.log(r_i) / np.log(x[i + 1] / x[i])
        if abs(c_i - c_tail) > 0.25 * c_tail + 0.02:
            break
        window += 1

    x0 = [ns_tail, b_tail, c_tail]
    if window >= 4:
        return tail_fit(window, x0)

    # Three-point window: the model interpolates the tail exactly; report
    # the shift from widening the window by one point as the error.
    ns3, _ = tail_fit(3, x0)
    ns4, _ = tail_fit(4, x0)
    return ns3, max(abs(ns3 - ns4), small)


def fit_critical_power_law(points, g_window=None):
    """Fit N_s = C (g_c - g)^(-nu) near the critical point.

    points: sequence of (g, N_s).  Residuals are taken in log N_s, which
    weights the diverging branch evenly.
    """
    pts = np.asarray(points, dtype=float)
    if g_window is not None:
        lo, hi = g_window
        pts = pts[(pts[:, 0] >= lo) & (pts[:, 0] <= hi)]
    if pts.shape[0] < 5:
        raise FitError("need at least 5 points near the critical region")
    g, ns = pts[:, 0], pts[:, 1]
    if not (np.isfinite(pts).all() and np.all(ns > 0)):
        raise FitError("N_s values must be positive and finite")
    gmax = float(g.max())

    def residuals(p):
        logc, gc, nu = p
        return logc - nu * np.log(gc - g) - np.log(ns)

    def fit(x0, gc_max):
        # fitted in log C; converted to C below
        return _least_squares_fit(
            "critical_power_law", residuals, x0, ["C", "g_c", "nu"],
            bounds=([-np.inf, gmax + 1e-4, 1e-3], [np.inf, gc_max, 10.0]),
            window=(float(g.min()), gmax))

    logc0 = float(np.log(ns[-1]) + np.log(0.02))
    try:
        result = fit([logc0, gmax + 0.02, 1.0], gmax + 2.0)
    except FitError:
        result = None
    if result is None or result.params["g_c"] > gmax + 1.9:
        # Bounded retry from a closer critical point before giving up.
        result = fit([logc0, gmax + 0.005, 1.0], gmax + 0.5)
    c_val = float(np.exp(result.params["C"]))
    result.params["C"] = c_val
    result.errors["C"] *= c_val
    return result


def crossover_midpoint(scan, level=None):
    """Axis value where nbar first crosses a reference level.

    By default the level is half the scan maximum.  When comparing scans
    whose nbar ranges differ (e.g. different cooling rates), pass a common
    level so the midpoints are comparable.  Linear interpolation between the
    two bracketing scan points.
    """
    y = scan.nbar
    if not np.all(np.isfinite(y)):
        raise FitError("crossover midpoint needs finite nbar everywhere")
    half = 0.5 * (float(y.max()) + float(y.min())) if level is None else float(level)
    above = np.nonzero(y >= half)[0]
    if above.size == 0 or above[0] == 0:
        raise FitError("half-maximum not bracketed by the scan window")
    i = above[0]
    x0, x1 = scan.values[i - 1], scan.values[i]
    y0, y1 = y[i - 1], y[i]
    return float(x0 + (half - y0) * (x1 - x0) / (y1 - y0))


def fit_loglog_slope(points):
    """Ordinary least squares on (log x, log y); slope with 1-S.D. error."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[0] < 3:
        raise FitError("need at least 3 points for a log-log slope")
    if not (np.isfinite(pts).all() and np.all(pts > 0)):
        raise FitError("log-log slope requires positive finite data")
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    coeffs, cov = np.polyfit(lx, ly, 1, cov=True)
    return _fit_result("loglog_slope", ["slope", "intercept"], coeffs, cov,
                       ly - np.polyval(coeffs, lx),
                       (float(pts[:, 0].min()), float(pts[:, 0].max())))


def scan_to_csv(scan, path):
    write_table(path, {scan.axis: scan.values,
                       **{name: getattr(scan, name) for name in POINT_COLUMNS}})


def scan_from_csv(path):
    header, data = read_table(path)
    if header[1:] != list(POINT_COLUMNS):
        raise ValueError(f"{path}: expected scan CSV header <axis>,"
                         + ",".join(POINT_COLUMNS))
    if data.size == 0:
        raise ValueError(f"{path}: empty scan")
    return ScanResult(header[0], data[:, 0], **{
        name: data[:, i].astype(kind)
        for i, (name, kind) in enumerate(POINT_COLUMNS.items(), start=1)})
