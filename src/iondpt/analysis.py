"""Parameter sweeps and curve fits: g-scans, R-scans, cooling-rate scans,
exponential saturation, saturation extrapolation, critical power law and
log-log slopes."""

import csv as _csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, replace

import numpy as np
from scipy.optimize import least_squares

# not called here: the benchmark tracer (perfbench/spans.py) wraps this name
from .fockspace import trace_out_spin
from .probe import FitError, fit_covariance, measure_nbar
from .protocol import (run, config_with_coupling, config_with_ratio,
                       SimulationDiverged)


@dataclass
class ScanResult:
    axis: str                  # "g", "R" or "omega_c"
    values: np.ndarray
    nbar: np.ndarray
    sigma: np.ndarray          # NaN when read out directly
    converged: np.ndarray      # bool per point
    cycles: np.ndarray
    n_max: np.ndarray
    config_hash: str = ""
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


def config_hash(config):
    """Stable hash of the full configuration for provenance."""
    blob = json.dumps(asdict(config), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _steady_point(args):
    config, readout, probe_opts = args
    try:
        traj = run(config)
    except SimulationDiverged:
        return dict(nbar=np.nan, sigma=np.nan, converged=False, cycles=0,
                    n_max=config.cutoff.ceiling)
    nbar = traj.steady_nbar(config.convergence.window)
    sigma = np.nan
    if readout == "probe":
        opts = dict(probe_opts or {})
        omega_probe = opts.pop("omega_probe", config.cool.omega_c)
        nbar, sigma, _, _ = measure_nbar(traj.final_state, omega_probe,
                                         seed=config.seed, **opts)
    return dict(nbar=nbar, sigma=sigma, converged=traj.converged,
                cycles=traj.cycles_run, n_max=int(traj.n_max_used[-1]))


def _dispatch(jobs, threads):
    if threads and threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(_steady_point, jobs))
    return [_steady_point(j) for j in jobs]


def _collect(axis, values, rows, base_config, label=""):
    return ScanResult(
        axis=axis, values=np.asarray(values, dtype=float),
        nbar=np.array([r["nbar"] for r in rows]),
        sigma=np.array([r["sigma"] for r in rows]),
        converged=np.array([r["converged"] for r in rows]),
        cycles=np.array([r["cycles"] for r in rows]),
        n_max=np.array([r["n_max"] for r in rows]),
        config_hash=config_hash(base_config), label=label)


def g_scan(base_config, g_values, readout="direct", probe_opts=None, threads=1):
    """Steady-state nbar versus dimensionless coupling g at fixed detunings."""
    g_values = np.asarray(g_values, dtype=float)
    if np.any(g_values <= 0):
        raise ValueError("g values must be > 0")
    jobs = [(config_with_coupling(base_config, g), readout, probe_opts)
            for g in g_values]
    return _collect("g", g_values, _dispatch(jobs, threads), base_config)


def r_scan(base_config, r_values, fixed_g, readout="direct", probe_opts=None,
           threads=1):
    """Steady-state nbar versus frequency ratio R at fixed g and fixed
    delta_b - delta_r."""
    r_values = np.asarray(r_values, dtype=float)
    jobs = [(config_with_ratio(base_config, r, g=fixed_g), readout, probe_opts)
            for r in r_values]
    return _collect("R", r_values, _dispatch(jobs, threads), base_config,
                    label=f"g={fixed_g}")


def cooling_scan(base_config, omega_c_values, g_values, threads=1):
    """One g-scan per cooling Rabi frequency omega_c."""
    results = []
    for omega_c in omega_c_values:
        cfg = replace(base_config, cool=replace(base_config.cool, omega_c=omega_c))
        scan = g_scan(cfg, g_values, threads=threads)
        scan.label = f"omega_c={omega_c:.6g}"
        results.append(scan)
    return results


def _least_squares_fit(model, residuals, x0, names, bounds, window=()):
    sol = least_squares(residuals, x0, bounds=bounds)
    if not sol.success:
        raise FitError(f"{model} fit did not converge: {sol.message}")
    cov = fit_covariance(sol.fun, sol.jac)
    errs = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(model=model,
                     params=dict(zip(names, map(float, sol.x))),
                     errors=dict(zip(names, map(float, errs))),
                     cov=cov,
                     residual_rms=float(np.sqrt(np.mean(sol.fun**2))),
                     window=window)


def fit_exponential_saturation(trajectory_or_xy):
    """Fit nbar = A exp(-N/N0) + B to a relaxation trajectory."""
    if hasattr(trajectory_or_xy, "nbar"):
        x = np.asarray(trajectory_or_xy.cycle, dtype=float)
        y = np.asarray(trajectory_or_xy.nbar, dtype=float)
    else:
        x, y = (np.asarray(v, dtype=float) for v in trajectory_or_xy)
    if x.size < 10:
        raise FitError("need at least 10 cycles for a saturation fit")
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
        bounds=([-np.inf, 1e-9, 0.0], [np.inf, np.inf, np.inf]))


def _saturation_lsq(x, y, x0):
    def residuals(p):
        ns, b, c = p
        return ns - b * x ** (-c) - y

    sol = least_squares(residuals, x0,
                        bounds=([0.0, -np.inf, 1e-3], [np.inf, np.inf, 5.0]),
                        x_scale="jac", max_nfev=5000)
    if not sol.success:
        raise FitError(f"saturation extrapolation failed: {sol.message}")
    cov = fit_covariance(sol.fun, sol.jac)
    return sol.x, float(np.sqrt(max(cov[0, 0], 0.0)))


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

    span = float(y.max() - y.min())
    d = np.diff(y)
    small = max(1e-12, 1e-3 * span)
    if span < 1e-12 or abs(d[-1]) <= small or abs(d[-2]) <= small:
        # Flat tail: any window works, fit everything.
        ns0 = float(y[-1])
        sol, err = _saturation_lsq(x, y, [ns0, max(span, 1e-6), 1.0])
        return float(sol[0]), err

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
        sol, err = _saturation_lsq(x[-window:], y[-window:], x0)
        return float(sol[0]), err

    # Three-point window: the model interpolates the tail exactly; report
    # the shift from widening the window by one point as the error.
    sol3, _ = _saturation_lsq(x[-3:], y[-3:], x0)
    sol4, _ = _saturation_lsq(x[-4:], y[-4:], x0)
    err = max(abs(float(sol3[0]) - float(sol4[0])), small)
    return float(sol3[0]), err


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
    if np.any(ns <= 0):
        raise FitError("N_s values must be positive")
    gmax = float(g.max())

    def residuals(p):
        logc, gc, nu = p
        return logc - nu * np.log(gc - g) - np.log(ns)

    x0 = [float(np.log(ns[-1]) + np.log(0.02)), gmax + 0.02, 1.0]
    eps = 1e-4
    sol = least_squares(residuals, x0,
                        bounds=([-np.inf, gmax + eps, 1e-3],
                                [np.inf, gmax + 2.0, 10.0]))
    if not sol.success or sol.x[1] > gmax + 1.9:
        # Bounded retry from a closer critical point before giving up.
        sol = least_squares(residuals, [x0[0], gmax + 0.005, 1.0],
                            bounds=([-np.inf, gmax + eps, 1e-3],
                                    [np.inf, gmax + 0.5, 10.0]))
        if not sol.success:
            raise FitError(f"critical fit degenerate: {sol.message}")
    cov = fit_covariance(sol.fun, sol.jac)
    errs = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    c_val = float(np.exp(sol.x[0]))
    return FitResult(
        model="critical_power_law",
        params={"C": c_val, "g_c": float(sol.x[1]), "nu": float(sol.x[2])},
        errors={"C": c_val * float(errs[0]), "g_c": float(errs[1]),
                "nu": float(errs[2])},
        cov=cov, residual_rms=float(np.sqrt(np.mean(sol.fun**2))),
        window=(float(g.min()), float(g.max())))


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
    if np.any(pts <= 0):
        raise FitError("log-log slope requires positive data")
    lx, ly = np.log(pts[:, 0]), np.log(pts[:, 1])
    coeffs, cov = np.polyfit(lx, ly, 1, cov=True)
    resid = ly - np.polyval(coeffs, lx)
    return FitResult(
        model="loglog_slope",
        params={"slope": float(coeffs[0]), "intercept": float(coeffs[1])},
        errors={"slope": float(np.sqrt(cov[0, 0])),
                "intercept": float(np.sqrt(cov[1, 1]))},
        cov=cov, residual_rms=float(np.sqrt(np.mean(resid**2))),
        window=(float(pts[:, 0].min()), float(pts[:, 0].max())))


def scan_to_csv(scan, path):
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow([scan.axis, "nbar", "sigma", "converged", "cycles",
                         "n_max"])
        for i in range(scan.values.size):
            writer.writerow([f"{scan.values[i]:.12g}", f"{scan.nbar[i]:.12g}",
                             f"{scan.sigma[i]:.12g}",
                             int(scan.converged[i]), int(scan.cycles[i]),
                             int(scan.n_max[i])])


def scan_from_csv(path):
    with open(path, newline="") as fh:
        rows = list(_csv.reader(fh))
    if not rows or len(rows[0]) < 6:
        raise ValueError(f"{path}: expected scan CSV header with 6 columns")
    axis = rows[0][0]
    data = np.array([[float(v) for v in row] for row in rows[1:]])
    if data.size == 0:
        raise ValueError(f"{path}: empty scan")
    return ScanResult(axis=axis, values=data[:, 0], nbar=data[:, 1],
                      sigma=data[:, 2], converged=data[:, 3].astype(bool),
                      cycles=data[:, 4].astype(int),
                      n_max=data[:, 5].astype(int))
