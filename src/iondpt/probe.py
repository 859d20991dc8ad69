"""Blue-sideband phonon-population measurement emulation and fitting.

The probe drives the blue sideband for a range of durations, records the
spin-up probability, and a damped multi-component Rabi fit recovers the
Fock populations p_k, from which nbar = N.p and sigma = sqrt(N Sigma N^T).
ProbeParams holds the readout settings, their defaults and their checks.
"""

import csv as _csv
import warnings

import numpy as np
from dataclasses import dataclass, replace
from scipy.optimize import least_squares, lsq_linear

# h_blue_sideband is not called here: the benchmark tracer
# (perfbench/spans.py) wraps this name
from .model import h_blue_sideband, khz

DECAY_MODELS = {
    "sqrt": lambda k: np.sqrt(k + 1.0),
    "pow07": lambda k: (k + 1.0) ** 0.7,
    "const": lambda k: np.ones_like(k, dtype=float),
}
MAX_TAIL_NBAR = 0.02   # phonons a fit cutoff may drop from the Fock tail
K_MAX_CAP = 40         # largest fit cutoff default_k_max picks
STORED_SCAN_K_MAX = 8  # fit cutoff of a stored scan: no state to size it


class FitError(RuntimeError):
    """A population, scan or trajectory fit failed or was ill-posed."""


@dataclass(frozen=True)
class ProbeParams:
    """Probe readout settings, named as measure_nbar's keywords."""

    omega_probe: float | None = None  # rad/us; None = cooling Rabi frequency
    shots: int | None = None          # None = exact expectation values
    # fit cutoff; None = default_k_max(rho_m); STORED_SCAN_K_MAX without rho_m
    k_max: int | None = None
    decay_model: str = "sqrt"

    def __post_init__(self):
        if self.omega_probe is not None and not self.omega_probe > 0:
            raise ValueError(f"probe Rabi frequency must be > 0 rad/us, got "
                             f"{self.omega_probe}: set probe.omega_probe_khz")
        if self.shots is not None and self.shots < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        if self.k_max is not None and self.k_max < 0:
            raise ValueError(f"k_max must be >= 0, got {self.k_max}")
        if self.decay_model not in tuple(DECAY_MODELS):  # also unhashables
            raise ValueError(f"decay_model must be one of {list(DECAY_MODELS)},"
                             f" got {self.decay_model!r}")

    @classmethod
    def from_khz(cls, omega_probe_khz=None, **settings):
        return cls(None if omega_probe_khz is None else khz(omega_probe_khz),
                   **settings)

    def resolved(self, cool):
        """These settings with omega_probe filled in: the cooling Rabi
        frequency of cool when unset.  One not > 0 raises ValueError."""
        if self.omega_probe is not None:
            return self
        return replace(self, omega_probe=cool.omega_c)


@dataclass
class ProbeScan:
    times: np.ndarray          # us, strictly increasing
    p_up: np.ndarray           # in [0, 1]
    omega_probe: float         # rad/us
    shots: int | None = None   # None = exact expectation values

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.p_up = np.asarray(self.p_up, dtype=float)
        if self.times.shape != self.p_up.shape:
            raise ValueError("times and p_up must have equal length")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")


@dataclass
class PopulationFit:
    p: np.ndarray              # Fock populations, length k_max+1
    cov: np.ndarray            # covariance of p
    gamma0: float              # fitted decay scale, 1/us
    residual_rms: float


def default_probe_times(omega_probe, n_points=60, n_periods=6):
    """Time grid covering several slow-Fock oscillations."""
    t_end = n_periods * 2 * np.pi / omega_probe
    return np.linspace(0.0, t_end, n_points + 1)[1:]


def simulate_probe(rho_m, omega_probe, times, shots=None, seed=0):
    """Blue-sideband scan of a boson state with the spin reset to |down>.

    The blue sideband couples |down, n> only to |up, n+1>, so each Fock
    population flops on its own and the coherences never enter:
    p_up(t) = sum_{n < n_max} rho_nn sin^2(Omega sqrt(n+1) t / 2).  The top
    level n_max has no partner inside the cutoff (see h_blue_sideband).
    With finite shots each point is a seeded binomial draw of the exact
    spin-up probability.
    """
    rho_m = np.asarray(rho_m)
    if rho_m.ndim != 2 or rho_m.shape[0] != rho_m.shape[1] or rho_m.shape[0] < 2:
        raise ValueError(f"rho_m must be a square matrix with n_max >= 1, "
                         f"got shape {rho_m.shape}")
    if omega_probe <= 0:
        raise ValueError("omega_probe must be > 0")
    pops = np.real(np.diag(rho_m))[:-1]
    times = np.asarray(times, dtype=float)
    rabi = omega_probe * np.sqrt(np.arange(1.0, pops.size + 1.0))
    p = np.clip(np.sin(0.5 * rabi[None, :] * times[:, None]) ** 2 @ pops, 0.0, 1.0)
    if shots is not None:
        rng = np.random.default_rng(seed)
        p = rng.binomial(shots, p) / shots
    return ProbeScan(times=times, p_up=p, omega_probe=omega_probe, shots=shots)


def fit_covariance(residuals, jac):
    """Parameter covariance sigma^2 (J^T J)^+ of a least-squares solution,
    with sigma^2 = |r|^2 / max(N - P, 1) for N residuals and P parameters."""
    dof = max(residuals.size - jac.shape[1], 1)
    sigma2 = float(residuals @ residuals) / dof
    return sigma2 * np.linalg.pinv(jac.T @ jac)


def write_table(path, columns):
    """Write a CSV file of named columns, a mapping of header to 1-D
    values of equal length.  Every cell is %.12g of its float value, so
    counts and booleans print as integers."""
    data = np.column_stack([np.asarray(c, dtype=float)
                            for c in columns.values()])
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([f"{v:.12g}" for v in row] for row in data.tolist())


def read_table(path):
    """(header, float array of the data rows) of a CSV file; a row whose
    length differs from the header's, or that holds a cell that is not a
    number, raises ValueError naming the row."""
    with open(path, newline="") as fh:
        header, *rows = list(_csv.reader(fh)) or [[]]
    data = np.empty((len(rows), len(header)))
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            side = "shorter" if len(row) < len(header) else "longer"
            raise ValueError(f"row {line} {row!r} is {side} than the header")
        try:
            data[line - 2] = [float(v) for v in row]
        except ValueError:
            raise ValueError(f"row {line} {row!r} holds a cell that is not "
                             "a number") from None
    return header, data


def fit_populations(scan, k_max, decay_model="sqrt"):
    """Constrained least-squares fit of Fock populations and a decay scale.

    Model: P_up(t) = (1 - sum_k p_k e^{-gamma_k t} cos(Omega sqrt(k+1) t))/2
    with gamma_k = gamma0 * f(k) per decay_model.  p_k are box-bounded to
    [0, 1] and the simplex constraint sum p_k <= 1 enters as a penalty.
    P_up is linear in p through the basis e^{-gamma_k t} cos(...), which
    gives a closed-form Jacobian and the start (p0, gamma0 = 0), p0 the
    bounded linear (lsq_linear) solution.  Shot-free data has its optimum
    on the gamma0 bound, where 2 evaluations (~5 ms at k_max 40) end the
    fit; a start at gamma0 = 1e-3 stopped up to ~1e-4 phonons short.
    """
    if decay_model not in DECAY_MODELS:
        raise ValueError(f"unknown decay model {decay_model!r}")
    n_params = k_max + 2
    if scan.times.size < 3 * n_params:
        raise FitError(
            f"need at least {3 * n_params} samples for k_max={k_max}, "
            f"got {scan.times.size}")

    k = np.arange(k_max + 1, dtype=float)
    cos = np.cos(scan.omega_probe * np.sqrt(k + 1.0) * scan.times[:, None])
    ft = DECAY_MODELS[decay_model](k) * scan.times[:, None]
    penalty_weight = 10.0

    def residuals(x):
        p = x[:-1]
        r = 0.5 * (1.0 - np.exp(-x[-1] * ft) * cos @ p) - scan.p_up
        return np.append(r, penalty_weight * max(p.sum() - 1.0, 0.0))

    def jacobian(x):
        p = x[:-1]
        basis = np.exp(-x[-1] * ft) * cos
        penalty = penalty_weight if p.sum() > 1.0 else 0.0
        return np.block([[-0.5 * basis, 0.5 * (ft * basis) @ p[:, None]],
                         [np.full(k_max + 1, penalty), 0.0]])

    p0 = lsq_linear(cos, 1.0 - 2.0 * scan.p_up, bounds=(0.0, 1.0)).x
    sol = least_squares(residuals, np.append(p0, 0.0), jac=jacobian,
                        bounds=(0.0, np.append(np.ones(k_max + 1), np.inf)),
                        max_nfev=2000)
    if not sol.success:
        raise FitError(f"population fit did not converge: {sol.message}")

    r_data = sol.fun[:-1]
    J = sol.jac[:-1, :]
    if np.linalg.matrix_rank(J.T @ J) < n_params:
        warnings.warn("rank-deficient Jacobian; covariance from pseudo-inverse",
                      RuntimeWarning)
    cov_full = fit_covariance(r_data, J)
    return PopulationFit(p=sol.x[:-1], cov=cov_full[:-1, :-1], gamma0=float(sol.x[-1]),
                         residual_rms=float(np.sqrt(np.mean(r_data**2))))


def nbar_from_fit(fit):
    """Mean phonon number and its 1-S.D. error from the fitted populations."""
    n = np.arange(fit.p.size, dtype=float)
    nbar = float(n @ fit.p)
    var = float(n @ fit.cov @ n)
    if var < 0:
        warnings.warn(f"negative nbar variance {var:.3e} clamped to 0",
                      RuntimeWarning)
        var = 0.0
    return nbar, float(np.sqrt(var))


def _tail_nbar(rho_m):
    """sum_{n >= k} n rho_nn, for k = 0 .. n_max + 1."""
    pops = np.clip(np.real(np.diag(rho_m)), 0.0, None)
    weighted = np.arange(pops.size) * pops
    return np.append(weighted[::-1].cumsum()[::-1], 0.0)


def default_k_max(rho_m):
    """Fit cutoff for emulated measurements with a known state.

    Smallest k_max whose discarded tail contributes less than MAX_TAIL_NBAR
    to the mean phonon number; a naive multiple of nbar underestimates the
    cutoff badly for geometric-like tails.  At most K_MAX_CAP and n_max - 1,
    the highest level simulate_probe flops.
    """
    ok = np.nonzero(_tail_nbar(rho_m) <= MAX_TAIL_NBAR)[0]
    return int(min(max(ok[0], 2), K_MAX_CAP, rho_m.shape[0] - 2))


def measure_nbar(rho_m, omega_probe, shots=None, seed=0, k_max=None,
                 decay_model="sqrt"):
    """End-to-end emulated measurement: scan, fit, propagate errors.
    k_max is clamped to n_max - 1: the top level n_max has no partner
    inside the cutoff and never flops.  Warns when the fit cutoff drops
    more than MAX_TAIL_NBAR phonons of the tail."""
    if k_max is None:
        k_max = default_k_max(rho_m)
    k_max = min(k_max, rho_m.shape[0] - 2)
    lost = _tail_nbar(rho_m)[k_max + 1]
    if lost > MAX_TAIL_NBAR:
        warnings.warn(f"k_max={k_max} drops {lost:.3g} tail phonons", RuntimeWarning)
    times = default_probe_times(omega_probe,
                                n_points=max(60, 3 * (k_max + 2) + 12))
    scan = simulate_probe(rho_m, omega_probe, times, shots=shots, seed=seed)
    fit = fit_populations(scan, k_max, decay_model=decay_model)
    nbar, sigma = nbar_from_fit(fit)
    return nbar, sigma, fit, scan


def scan_to_csv(scan, path):
    columns = {"t_us": scan.times, "p_up": scan.p_up}
    if scan.shots is not None:
        columns["shots"] = np.full(scan.times.size, scan.shots)
    write_table(path, columns)


def scan_from_csv(path, omega_probe):
    header, data = read_table(path)
    if header[:2] != ["t_us", "p_up"]:
        raise ValueError("expected header starting with t_us,p_up")
    shots = int(data[-1, 2]) if header[2:] == ["shots"] and data.size else None
    return ProbeScan(times=data[:, 0], p_up=data[:, 1],
                     omega_probe=omega_probe, shots=shots)
