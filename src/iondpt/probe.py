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
from scipy.optimize import least_squares

# h_blue_sideband is not called here: the benchmark tracer
# (perfbench/spans.py) wraps this name
from .model import h_blue_sideband, khz

DECAY_MODELS = {
    "sqrt": lambda k: np.sqrt(k + 1.0),
    "pow07": lambda k: (k + 1.0) ** 0.7,
    "const": lambda k: np.ones_like(k, dtype=float),
}


class FitError(RuntimeError):
    """A population, scan or trajectory fit failed or was ill-posed."""


@dataclass(frozen=True)
class ProbeParams:
    """Probe readout settings, named as measure_nbar's keywords."""

    omega_probe: float | None = None  # rad/us; None = cooling Rabi frequency
    shots: int | None = None          # None = exact expectation values
    k_max: int | None = None          # fit cutoff; None = default_k_max
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
    decay_model: str = "sqrt"


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


def _forward_p_up(times, p, gamma0, omega, decay):
    k = np.arange(p.size, dtype=float)
    rabi = omega * np.sqrt(k + 1.0)
    gam = gamma0 * decay(k)
    osc = np.exp(-gam[None, :] * times[:, None]) * np.cos(rabi[None, :] * times[:, None])
    return 0.5 * (1.0 - osc @ p)


def _cosine_projection_init(scan, k_max):
    """Initial populations from projecting 1-2*P_up onto the Rabi cosines."""
    s = 1.0 - 2.0 * scan.p_up
    k = np.arange(k_max + 1, dtype=float)
    rabi = scan.omega_probe * np.sqrt(k + 1.0)
    p0 = np.empty(k_max + 1)
    T = scan.times[-1] - scan.times[0]
    for j in range(k_max + 1):
        p0[j] = 2.0 / T * np.trapezoid(s * np.cos(rabi[j] * scan.times), scan.times)
    p0 = np.clip(p0, 0.0, 1.0)
    total = p0.sum()
    if total > 1.0:
        p0 /= total
    return p0


def fit_covariance(residuals, jac):
    """Parameter covariance sigma^2 (J^T J)^+ of a least-squares solution,
    with sigma^2 = |r|^2 / max(N - P, 1) for N residuals and P parameters."""
    dof = max(residuals.size - jac.shape[1], 1)
    sigma2 = float(residuals @ residuals) / dof
    return sigma2 * np.linalg.pinv(jac.T @ jac)


def write_csv(path, header, rows):
    """Write a header row and then the data rows to a CSV file."""
    with open(path, "w", newline="") as fh:
        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path):
    """CSV rows as string lists, header first; short rows raise ValueError."""
    with open(path, newline="") as fh:
        rows = list(_csv.reader(fh))
    for line, row in enumerate(rows[1:], start=2):
        if len(row) < len(rows[0]):
            raise ValueError(f"row {line} {row!r} is shorter than the header")
    return rows


def fit_populations(scan, k_max, decay_model="sqrt", max_nfev=2000):
    """Constrained least-squares fit of Fock populations and a decay scale.

    Model: P_up(t) = (1 - sum_k p_k e^{-gamma_k t} cos(Omega sqrt(k+1) t))/2
    with gamma_k = gamma0 * f(k) per decay_model.  p_k are box-bounded to
    [0, 1] and the simplex constraint sum p_k <= 1 enters as a penalty.
    """
    if decay_model not in DECAY_MODELS:
        raise ValueError(f"unknown decay model {decay_model!r}")
    decay = DECAY_MODELS[decay_model]
    n_params = k_max + 2
    if scan.times.size < 3 * n_params:
        raise FitError(
            f"need at least {3 * n_params} samples for k_max={k_max}, "
            f"got {scan.times.size}")

    p0 = _cosine_projection_init(scan, k_max)
    x0 = np.append(p0, 1e-3)
    penalty_weight = 10.0

    def residuals(x):
        p, gamma0 = x[:-1], x[-1]
        r = _forward_p_up(scan.times, p, gamma0, scan.omega_probe, decay) - scan.p_up
        excess = max(p.sum() - 1.0, 0.0)
        return np.append(r, penalty_weight * excess)

    lo = np.append(np.zeros(k_max + 1), 0.0)
    hi = np.append(np.ones(k_max + 1), np.inf)
    sol = least_squares(residuals, x0, bounds=(lo, hi), max_nfev=max_nfev)
    if not sol.success:
        raise FitError(f"population fit did not converge: {sol.message}")

    r_data = sol.fun[:-1]
    J = sol.jac[:-1, :]
    if np.linalg.matrix_rank(J.T @ J) < n_params:
        warnings.warn("rank-deficient Jacobian; covariance from pseudo-inverse",
                      RuntimeWarning)
    cov_full = fit_covariance(r_data, J)
    return PopulationFit(p=sol.x[:-1], cov=cov_full[:-1, :-1], gamma0=float(sol.x[-1]),
                         residual_rms=float(np.sqrt(np.mean(r_data**2))),
                         decay_model=decay_model)


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


def default_k_max(rho_m, max_tail_nbar=0.02, cap=40):
    """Fit cutoff for emulated measurements with a known state.

    Smallest k_max whose discarded tail contributes less than max_tail_nbar
    to the mean phonon number; a naive multiple of nbar underestimates the
    cutoff badly for geometric-like tails.
    """
    pops = np.clip(np.real(np.diag(rho_m)), 0.0, None)
    n = np.arange(pops.size, dtype=float)
    weighted = n * pops
    loss = weighted[::-1].cumsum()[::-1]
    ok = np.nonzero(loss <= max_tail_nbar)[0]
    k_max = int(ok[0]) if ok.size else pops.size - 1
    return int(min(max(k_max, 2), cap, pops.size - 1))


def measure_nbar(rho_m, omega_probe, shots=None, seed=0, k_max=None,
                 times=None, decay_model="sqrt"):
    """End-to-end emulated measurement: scan, fit, propagate errors."""
    if k_max is None:
        k_max = default_k_max(rho_m)
    k_max = min(k_max, rho_m.shape[0] - 1)
    if times is None:
        n_points = max(60, 3 * (k_max + 2) + 12)
        times = default_probe_times(omega_probe, n_points=n_points)
    scan = simulate_probe(rho_m, omega_probe, times, shots=shots, seed=seed)
    fit = fit_populations(scan, k_max, decay_model=decay_model)
    nbar, sigma = nbar_from_fit(fit)
    return nbar, sigma, fit, scan


def scan_to_csv(scan, path):
    header, shots = ["t_us", "p_up"], []
    if scan.shots is not None:
        header, shots = ["t_us", "p_up", "shots"], [scan.shots]
    write_csv(path, header, ([f"{t:.12g}", f"{p:.12g}"] + shots
                             for t, p in zip(scan.times, scan.p_up)))


def scan_from_csv(path, omega_probe):
    rows = read_csv(path)
    if not rows or rows[0][:1] != ["t_us"]:
        raise ValueError("expected header starting with t_us")
    has_shots = len(rows[0]) > 2 and rows[0][2] == "shots"
    times, p_up, shots = [], [], None
    for row in rows[1:]:
        times.append(float(row[0]))
        p_up.append(float(row[1]))
        if has_shots:
            shots = int(row[2])
    return ProbeScan(times=np.array(times), p_up=np.array(p_up),
                     omega_probe=omega_probe, shots=shots)
