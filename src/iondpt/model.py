"""Parameter derivation and Hamiltonian builders.

Internal units are microseconds and rad/us throughout.  Configuration files
quote ordinary frequencies in kHz and rates in 1/s; the converters below are
the only place those units are touched.
"""

import numpy as np
from dataclasses import dataclass

from .fockspace import build_boson_ops, build_spin_ops, tensor

HERMITICITY_REL_TOL = 1e-12


def khz(f):
    """Ordinary frequency in kHz -> angular frequency in rad/us."""
    return 2.0 * np.pi * f * 1e-3


def per_second(rate):
    """Rate in 1/s -> 1/us."""
    return rate * 1e-6


@dataclass(frozen=True)
class DriveParams:
    """Coherent-drive stage: sideband detunings, Rabi frequency and duration."""

    delta_b: float   # blue-sideband detuning, rad/us
    delta_r: float   # red-sideband detuning, rad/us
    omega_sb: float  # sideband Rabi frequency, rad/us
    tau: float       # drive duration per cycle, us

    def __post_init__(self):
        if not self.delta_b > self.delta_r > 0:
            raise ValueError(
                f"need delta_b > delta_r > 0, got {self.delta_b}, {self.delta_r}")
        if self.omega_sb < 0:
            raise ValueError("omega_sb must be >= 0")
        if self.tau <= 0:
            raise ValueError("tau must be > 0")

    @classmethod
    def from_khz(cls, delta_b_khz, delta_r_khz, omega_sb_khz, tau_us):
        return cls(khz(delta_b_khz), khz(delta_r_khz), khz(omega_sb_khz), tau_us)


@dataclass(frozen=True)
class CoolParams:
    """Dissipation stage: red-sideband pulse inside a total window tau_d."""

    omega_c: float  # red-sideband Rabi frequency, rad/us
    tau_c: float    # cooling pulse duration, us
    tau_d: float    # total dissipation-stage duration (pumping + idle), us

    def __post_init__(self):
        if self.omega_c < 0:
            raise ValueError("omega_c must be >= 0")
        if not self.tau_d >= self.tau_c > 0:
            raise ValueError("need tau_d >= tau_c > 0")

    @classmethod
    def from_khz(cls, omega_c_khz, tau_c_us, tau_d_us):
        return cls(khz(omega_c_khz), tau_c_us, tau_d_us)


@dataclass(frozen=True)
class DerivedParams:
    omega_a: float     # spin frequency, rad/us
    omega_f: float     # boson frequency, rad/us
    lam: float         # spin-boson coupling, rad/us
    ratio_r: float     # omega_a / omega_f
    coupling_g: float  # dimensionless coupling


def derive(drive):
    """Map sideband-drive parameters onto the Rabi-model parameters."""
    omega_a = 0.5 * (drive.delta_b + drive.delta_r)
    omega_f = 0.5 * (drive.delta_b - drive.delta_r)
    if omega_f <= 0:
        raise ValueError("delta_b <= delta_r: boson frequency not positive")
    lam = 0.5 * drive.omega_sb
    g = 2.0 * drive.omega_sb / np.sqrt(drive.delta_b**2 - drive.delta_r**2)
    return DerivedParams(omega_a, omega_f, lam, omega_a / omega_f, g)


def omega_sb_for_coupling(g, delta_b, delta_r):
    """Sideband Rabi frequency realizing dimensionless coupling g."""
    return 0.5 * g * np.sqrt(delta_b**2 - delta_r**2)


def _check_hermitian(H, name):
    asym = np.linalg.norm(H - H.conj().T)
    scale = max(np.linalg.norm(H), 1.0)
    if asym > HERMITICITY_REL_TOL * scale:
        raise ValueError(f"{name} not Hermitian: relative asymmetry {asym / scale:.3e}")


def h_qrm(derived, cutoff):
    """Rabi-model drive Hamiltonian on the composite space."""
    a, adag, num = build_boson_ops(cutoff)
    sp, sm, sz, _ = build_spin_ops()
    eye_b = np.eye(cutoff.bdim)
    H = (0.5 * derived.omega_a * tensor(sz, eye_b)
         + derived.omega_f * tensor(np.eye(2), num)
         + derived.lam * tensor(sp + sm, a + adag))
    _check_hermitian(H, "h_qrm")
    return H


def h_red_sideband(omega_c, cutoff):
    """Resonant red-sideband Hamiltonian (Omega_c/2)(a sigma+ + a^dag sigma-)."""
    if omega_c <= 0:
        raise ValueError("omega_c must be > 0")
    a, adag, _ = build_boson_ops(cutoff)
    sp, sm, _, _ = build_spin_ops()
    H = 0.5 * omega_c * (tensor(sp, a) + tensor(sm, adag))
    _check_hermitian(H, "h_red_sideband")
    return H


def h_blue_sideband(omega_probe, cutoff):
    """Blue-sideband probe Hamiltonian (Omega/2)(a^dag sigma+ + a sigma-)."""
    if omega_probe <= 0:
        raise ValueError("omega_probe must be > 0")
    a, adag, _ = build_boson_ops(cutoff)
    sp, sm, _, _ = build_spin_ops()
    H = 0.5 * omega_probe * (tensor(sp, adag) + tensor(sm, a))
    _check_hermitian(H, "h_blue_sideband")
    return H


def frame_shift_diagonal(derived, cutoff):
    """Diagonal of the decoupled Rabi Hamiltonian (omega_a/2) sz + omega_f n,
    the free evolution between drive stages."""
    n = np.arange(cutoff.bdim)
    down = -0.5 * derived.omega_a + derived.omega_f * n
    up = +0.5 * derived.omega_a + derived.omega_f * n
    return np.concatenate([down, up])
