"""Stroboscopic experiment engine, entered through run(config): drive ->
dissipate cycles on the boson state, convergence detection, adaptive cutoff
escalation.

Every cycle ends with the spin optically pumped to |down>, so one cycle is a
fixed CPTP map on the boson density matrix rho_m: the drive, which ends with
the free evolution of the cooling window, then the cooling stage, which does
not depend on the drive, so that the points of a scan can share it.  Every
stage is phase-covariant, so rho_m has no odd offsets: the state carried
from cycle to cycle is its parity blocks (fockspace.to_blocks).
"""

import functools

import numpy as np
from dataclasses import dataclass, field, replace

from . import fockspace as fs
from .fockspace import FockCutoff
from .model import (DriveParams, CoolParams, derive, h_qrm,
                    omega_sb_for_coupling)
# unitary_propagator is not called here: the benchmark's tracer wraps it
from .channels import (CHANNEL_MODES, NoiseParams, CoolingChannel,
                       drive_stage, make_noise_jumps, unitary_propagator)


class SimulationDiverged(RuntimeError):
    """Cutoff escalation hit the hard ceiling (diverging phonon number)."""


@dataclass(frozen=True)
class InitialState:
    kind: str = "thermal"   # "thermal" (Doppler) or "ground"
    nbar: float = 5.0

    def __post_init__(self):
        if self.kind not in ("thermal", "ground"):
            raise ValueError(f"unknown initial state kind {self.kind!r}")
        if self.nbar < 0:
            raise ValueError("nbar must be >= 0")


@dataclass(frozen=True)
class Convergence:
    mode: str = "fixed"     # "fixed" or "tolerance"
    tol: float = 0.05       # phonons, max-min over the trailing window
    window: int = 20

    def __post_init__(self):
        if self.mode not in ("fixed", "tolerance"):
            raise ValueError(f"unknown convergence mode {self.mode!r}")
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.window < 2:
            raise ValueError("window must be >= 2")


@dataclass(frozen=True)
class CutoffPolicy:
    """Adaptive Fock-cutoff policy.

    eps bounds the accepted population in the top two boson levels; it does
    not bound the bias in <a^dag a>.  The exact cooling channel has a
    vanishing cooling rate near n ~ (2pi/(Omega_c tau_c))^2, which parks a
    fat tail at high n: at R = 25, g = 2.2 the default accepts n_max 68,
    and the next cutoff moves nbar by 0.475 phonons.  Tighten for
    high-precision studies.
    """

    n_max: int = 30         # initial cutoff
    eps: float = 5e-4       # accepted truncation tail mass near the boundary
    growth: float = 1.5
    ceiling: int = 600

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not self.eps > 0:
            raise ValueError("eps must be > 0")
        if not self.growth > 1:
            raise ValueError("growth must be > 1")
        if self.ceiling < self.n_max:
            raise ValueError(f"ceiling must be >= n_max, got {self.ceiling} "
                             f"< {self.n_max}")


@dataclass(frozen=True)
class ExperimentConfig:
    drive: DriveParams
    cool: CoolParams
    noise: NoiseParams = field(default_factory=NoiseParams)
    initial: InitialState = field(default_factory=InitialState)
    channel_mode: str = "exact"    # one of CHANNEL_MODES
    max_cycles: int = 200
    convergence: Convergence = field(default_factory=Convergence)
    cutoff: CutoffPolicy = field(default_factory=CutoffPolicy)
    jitter_sigma: float = 0.0      # per-run Gaussian sigma on delta_b, delta_r (rad/us)
    seed: int = 0
    debug_validate: bool = False

    def __post_init__(self):
        if self.max_cycles < 1:
            raise ValueError("max_cycles must be >= 1")
        if self.channel_mode not in CHANNEL_MODES:
            raise ValueError(f"unknown channel mode {self.channel_mode!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class Trajectory:
    cycle: np.ndarray       # 1..cycles_run
    nbar: np.ndarray        # <a^dag a> after each cycle
    p_up: np.ndarray        # spin-up population before the second pump
    t_us: np.ndarray        # cycle * (tau + tau_d): time at the end of each cycle
    n_max: int              # the cutoff every kept cycle ran at
    window: int             # the run's convergence window
    final_state: np.ndarray  # rho_m after the last cycle (spin pumped to |down>)
    converged: bool
    cycles_run: int

    def steady_nbar(self):
        """Mean phonon number over the trailing convergence window."""
        return float(np.mean(self.nbar[-self.window:]))


def prepare_initial(config, cutoff):
    """Parity blocks of the initial boson state (thermal or ground); the
    spin starts in |down>."""
    nbar = config.initial.nbar if config.initial.kind == "thermal" else 0.0
    return fs.to_blocks(fs.thermal_state(nbar, cutoff, eps=config.cutoff.eps))


def _jittered_drive(config):
    if config.jitter_sigma <= 0:
        return config.drive
    rng = np.random.default_rng(config.seed)
    d = config.drive
    return DriveParams(d.delta_b + rng.normal(0, config.jitter_sigma),
                       d.delta_r + rng.normal(0, config.jitter_sigma),
                       d.omega_sb, d.tau)


@functools.lru_cache(maxsize=1)
def _cooling_stage(cool, cutoff, noise, mode):
    """The last run's cooling stage, kept for the next: a scan's points
    differ only in the drive.  A point that escalates its cutoff evicts it."""
    return CoolingChannel(cool, cutoff, noise=noise, mode=mode)


def _run_at_cutoff(config, drive, cutoff):
    """The run at this cutoff, or None once the tail of the top two boson
    levels exceeds eps, on the initial state or after any cycle."""
    k_check = cutoff.n_max - 1   # top two boson levels
    try:
        state = prepare_initial(config, cutoff)
    except ValueError:
        return None   # thermal tail beyond eps
    if fs.tail_mass(fs.populations(state), k_check) > config.cutoff.eps:
        return None
    derived = derive(drive)
    # free evolution; H0's constant -omega_a/2 on |down, n> cancels in rho_m
    free = np.exp(-1j * derived.omega_f * np.arange(cutoff.bdim)
                  * config.cool.tau_d)
    drive_map = drive_stage(h_qrm(derived, cutoff), drive.tau, free,
                            make_noise_jumps(config.noise, cutoff))
    cooling = _cooling_stage(config.cool, cutoff, config.noise,
                             config.channel_mode)
    levels = np.arange(cutoff.bdim, dtype=complex)   # no cast per cycle

    nbar = np.empty(config.max_cycles)
    pups = np.empty(config.max_cycles)
    converged = False
    conv = config.convergence
    tolerance = conv.mode == "tolerance"
    for i in range(config.max_cycles):
        state, pups[i] = cooling.apply(drive_map(state))
        pops = fs.populations(state)
        if fs.tail_mass(pops, k_check) > config.cutoff.eps:
            _cooling_stage.cache_clear()   # free it before the next rung's
            return None
        if config.debug_validate:
            fs.check_density_matrix(fs.from_blocks(state))
        nbar[i] = fs.expectation(pops, levels)
        if tolerance and i + 1 >= conv.window:
            tail = nbar[i + 1 - conv.window:i + 1]
            if tail.max() - tail.min() < conv.tol:
                converged = True
                break

    n = i + 1
    cycle = np.arange(1, n + 1)
    return Trajectory(cycle=cycle, nbar=nbar[:n], p_up=pups[:n],
                      t_us=cycle * (drive.tau + config.cool.tau_d),
                      n_max=cutoff.n_max, window=conv.window,
                      final_state=fs.from_blocks(state), converged=converged,
                      cycles_run=n)


def run(config):
    """Run config.max_cycles cycles; in tolerance mode, stop once the
    trailing-window spread of <a^dag a> drops below tol.

    A truncation tail above eps restarts the run from cycle 0 at a larger
    cutoff.  Non-convergence within max_cycles is reported via
    Trajectory.converged, not raised.
    """
    drive = _jittered_drive(config)
    policy = config.cutoff
    n_max = policy.n_max
    while (traj := _run_at_cutoff(config, drive, FockCutoff(n_max))) is None:
        if n_max >= policy.ceiling:
            raise SimulationDiverged(
                f"diverging phonon number: cutoff ceiling {policy.ceiling} "
                "reached with truncation tail above eps")
        n_max = min(int(np.ceil(n_max * policy.growth)), policy.ceiling)
    return traj


def config_with_coupling(config, g):
    """Copy of config with omega_sb set to realize dimensionless coupling g."""
    d = config.drive
    omega_sb = omega_sb_for_coupling(g, d.delta_b, d.delta_r)
    return replace(config, drive=replace(d, omega_sb=omega_sb))


def config_with_ratio(config, ratio, g=None):
    """Copy of config with delta_b + delta_r rescaled to the given ratio R,
    keeping delta_b - delta_r fixed; omega_sb re-derived from g if given."""
    d = config.drive
    diff = d.delta_b - d.delta_r
    total = ratio * diff
    delta_b = 0.5 * (total + diff)
    delta_r = 0.5 * (total - diff)
    omega_sb = d.omega_sb if g is None else omega_sb_for_coupling(g, delta_b, delta_r)
    return replace(config, drive=replace(d, delta_b=delta_b, delta_r=delta_r,
                                         omega_sb=omega_sb))
