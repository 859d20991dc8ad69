"""iondpt: stroboscopic drive/sideband-cooling simulator for a dissipative
phase transition of the quantum Rabi model on a single trapped ion.

The package is organized around small focused modules:

- fockspace: truncated composite spin-boson Hilbert space and state helpers
- model: parameter derivation, Hamiltonians
- channels: unitary/Lindblad propagation, the cooling channel, noise
- protocol: the repeated drive -> dissipate cycle engine
- probe: blue-sideband population measurement emulation and fitting
- analysis: parameter scans and curve fits
- cli: command-line front end
"""

__version__ = "0.1.0"

from .fockspace import FockCutoff, thermal_state, check_density_matrix
from .model import DriveParams, CoolParams, DerivedParams, derive, khz
from .channels import NoiseParams, CoolingChannel, lindblad_step, unitary_step
from .protocol import (ExperimentConfig, InitialState, Convergence,
                       CutoffPolicy, Trajectory, run, run_cycles,
                       run_to_convergence, SimulationDiverged)
from .probe import measure_nbar, simulate_probe, fit_populations
from .analysis import (g_scan, r_scan, cooling_scan, extrapolate_saturation,
                       fit_exponential_saturation, fit_critical_power_law,
                       fit_loglog_slope, crossover_midpoint)
