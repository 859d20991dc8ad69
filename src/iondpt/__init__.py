"""iondpt: stroboscopic drive/sideband-cooling simulator for a dissipative
phase transition of the quantum Rabi model on a single trapped ion.

The package is organized around small focused modules:

- fockspace: the truncated Fock space and boson-state helpers; its
  composite spin-boson space is for test references only
- model: parameter derivation, Hamiltonians on their two parity sectors
- channels: unitary/Lindblad propagation, the cooling channel, noise
- protocol: the repeated drive -> dissipate cycle engine, run(config)
- probe: blue-sideband population measurement emulation and fitting
- analysis: parameter scans and curve fits
- cli: command-line front end
"""

__version__ = "0.1.0"

from .fockspace import FockCutoff, thermal_state, check_density_matrix
from .model import DriveParams, CoolParams, DerivedParams, derive, khz
from .channels import NoiseParams, CoolingChannel, lindblad_step, unitary_step
from .protocol import (ExperimentConfig, InitialState, Convergence,
                       CutoffPolicy, Trajectory, run, SimulationDiverged)
from .probe import ProbeParams, measure_nbar, simulate_probe, fit_populations
from .analysis import (g_scan, r_scan, cooling_scan, extrapolate_saturation,
                       fit_exponential_saturation, fit_critical_power_law,
                       fit_loglog_slope, crossover_midpoint)
