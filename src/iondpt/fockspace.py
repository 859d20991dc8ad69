"""Truncated Fock space: the cutoff, boson operators and states.

All operators and states are dense complex numpy arrays.  The state the
simulation carries is the boson density matrix rho_m.  The composite
qubit (x) Fock space, ordered |s> (x) |n> with the spin as the slow index
and spin down at index 0 (flat index s*(n_max+1) + n), is for test
references only.
"""

import numpy as np
from dataclasses import dataclass

# Validity bounds for density matrices.
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-9
POSITIVITY_TOL = -1e-8
IMAG_RESIDUE_TOL = 1e-9


class StateValidityError(ValueError):
    """A density matrix violated Hermiticity, trace or positivity bounds."""


@dataclass(frozen=True)
class FockCutoff:
    """Highest retained Fock index; boson dimension is n_max + 1."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def bdim(self):
        return self.n_max + 1

    @property
    def dim(self):
        return 2 * (self.n_max + 1)


def build_boson_ops(cutoff):
    """Return (annihilation, creation, number) on the truncated boson space."""
    b = cutoff.bdim
    a = np.zeros((b, b), dtype=complex)
    for n in range(1, b):
        a[n - 1, n] = np.sqrt(n)
    adag = a.conj().T
    num = adag @ a
    return a, adag, num


def expectation(rho, obs):
    """Tr(rho obs) for Hermitian obs; raises on large imaginary residue."""
    val = np.sum(rho * obs.T)
    if abs(val.imag) > IMAG_RESIDUE_TOL * max(1.0, abs(val.real)):
        raise StateValidityError(
            f"expectation has imaginary residue {val.imag:.3e}; state corrupted?")
    return val.real


def trace_out_spin(rho):
    """Partial trace over the qubit, returning the boson density matrix."""
    b = rho.shape[0] // 2
    return rho[:b, :b] + rho[b:, b:]


def thermal_state(nbar, cutoff, eps=1e-6):
    """Truncated thermal boson state with mean occupation nbar."""
    if nbar < 0:
        raise ValueError("nbar must be >= 0")
    b = cutoff.bdim
    if nbar == 0:
        p = np.zeros(b)
        p[0] = 1.0
    else:
        q = nbar / (nbar + 1.0)
        tail = q ** b  # untruncated mass beyond the cutoff
        if tail > eps:
            raise ValueError(
                f"thermal(nbar={nbar}) tail mass {tail:.2e} exceeds eps={eps} "
                f"at n_max={cutoff.n_max}")
        p = (1 - q) * q ** np.arange(b)
        p = p / p.sum()
    return np.diag(p).astype(complex)


def tail_mass(rho_m, k):
    """Population of a boson density matrix in Fock indices >= k."""
    return float(np.real(np.diag(rho_m))[k:].sum())


def check_density_matrix(rho):
    """Raise StateValidityError unless rho is a valid density matrix."""
    herm = np.linalg.norm(rho - rho.conj().T)
    if herm > HERMITICITY_TOL:
        raise StateValidityError(f"Hermiticity violated: |rho-rho^dag|_F = {herm:.3e}")
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise StateValidityError(f"trace deviates from 1 by {abs(tr - 1.0):.3e}")
    wmin = np.linalg.eigvalsh(rho)[0]
    if wmin < POSITIVITY_TOL:
        raise StateValidityError(f"negative eigenvalue {wmin:.3e}")

