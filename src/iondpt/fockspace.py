"""Truncated Fock space: the cutoff, boson operators and states.

All operators and states are dense complex numpy arrays.  The simulation
carries the boson density matrix rho_m, free of odd offsets, as its parity
blocks (to_blocks).  The composite qubit (x) Fock space, ordered
|s> (x) |n> with the spin as the slow index and spin down at index 0 (flat
index s*(n_max+1) + n), is for test references only.
"""

import functools
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
    val = complex((rho * obs.T).sum())
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


def to_blocks(rho_m):
    """The parity blocks of a boson density matrix without odd offsets, one
    (b, ceil(b/2)) array that stacks rho_m[0::2, 0::2] above
    rho_m[1::2, 1::2] (see blocks).  Its zero padding, one column of the
    odd-level rows when b is odd, is never read."""
    b = rho_m.shape[0]
    state = np.zeros((b, (b + 1) // 2), dtype=complex)
    even, odd = blocks(state)
    even[:], odd[:] = rho_m[::2, ::2], rho_m[1::2, 1::2]
    return state


def blocks(state):
    """Views of the even-level and odd-level blocks of the parity blocks."""
    b, h = state.shape
    return state[:h], state[h:, :b - h]


def from_blocks(state):
    """The boson density matrix of its parity blocks (see to_blocks)."""
    rho_m = np.zeros((len(state),) * 2, dtype=complex)
    rho_m[::2, ::2], rho_m[1::2, 1::2] = blocks(state)
    return rho_m


@functools.lru_cache(maxsize=8)
def _diagonal(b, h):
    """Flat indices of levels 0..b-1 in (b, h) parity blocks."""
    return np.arange(b) // 2 * (h + 1) + np.arange(b) % 2 * h * h


def populations(state):
    """Diagonal of the parity blocks in level order, complex."""
    return state.take(_diagonal(*state.shape))


def tail_mass(pops, k):
    """Population in Fock indices >= k, from the diagonal of rho_m."""
    return float(pops[k:].real.sum())


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

