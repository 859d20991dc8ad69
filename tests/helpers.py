"""Composite-space helpers that only the tests use."""

import numpy as np

from iondpt import fockspace as fs


def number_full(cutoff):
    """a^dag a on the composite space."""
    _, _, num = fs.build_boson_ops(cutoff)
    return fs.tensor(np.eye(2), num)


def ket(cutoff, spin, n):
    """Basis ket |spin, n> as a flat vector; spin 0 is down."""
    if spin not in (0, 1):
        raise ValueError("spin index must be 0 (down) or 1 (up)")
    if not 0 <= n <= cutoff.n_max:
        raise ValueError(f"Fock index {n} outside cutoff {cutoff.n_max}")
    v = np.zeros(cutoff.dim, dtype=complex)
    v[spin * cutoff.bdim + n] = 1.0
    return v


def projector(cutoff, spin, n):
    v = ket(cutoff, spin, n)
    return np.outer(v, v.conj())


def is_valid_density_matrix(rho):
    try:
        fs.check_density_matrix(rho)
    except fs.StateValidityError:
        return False
    return True


def spin_reset(rho):
    """Optical pumping to |down>: rho -> |down><down| (x) Tr_spin(rho)."""
    return fs.embed_down(fs.trace_out_spin(rho))
