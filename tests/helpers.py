"""Composite-space helpers that only the tests use."""

import numpy as np

from iondpt import channels as ch
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


def embed_down(rho_m):
    """|down><down| (x) rho_m on the composite space."""
    b = rho_m.shape[0]
    rho = np.zeros((2 * b, 2 * b), dtype=complex)
    rho[:b, :b] = rho_m
    return rho


def p_up(rho):
    """Spin-up population of a composite state."""
    b = rho.shape[0] // 2
    return float(np.real(np.trace(rho[b:, b:])))


def spin_reset(rho):
    """Optical pumping to |down>: rho -> |down><down| (x) Tr_spin(rho)."""
    return embed_down(fs.trace_out_spin(rho))


def composite_split_step(H, jumps, t, rho):
    """The Strang split step on the whole spin (x) boson space: dense 2b
    unitary halves of exp(-iH dt/2) around the Dissipator applied to each
    spin block, in slices of at most SLICE_US.  H need not conserve
    parity; the reference for the parity-chain SplitStepPropagator."""
    n_slices = max(1, int(np.ceil(t / ch.SLICE_US)))
    u = ch.unitary_propagator(H, t / n_slices / 2.0)
    dissipate = ch.Dissipator(jumps, t / n_slices).apply
    for _ in range(n_slices):
        rho = u @ dissipate(u @ rho @ u.conj().T) @ u.conj().T
    return rho
