"""Composite-space helpers that only the tests use: the spin (x) boson
space, its Hamiltonians from Kronecker products, the independent
references for the parity-sector pairs of iondpt.model, and its states;
plus the environment of a test's fresh interpreter."""

import os
from pathlib import Path

import numpy as np

from iondpt import channels as ch
from iondpt import fockspace as fs
from iondpt import protocol
from iondpt.model import check_hermitian


def build_spin_ops():
    """Return (sigma_plus, sigma_minus, sigma_z, projector_down), basis (down, up)."""
    sp = np.array([[0, 0], [1, 0]], dtype=complex)   # |up><down|
    sm = np.array([[0, 1], [0, 0]], dtype=complex)   # |down><up|
    sz = np.diag([-1.0, 1.0]).astype(complex)
    p_down = np.diag([1.0, 0.0]).astype(complex)
    return sp, sm, sz, p_down


def tensor(spin_part, boson_part):
    """Kronecker product with the spin as the slow index."""
    spin_part = np.asarray(spin_part)
    boson_part = np.asarray(boson_part)
    if spin_part.shape != (2, 2):
        raise ValueError(f"spin factor must be 2x2, got {spin_part.shape}")
    if boson_part.ndim != 2 or boson_part.shape[0] != boson_part.shape[1]:
        raise ValueError(f"boson factor must be square, got {boson_part.shape}")
    return np.kron(spin_part, boson_part)


def h_qrm(derived, cutoff):
    """Rabi-model drive Hamiltonian on the composite space."""
    a, adag, num = fs.build_boson_ops(cutoff)
    sp, sm, sz, _ = build_spin_ops()
    eye_b = np.eye(cutoff.bdim)
    H = (0.5 * derived.omega_a * tensor(sz, eye_b)
         + derived.omega_f * tensor(np.eye(2), num)
         + derived.lam * tensor(sp + sm, a + adag))
    check_hermitian(H, "h_qrm")
    return H


def h_red_sideband(omega_c, cutoff):
    """Resonant red-sideband Hamiltonian (Omega_c/2)(a sigma+ + a^dag sigma-)."""
    a, adag, _ = fs.build_boson_ops(cutoff)
    sp, sm, _, _ = build_spin_ops()
    H = 0.5 * omega_c * (tensor(sp, a) + tensor(sm, adag))
    check_hermitian(H, "h_red_sideband")
    return H


def h_blue_sideband(omega_probe, cutoff):
    """Blue-sideband probe Hamiltonian (Omega/2)(a^dag sigma+ + a sigma-)."""
    a, adag, _ = fs.build_boson_ops(cutoff)
    sp, sm, _, _ = build_spin_ops()
    H = 0.5 * omega_probe * (tensor(sp, adag) + tensor(sm, a))
    check_hermitian(H, "h_blue_sideband")
    return H


def frame_shift_diagonal(derived, cutoff):
    """Diagonal of the decoupled Rabi Hamiltonian (omega_a/2) sz + omega_f n,
    the free evolution between drive stages."""
    n = np.arange(cutoff.bdim)
    down = -0.5 * derived.omega_a + derived.omega_f * n
    up = +0.5 * derived.omega_a + derived.omega_f * n
    return np.concatenate([down, up])


def number_full(cutoff):
    """a^dag a on the composite space."""
    _, _, num = fs.build_boson_ops(cutoff)
    return tensor(np.eye(2), num)


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


def on_parity_blocks(apply):
    """A map on the parity blocks of rho_m (fockspace.to_blocks) as a map
    on rho_m: split, apply, reassemble.  A (state, p_up) result keeps its
    p_up.  The split drops odd offsets."""
    def mapped(rho_m):
        out = apply(fs.to_blocks(rho_m))
        if isinstance(out, tuple):
            return (fs.from_blocks(out[0]),) + out[1:]
        return fs.from_blocks(out)
    return mapped


def on_spin_blocks(apply):
    """I (x) D on the spin (x) boson space for a boson map apply = D: D on
    each b x b spin block of the state."""
    def mapped(rho):
        b = rho.shape[0] // 2
        return np.block([[apply(rho[i * b:(i + 1) * b, j * b:(j + 1) * b])
                          for j in (0, 1)] for i in (0, 1)])
    return mapped


def composite_split_step(H, jumps, t, rho):
    """The two-node split step on the whole spin (x) boson space: in
    slices dt of at most SLICE_US, dense 2b unitaries of exp(-iH x dt)
    for x = x1, x2 - x1, 1 - x2 around the Dissipator over dt/2 on each
    spin block, at the GAUSS_NODES x1, x2, nothing merged.  H need not
    conserve parity; the reference for the parity-chain
    SplitStepPropagator."""
    n_slices = max(1, int(np.ceil(t / ch.SLICE_US)))
    dt = t / n_slices
    x1, x2 = ch.GAUSS_NODES
    edge, mid, last = (ch.unitary_propagator(H, x * dt)
                       for x in (x1, x2 - x1, 1 - x2))
    dissipate = on_spin_blocks(ch.Dissipator(jumps, dt / 2).apply)
    for _ in range(n_slices):
        rho = dissipate(edge @ rho @ edge.conj().T)
        rho = dissipate(mid @ rho @ mid.conj().T)
        rho = last @ rho @ last.conj().T
    return rho


def validated_cycles(config):
    """(run(config), nbar per cycle) with the run's cycles stepped again
    through its own stages at the cutoff it accepted, checking the state
    after every drive and every cooling stage (StateValidityError)."""
    traj = protocol.run(config)
    cutoff = fs.FockCutoff(traj.n_max)
    drive = protocol._drive_map(config, cutoff)
    cooling = protocol._cooling_stage(config.cool, cutoff, config.noise,
                                      config.channel_mode)
    state = protocol.prepare_initial(config, cutoff)
    levels = np.arange(cutoff.bdim, dtype=complex)
    nbar = []
    with protocol.one_blas_thread():
        for _ in range(traj.cycles_run):
            state = drive(state)
            fs.check_density_matrix(fs.from_blocks(state))
            state, _ = cooling.apply(state)
            fs.check_density_matrix(fs.from_blocks(state))
            nbar.append(fs.expectation(fs.populations(state), levels))
    return traj, np.array(nbar)


def subprocess_env(**variables):
    """os.environ plus variables, with the src/ that iondpt is imported from
    first on PYTHONPATH, for a fresh interpreter that imports iondpt."""
    src = str(Path(ch.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **variables)
