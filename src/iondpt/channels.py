"""State-evolution primitives: propagators, the exact dissipator of the
phase-covariant boson jumps (cooling, heating, dephasing, recoil), noise,
and the cycle's two stage maps on the boson state: the drive and the
sideband cooling (exact and linearized).  lindblad_step is the exact
Lindblad flow of any H and jumps, expm_multiply on the sparse
superoperator (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), the
reference the other maps are tested against.

Jump operators carry units of 1/sqrt(us); Hamiltonians rad/us.
"""

import functools

import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass

from .fockspace import (blocks, build_boson_ops, from_blocks, populations,
                        to_blocks)
# not called here: the benchmark tracer (perfbench/spans.py) wraps this name
from .fockspace import trace_out_spin
from .model import h_red_sideband, check_hermitian, per_second

# Longest slice of SplitStepPropagator.  Its splitting error in the
# steady-state nbar at R = 50, g = 1.5 with heating 50/s, dephasing 200/s
# and recoil is 1.4e-7 against 0.05 us slices.
SLICE_US = 2.0

# Gauss-Legendre nodes on [0, 1] at which SplitStepPropagator applies the
# dissipator within a slice
GAUSS_NODES = (0.5 - 3 ** 0.5 / 6, 0.5 + 3 ** 0.5 / 6)

# Effective recoil coefficient for a 171Yb+ pump photon at 369.5 nm and a
# 2pi x 2.35 MHz motional mode, shared over three modes:
#   hbar k^2 / (2 m omega_m) / 3
# with k = 2pi/369.5nm, m = 171 u.  Phonons per (absorbed photon number)^2.
RECOIL_DN = 1.212e-3
PHOTONS_PER_PUMP = 3   # N_p, pump photons per spin returned to |down>
THERMAL_NTH = 1e5      # heating-bath occupancy: splits heating into a^dag, a

# CoolingChannel pulse kinds: the exact sideband pulse or the linearized
# amplitude-damping channel
CHANNEL_MODES = ("exact", "lindblad")


class IntegrationError(RuntimeError):
    """Unstable time integration.  Nothing in iondpt raises it, since
    lindblad_step is exact; the name stays because callers such as
    perfbench/worker.py catch it."""


@dataclass(frozen=True)
class NoiseParams:
    """The noise section: decoherence rates in 1/us, recoil kick on/off."""

    heating_rate: float = 0.0      # gamma * n_th product
    dephasing_rate: float = 0.0    # Gamma_m
    recoil_enabled: bool = False

    def __post_init__(self):
        if min(self.heating_rate, self.dephasing_rate) < 0:
            raise ValueError("noise rates must be >= 0")
        if not isinstance(self.recoil_enabled, bool):
            raise ValueError(f"recoil: expected true/false, "
                             f"got {self.recoil_enabled!r}")

    @property
    def any_decoherence(self):
        return self.heating_rate > 0 or self.dephasing_rate > 0

    @classmethod
    def from_per_second(cls, heating_per_s=0.0, dephasing_per_s=0.0,
                        recoil=False):
        """From the noise: keys, under their config names."""
        return cls(per_second(heating_per_s), per_second(dephasing_per_s),
                   recoil)


def make_noise_jumps(noise, cutoff):
    """Heating, cooling-counterpart and dephasing jump operators (boson space)."""
    if not noise.any_decoherence:
        return []
    a, adag, num = build_boson_ops(cutoff)
    jumps = []
    if noise.heating_rate > 0:
        gamma = noise.heating_rate / THERMAL_NTH
        jumps.append(np.sqrt(noise.heating_rate) * adag)
        jumps.append(np.sqrt(gamma * (THERMAL_NTH + 1)) * a)
    if noise.dephasing_rate > 0:
        jumps.append(np.sqrt(2 * noise.dephasing_rate) * num)
    return jumps


def unitary_propagator(H, t):
    """exp(-i H t) by eigendecomposition of a Hermitian H."""
    check_hermitian(H, "unitary_propagator H")
    w, v = np.linalg.eigh(H)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def lindblad_step(rho, H, jumps, t):
    """Exact Lindblad flow drho/dt = -i[H, rho] + sum_k D[L_k]rho over t.

    With row-major vec and K = -iH - (1/2) sum L^dag L, the generator on
    vec(rho) is kron(K, I) + kron(I, conj K) + sum kron(L, conj L), and
    expm_multiply applies its exponential.  H may be None and jumps empty.
    The norm estimates of expm_multiply draw from numpy's global random
    state; the caller's state is restored afterwards.
    """
    from scipy.sparse.linalg import expm_multiply
    if t < 0:
        raise ValueError("t must be >= 0")
    dim = rho.shape[0]
    K = sp.csr_matrix((dim, dim), dtype=complex)
    if H is not None:
        check_hermitian(H, "lindblad_step H")
        K = -1j * sp.csr_matrix(H)
    gen = sp.csr_matrix((dim * dim, dim * dim), dtype=complex)
    for L in map(sp.csr_matrix, jumps):
        K = K - 0.5 * (L.conj().T @ L)
        gen = gen + sp.kron(L, L.conj())
    eye = sp.identity(dim, format="csr")
    gen = gen + sp.kron(K, eye) + sp.kron(eye, K.conj())
    rng_state = np.random.get_state()
    try:
        return expm_multiply(t * gen, rho.reshape(-1)).reshape(rho.shape)
    finally:
        np.random.set_state(rng_state)


def _offset_generators(jumps):
    """Generators G[k] of the Lindblad flow sum_j D[L_j] on the offset
    diagonals x_k[m] = rho[m, m+k] and rho[m+k, m] of a boson matrix, one
    real (b-k)-square block per offset k = 0..b-1.

    Each jump must be real and single-diagonal, L|n> = c[n] |n + s> (a,
    a^dag, n): phase-covariant, so dx_k/dt = G[k] x_k."""
    b = jumps[0].shape[0]
    k, m = np.indices((b, b))   # offset k, position m on it
    on = m + k < b
    gen = np.zeros((b, b, b))
    loss = np.zeros(b)          # diagonal of sum_j L_j^dag L_j
    for L in jumps:
        rows, cols = np.nonzero(L)
        if rows.size == 0:
            continue
        shift = rows[0] - cols[0]
        if np.any(rows - cols != shift) or np.any(np.imag(L[rows, cols])):
            raise ValueError("a dissipator jump must be real and "
                             "single-diagonal (phase-covariant)")
        c = np.zeros(b)
        c[cols] = np.real(L[rows, cols])
        loss += c**2
        src = m - shift          # the element that L rho L^dag moves to (m, m+k)
        ok = on & (src >= 0) & (src + k < b)
        gen[k[ok], m[ok], src[ok]] += c[src[ok]] * c[src[ok] + k[ok]]
    gen[k[on], m[on], m[on]] -= 0.5 * (loss[m[on]] + loss[(m + k)[on]])
    return [g[:b - k, :b - k] for k, g in enumerate(gen)]


def _offset_exponentials(jumps, t, ks):
    """{k: exp(t G[k])} of the _offset_generators blocks for the offsets ks,
    with the negligible entries set to 0: their products underflow into
    subnormal numbers, whose arithmetic is several times slower, and at
    n_max 153 dropping them moves no table entry by 1e-146."""
    from scipy.linalg import expm
    gens = _offset_generators(jumps)
    exp = (expm(t * gens[k]) for k in ks)
    return {k: np.where(np.abs(e) < 1e-150, 0.0, e) for k, e in zip(ks, exp)}


def sector_propagators(H, t):
    """exp(-i H t) on the two parity sectors of a model Hamiltonian H = (d, e),
    (2, b, b), or (len(t), 2, b, b) for an array of times t: one
    eigh_tridiagonal per sector."""
    from scipy.linalg import eigh_tridiagonal
    t = np.asarray(t)[..., None, None]
    eigs = [eigh_tridiagonal(d, e) for d, e in zip(*H)]
    return np.stack([(v * np.exp(-1j * w * t)) @ v.T for w, v in eigs], -3)


def _fold_groups(b, ks):
    """The offsets ks packed into groups of b rows, ((k, start), ...) per
    group: offset k fills the b - k rows from start.  Each group takes the
    longest offset left, then the longest left that still fits, and so on.
    Over every offset this pairs k with b - k, and at even b leaves offset
    b/2 alone in half a group."""
    left, groups = sorted(ks), []   # ascending k: the longest first
    while left:
        room, group = b, []
        for k in list(left):
            if b - k <= room:
                group.append((k, b - room))
                room -= b - k
                left.remove(k)
        groups.append(tuple(group))
    return tuple(groups)


@functools.lru_cache(maxsize=8)
def _offset_layout(shape, b):
    """Flat indices into the float view of a state of this shape that
    gather its offset diagonals into the real folded layout [g, r, c], and
    back; and the groups of _fold_groups.

    Row r of group g holds position r - start of the group's offset k that
    covers it, so one b x b block-diagonal table per group (_fold) maps
    every offset it holds.  A row that no offset covers reads element 0:
    every folded table is zero in that row and column.  The state is the
    parity blocks of rho_m (fockspace.to_blocks), whose offsets are the even
    ones, or a stack of b x b blocks whose block index advances with the
    position m: rho_m is one block, and the (2, b, b) parity sectors of
    SplitStepPropagator are two, where spin s at boson m sits in sector
    (s + m) % 2.  c runs over sides, blocks and real and imaginary parts.
    """
    size = int(np.prod(shape))
    if shape == (b, (b + 1) // 2):
        # pos[0, i, j] indexes rho_m[i, j] in the blocks, for even i - j
        ks = range(0, b, 2)
        pos = from_blocks(np.arange(size).reshape(shape)).real.astype(int)[None]
    elif shape[-2:] == (b, b):
        ks, pos = range(b), np.arange(size).reshape(-1, b, b)
    else:
        raise ValueError(f"expected parity blocks or a stack of {b} x {b} "
                         f"blocks, got {shape}")
    groups = _fold_groups(b, ks)
    k, m = np.zeros((2, len(groups), b), dtype=int)
    on = np.zeros((len(groups), b), dtype=bool)
    for g, group in enumerate(groups):
        for kg, start in group:
            rows = slice(start, start + b - kg)
            k[g, rows], m[g, rows], on[g, rows] = kg, np.arange(b - kg), True
    ids = 2 * pos[..., None] + np.arange(2)
    blk = (np.arange(len(ids))[:, None, None] + m) % len(ids)
    gather = np.stack([ids[blk, m, m + k], ids[blk, m + k, m]])
    gather = gather.transpose(2, 3, 0, 1, 4)   # [g, r, side, block, re/im]
    gather = np.where(on[..., None], gather.reshape(on.shape + (-1,)), 0)
    out = np.arange(gather.size).reshape(gather.shape)
    scatter = np.full(2 * size, -1)
    scatter[gather[on]] = out[on]
    # the padding column of odd-b parity blocks, which no offset covers,
    # reads the zero output of a row that no offset covers
    scatter[scatter < 0] = out[~on].ravel()[:1]
    return gather, scatter, groups


def _fold(blocks, shape):
    """The per-offset blocks of a map, blocks[k] (b-k)-square, or (b-k)
    vectors of a diagonal, on the block diagonals of one (G, b, b), or
    (G, b), table for the G groups of a state of this shape (_offset_layout).
    The product of two tables is the table of the blocks' products."""
    b, ndim = len(blocks[0]), blocks[0].ndim
    groups = _offset_layout(shape, b)[2]
    table = np.zeros((len(groups),) + (b,) * ndim)
    for g, group in enumerate(groups):
        for k, start in group:
            table[(g,) + (slice(start, start + b - k),) * ndim] = blocks[k]
    return table


def _on_offset_diagonals(rho, b, step):
    """Map the offset diagonals of rho by step(x), which takes and returns
    the real folded array [g, r, c] of _offset_layout."""
    gather, scatter, _ = _offset_layout(rho.shape, b)
    flat = np.asarray(rho, dtype=complex).reshape(-1).view(float)
    y = step(flat.take(gather))
    return y.take(scatter).view(complex).reshape(rho.shape)


def apply_offsets(table, rho):
    """x_k -> table_k @ x_k on both sides of every offset diagonal x_k of
    rho, for a real table folded for rho's layout (_fold)."""
    return _on_offset_diagonals(rho, table.shape[-1], lambda x: table @ x)


class Dissipator:
    """Exact Lindblad flow of phase-covariant boson jumps over a time t.

    blocks[k] = exp(t G[k]) of each _offset_generators block is computed
    once; apply maps either state layout of _offset_layout, by the blocks
    folded for that layout on its first use.
    """

    def __init__(self, jumps, t):
        self.blocks = _offset_exponentials(jumps, t, range(len(jumps[0])))
        self._tables = {}

    def apply(self, rho):
        table = self._tables.get(rho.shape)
        if table is None:
            table = self._tables[rho.shape] = _fold(self.blocks, rho.shape)
        return apply_offsets(table, rho)


def _saba2_slices(t):
    """(n_slices, dt, times) of the two-node split over t: slices dt of at
    most SLICE_US, and the times x1 dt, (x2 - x1) dt and 2 x1 dt of its
    edge, middle and merged unitaries, x1 < x2 the GAUSS_NODES."""
    if t < 0:
        raise ValueError("t must be >= 0")
    n_slices = max(1, int(np.ceil(t / SLICE_US)))
    dt = t / n_slices
    x1, x2 = GAUSS_NODES
    return n_slices, dt, (x1 * dt, (x2 - x1) * dt, 2 * x1 * dt)


def _saba2(state, n_slices, unitary, dissipate):
    """The sequence U((1 - x2) dt) D U((x2 - x1) dt) D U(x1 dt) per slice,
    outer unitaries merged between slices: unitary(state, j) applies the
    unitary over times[j] of _saba2_slices, dissipate the Dissipator over
    dt/2."""
    state = unitary(state, 0)
    for i in range(n_slices):
        state = dissipate(unitary(dissipate(state), 1))
        state = unitary(state, 2 if i + 1 < n_slices else 0)
    return state


class SplitStepPropagator:
    """Split propagator for a model Hamiltonian H = (d, e) on the parity
    sectors plus phase-covariant boson jumps: slices of at most SLICE_US,
    each the two-node scheme SABA_2 (Laskar & Robutel, Celest. Mech. Dyn.
    Astron. 80, 39 (2001)), the exact Dissipator D(dt/2) at the Gauss-
    Legendre nodes x1 < x2 of GAUSS_NODES between exact unitaries:
    U((1 - x2) dt) D U((x2 - x1) dt) D U(x1 dt), with the outer unitaries
    merged between slices.  For jumps of strength eps its error is
    O(eps dt^4 + eps^2 dt^2), and every weight is positive, so every
    sub-step is CPTP.  apply maps the parity blocks of the pumped
    rho_m: |down, n> sits in sector n % 2 and |up, n> in the other, so
    block p fills the spin-down positions of sector p.
    """

    def __init__(self, H, jumps, t):
        self.n_slices, dt, times = _saba2_slices(t)
        self._unitaries = [(u, u.conj().swapaxes(1, 2))
                           for u in sector_propagators(H, times)]
        self._dissipate = Dissipator(jumps, dt / 2).apply

    def _unitary(self, out, j):
        u, u_h = self._unitaries[j]
        return u @ out @ u_h

    def apply(self, state):
        """(state, p_up) after the step from |down><down| (x) rho_m, for
        rho_m and the output as parity blocks."""
        out = np.zeros((2,) + (len(state),) * 2, dtype=complex)
        out[0, ::2, ::2], out[1, 1::2, 1::2] = blocks(state)
        out = _saba2(out, self.n_slices, self._unitary, self._dissipate)
        pup = np.trace(out[0, 1::2, 1::2]) + np.trace(out[1, ::2, ::2])
        # an odd offset of a sector couples |down> to |up> and traces out
        return to_blocks(out[0] + out[1]), float(pup.real)


def drive_stage(H, tau, free, jumps):
    """The cycle's drive stage, a map on the parity blocks of the pumped
    rho_m: the model Hamiltonian H = (d, e) for tau, with the noise jumps
    by SplitStepPropagator, then the free evolution P of the cooling window,
    free[n] = exp(-i omega_f n tau_d) per boson level n."""
    if jumps:
        prop = SplitStepPropagator(H, jumps, tau)
        phases = to_blocks(np.outer(free, free.conj()))
        return lambda state: prop.apply(state)[0] * phases
    # rho_m -> P Tr_spin U (|down><down| (x) rho_m) U^dag P^dag per parity
    # sector.  |down, n> sits in sector n % 2, so block p maps through the
    # columns U[p][:, p::2], whose rows of parity r land in block r after
    # the spin trace: w holds them, even rows on top, the odd ones
    # zero-padded to h.
    b, h = len(free), (len(free) + 1) // 2
    U = sector_propagators(H, tau)
    rows = np.r_[0:b:2, 1:b:2]
    w = np.zeros((2 * h, b), dtype=complex)
    w[:b] = free[rows, None] * np.hstack([U[0][rows, 0::2], U[1][rows, 1::2]])
    w_even, w_odd = w[:, :h], w[:, h:]
    # w_h[r] = the columns of w^dag that fill output block r
    w_h = w.conj().reshape(2, h, b).swapaxes(1, 2).copy()

    def drive(state):
        t = np.empty((2 * h, b), dtype=complex)
        np.matmul(w_even, state[:h], out=t[:, :h])
        np.matmul(w_odd, state[h:, :b - h], out=t[:, h:])
        return np.matmul(t.reshape(2, h, b), w_h).reshape(2 * h, h)[:b]

    return drive


def pulse_table(omega_c, tau_c, jumps, cutoff):
    """Real weights (table, up) of the noisy exact cooling pulse and the
    pump: the SplitStepPropagator sequence of h_red_sideband and the jumps
    over tau_c, composed per even offset and folded for the parity blocks,
    so that the pulse maps them by apply_offsets(table, .) with
    p_up = up @ populations.

    The sideband rotates |down, i> into |up, i-1>, so on offset k it mixes
    the four components of M_i = [[<d,i|.|d,i+k>, <d,i|.|u,i+k-1>],
    [<u,i-1|.|d,i+k>, <u,i-1|.|u,i+k-1>]] (d = down, u = up) alone: its
    unitary maps M_i to R_i M_i R_{i+k}^dag, R_i = exp(-i a_i sigma_x) with
    a_i the pair's coupling times the time, which on M' = S^dag M S,
    S = diag(1, i), is the real rotation Q_i M' Q_{i+k}^T,
    Q_i = [[cos a_i, sin a_i], [-sin a_i, cos a_i]].  The Dissipator over
    dt/2 maps each component at its own offset, k, k - 1 (for k = 0 the
    lower side of offset 1), k + 1 and k, at the position of its smaller
    boson index.  On the b - k unit inputs of the (d, d) component, the
    block of offset k sums the (d, d) and (u, u) outputs, for both sides of
    the offset, and up sums the (u, u) outputs at k = 0.
    """
    b = cutoff.bdim
    n_slices, dt, times = _saba2_slices(tau_c)
    # one sector carries the coupling of |down, i>-|up, i-1>, the other 0
    rate = np.zeros(b + 1)
    rate[1:b] = h_red_sideband(omega_c, cutoff)[1].sum(0)
    angle = np.multiply.outer(times, rate)[..., None]
    cos, sin = np.cos(angle), np.sin(angle)
    sin = np.stack([sin, -sin], 1)    # the signs of Q's rows
    exp = _offset_exponentials(jumps, dt / 2, range(b))
    table = {}
    for k in range(0, b, 2):
        m = b - k   # elements on offset k; M_i for i = 0..m
        cl, sl = cos[:, :m + 1], sin[:, :, None, :m + 1]
        cr, sr = cos[:, k:], sin[:, :, k:]

        # comp[r, c, i]: the component of row spin r and column spin c
        # of M_i, whose position is i for r = d and i - 1 for r = u
        def unitary(comp, j):
            comp = cl[j] * comp + sl[j] * comp[::-1]
            return cr[j] * comp + sr[j] * comp[:, ::-1]

        def dissipate(comp):
            (dd, du), (ud, uu) = comp
            out = np.zeros_like(comp)
            (out_dd, out_du), (out_ud, out_uu) = out
            np.matmul(exp[k], dd[:m], out=out_dd[:m])
            if k:
                np.matmul(exp[k - 1], du, out=out_du)
            else:
                np.matmul(exp[1], du[1:m], out=out_du[1:m])
            if m > 1:
                np.matmul(exp[k + 1], ud[1:m], out=out_ud[1:m])
            np.matmul(exp[k], uu[1:], out=out_uu[1:])
            return out

        comp = np.zeros((2, 2, m + 1, m))
        comp[0, 0, :m] = np.eye(m)
        comp = _saba2(comp, n_slices, unitary, dissipate)
        table[k] = comp[0, 0, :m] + comp[1, 1, 1:]
        if k == 0:
            up = comp[1, 1].sum(0)
    return _fold(table, (b, (b + 1) // 2)), up


def pulse_kraus(theta, cutoff):
    """Real weights (keep, move, up) for apply_kraus of the noise-free
    exact cooling pulse.

    The spin enters in |down> and is pumped back to |down> afterwards, so a
    pulse of area theta = Omega_c tau_c / 2 acts on rho_m alone through the
    Kraus pair cos(theta sqrt n) and sin(theta sqrt n)|n-1><n|, the
    resonant red-sideband rotation of |down, n> into |up, n-1>.  keep and
    move are the parity blocks of w w^T for w = cos(theta sqrt n), which
    keeps level n, and w[n] = sin(theta sqrt(n+1)), which takes level n+1
    to n; up = sin^2(theta sqrt n) weighs the populations into p_up.
    """
    root_n = np.sqrt(np.arange(cutoff.bdim))
    c, s = np.cos(theta * root_n), np.sin(theta * root_n)
    return (*(to_blocks(np.outer(w, w)) for w in (c, np.append(s[1:], 0.0))),
            s**2)


def apply_kraus(kraus, state):
    """A0 rho_m A0^dag + A1 rho_m A1^dag on the parity blocks, for the
    weights of pulse_kraus.  A1 lowers n by one, so each block feeds the
    other: the odd block state[h:, :b - h] into the even one, and the even
    block below its first row and column into the odd one's first h - 1."""
    keep, move, _ = kraus
    b, h = state.shape
    out = state * keep
    to_even, to_odd = out[:b - h, :b - h], out[h:2 * h - 1, :h - 1]
    to_even += move[:b - h, :b - h] * state[h:, :b - h]
    to_odd += move[h:2 * h - 1, :h - 1] * state[1:h, 1:h]
    return out


def recoil_diffusion(cutoff, ks):
    """(w, v), {k: eigenvalues} and {k: eigenvectors} of the (symmetric)
    offset generator blocks of the unit diffusion pair {a^dag, a} for the
    offsets ks, which serve every recoil kick at this cutoff on a state
    whose offsets they cover: all of them for rho_m, the even ones for its
    parity blocks."""
    a, adag, _ = build_boson_ops(cutoff)
    gens = _offset_generators([adag, a])
    eigs = {k: np.linalg.eigh(gens[k]) for k in ks}
    return tuple({k: eig[i] for k, eig in eigs.items()} for i in (0, 1))


def recoil_kick(rho_m, dn, diffusion):
    """Incoherent heating pulse from pump-photon recoil on the boson state,
    rho_m or its parity blocks: the flow exp(dn G) of the unit diffusion
    pair {a^dag, a}, which raises the mean phonon number by exactly dn,
    from its recoil_diffusion eigendecomposition."""
    w, v = (_fold(x, rho_m.shape) for x in diffusion)
    decay = np.exp(dn * w)[..., None]
    vt = v.swapaxes(1, 2)
    return _on_offset_diagonals(rho_m, w.shape[-1],
                                lambda x: v @ (decay * (vt @ x)))


class CoolingChannel:
    """Precompiled dissipation stage of one cycle, a map on the parity
    blocks of the boson state (fockspace.to_blocks).

    Sequence: red-sideband pulse for tau_c on |down> (x) rho_m -> record the
    spin-up population up @ populations -> pump the spin back to |down> ->
    optional recoil kick -> noise for the remaining tau_d - tau_c.  The exact
    pulse is the Kraus pair of pulse_kraus, or with noise pulse_table's; the
    linearized pulse (up = 0) is the Dissipator of sqrt(theta^2/tau_c) a and
    the noise, amplitude damping without noise (Chuang, Leung & Yamamoto,
    PRA 56, 1114 (1997)).  Past the Kraus pair, the stage is one pass of
    tables built on the even offsets alone, the ones the parity blocks
    carry, folded for them (_fold) and composed at build: idle @ pulse, or
    post @ exp(dn w) @ pre with pre = v^T @ pulse and post = idle @ v in the
    kick's eigenbasis v, w (recoil_diffusion).

    No wall clock or drive enters: every part commutes with exp(-i phi n),
    so the frame phases of drive and cooling cancel once the spin is pumped,
    and the cooling window's free evolution exp(-i omega_f n tau_d) belongs
    to the drive (drive_stage).
    """

    def __init__(self, cool, cutoff, noise, mode):
        if mode not in CHANNEL_MODES:
            raise ValueError(f"unknown channel mode {mode!r}")
        self.noise = noise
        noise_jumps = make_noise_jumps(noise, cutoff)
        b = cutoff.bdim
        shape, even = (b, (b + 1) // 2), range(0, b, 2)
        self._kraus = pulse = idle = self._w = self._table = None
        if mode == "lindblad":
            a, _, _ = build_boson_ops(cutoff)
            cooling = 0.5 * cool.omega_c * np.sqrt(cool.tau_c) * a
            pulse = _fold(_offset_exponentials([cooling] + noise_jumps,
                                               cool.tau_c, even), shape)
            self._up = np.zeros(b)
        elif noise_jumps:
            pulse, self._up = pulse_table(cool.omega_c, cool.tau_c, noise_jumps, cutoff)
        else:
            self._kraus = pulse_kraus(0.5 * cool.omega_c * cool.tau_c, cutoff)
            self._up = self._kraus[2]
        if noise_jumps:
            idle = _fold(_offset_exponentials(
                noise_jumps, cool.tau_d - cool.tau_c, even), shape)
        if mode == "exact" and noise.recoil_enabled:
            w, v = (_fold(x, shape) for x in recoil_diffusion(cutoff, even))
            self._w, vt = w[..., None], v.swapaxes(1, 2)
            self._pre = vt if pulse is None else vt @ pulse
            self._post = v if idle is None else idle @ v
        else:
            self._table = pulse if idle is None else idle @ pulse

    def apply(self, state):
        """Apply the stage to the parity blocks of rho_m; returns (state,
        spin-up population before pump)."""
        pup = float(populations(state).real.dot(self._up))
        if self._kraus is not None:
            state = apply_kraus(self._kraus, state)
        if self._w is not None:
            if not 0 <= pup <= 1 + 1e-9:
                raise ValueError("p_up must lie in [0, 1]")
            decay = np.exp(RECOIL_DN * (PHOTONS_PER_PUMP * pup) ** 2 * self._w)
            state = _on_offset_diagonals(state, len(state), lambda x:
                                         self._post @ (decay * (self._pre @ x)))
        elif self._table is not None:
            state = apply_offsets(self._table, state)
        return state, pup
