"""State-evolution primitives: unitary steps, the exact dissipator of the
phase-covariant boson jumps (cooling, heating, dephasing, recoil), the
sideband-cooling channel (exact and linearized) on the boson state, spin
reset and noise.  lindblad_step is a fixed-step RK4 reference integrator.

Jump operators carry units of 1/sqrt(us); Hamiltonians rad/us.
"""

import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass

from .fockspace import build_boson_ops, embed_down, trace_out_spin
from .model import h_red_sideband, frame_shift_diagonal

DT_CAP_US = 0.1
DT_PHASE_BUDGET = 0.05
TRACE_ABORT_TOL = 1e-6
# Strang slice of SplitStepPropagator.  Its splitting error in the
# steady-state nbar at R = 50, g = 1.5 with heating 50/s, dephasing 200/s
# and recoil is 7.6e-6 against 0.05 us slices.
SLICE_US = 0.5

# Effective recoil coefficient for a 171Yb+ pump photon at 369.5 nm and a
# 2pi x 2.35 MHz motional mode, shared over three modes:
#   hbar k^2 / (2 m omega_m) / 3
# with k = 2pi/369.5nm, m = 171 u.  Phonons per (absorbed photon number)^2.
RECOIL_DN_DEFAULT = 1.212e-3


class IntegrationError(RuntimeError):
    """Fixed-step integration became unstable (trace drift beyond bound)."""


@dataclass(frozen=True)
class NoiseParams:
    """Decoherence rates in 1/us; recoil model for optical-pumping kicks."""

    heating_rate: float = 0.0      # gamma * n_th product
    thermal_nth: float = 1e5       # reservoir occupancy used to split up/down rates
    dephasing_rate: float = 0.0    # Gamma_m
    recoil_enabled: bool = False
    photons_per_pump: int = 3      # N_p
    recoil_dn: float = RECOIL_DN_DEFAULT

    def __post_init__(self):
        if min(self.heating_rate, self.dephasing_rate, self.recoil_dn) < 0:
            raise ValueError("noise rates must be >= 0")
        if self.thermal_nth <= 0:
            raise ValueError("thermal_nth must be > 0")

    @property
    def any_decoherence(self):
        return self.heating_rate > 0 or self.dephasing_rate > 0

    @classmethod
    def from_per_second(cls, heating_per_s=0.0, dephasing_per_s=0.0, **kw):
        return cls(heating_rate=heating_per_s * 1e-6,
                   dephasing_rate=dephasing_per_s * 1e-6, **kw)


def make_noise_jumps(noise, cutoff):
    """Heating, cooling-counterpart and dephasing jump operators (boson space)."""
    a, adag, num = build_boson_ops(cutoff)
    jumps = []
    if noise.heating_rate > 0:
        gamma = noise.heating_rate / noise.thermal_nth
        jumps.append(np.sqrt(noise.heating_rate) * adag)
        jumps.append(np.sqrt(gamma * (noise.thermal_nth + 1)) * a)
    if noise.dephasing_rate > 0:
        jumps.append(np.sqrt(2 * noise.dephasing_rate) * num)
    return jumps


def spectral_norm_hermitian(H):
    if H.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(H))))


def default_dt_max(H):
    """Default integrator step bound: min(0.05/||H||, 0.1 us)."""
    nrm = spectral_norm_hermitian(H) if H is not None else 0.0
    if nrm == 0.0:
        return DT_CAP_US
    return min(DT_PHASE_BUDGET / nrm, DT_CAP_US)


def unitary_propagator(H, t):
    """exp(-i H t) by eigendecomposition of a Hermitian H."""
    asym = np.linalg.norm(H - H.conj().T)
    if asym > 1e-12 * max(np.linalg.norm(H), 1.0):
        raise ValueError("unitary_step requires a Hermitian generator")
    w, v = np.linalg.eigh(H)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def unitary_step(rho, H, t):
    if t < 0:
        raise ValueError("t must be >= 0")
    U = unitary_propagator(H, t)
    return U @ rho @ U.conj().T


def _lindblad_rhs_factory(H, jumps):
    """Return rhs(rho) for drho/ds = -i[H,rho] + sum_k D[L_k]rho.

    Uses K = -iH - (1/2) sum L^dag L so that rhs = K rho + rho K^dag
    + sum L rho L^dag; a diagonal K (diagonal H, ladder-type jumps) avoids
    dense matrix products entirely.
    """
    dim = H.shape[0] if H is not None else jumps[0].shape[0]
    K = np.zeros((dim, dim), dtype=complex)
    if H is not None:
        K -= 1j * H
    sparse_jumps = []
    for L in jumps:
        Ls = sp.csr_matrix(L)
        sparse_jumps.append(Ls)
        K -= 0.5 * np.asarray((Ls.conj().T @ Ls).todense())
    k_diag = np.diag(K).copy()
    k_is_diag = np.count_nonzero(K - np.diag(k_diag)) == 0

    if k_is_diag:
        kl = k_diag[:, None]
        kr = k_diag.conj()[None, :]

        def rhs(rho):
            out = kl * rho + rho * kr
            for Ls in sparse_jumps:
                out += Ls @ (Ls @ rho.conj().T).conj().T
            return out
    else:
        Kd = K.conj().T

        def rhs(rho):
            out = K @ rho + rho @ Kd
            for Ls in sparse_jumps:
                out += Ls @ (Ls @ rho.conj().T).conj().T
            return out

    return rhs


def lindblad_step(rho, H, jumps, t, dt_max=None):
    """Integrate the Lindblad master equation over [0, t] with fixed-step RK4."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return rho.copy()
    if not jumps:
        if H is None:
            return rho.copy()
        return unitary_step(rho, H, t)
    if H is not None:
        asym = np.linalg.norm(H - H.conj().T)
        if asym > 1e-12 * max(np.linalg.norm(H), 1.0):
            raise ValueError("lindblad_step requires a Hermitian H")
    if dt_max is None:
        dt_max = default_dt_max(H)
    if dt_max <= 0:
        raise ValueError("dt_max must be > 0")

    rhs = _lindblad_rhs_factory(H, jumps)
    n_steps = max(1, int(np.ceil(t / dt_max)))
    dt = t / n_steps
    tr0 = np.trace(rho).real
    out = rho
    for _ in range(n_steps):
        k1 = rhs(out)
        k2 = rhs(out + 0.5 * dt * k1)
        k3 = rhs(out + 0.5 * dt * k2)
        k4 = rhs(out + dt * k3)
        out = out + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    drift = abs(np.trace(out).real - tr0)
    if drift > TRACE_ABORT_TOL:
        raise IntegrationError(
            f"trace drift {drift:.3e} over t={t} us (dt={dt:.4f}); "
            "step instability, reduce dt_max")
    return out


def _offset_generators(jumps):
    """Generators G[k] of the Lindblad flow sum_j D[L_j] on the offset
    diagonals x_k[m] = rho[m, m+k] and rho[m+k, m] of a boson matrix.

    Each jump must be real and single-diagonal, L|n> = c[n] |n + s> (a,
    a^dag, n): phase-covariant, so dx_k/dt = G[k] x_k.  G[k] is b-by-b and
    real, zero in its rows and columns m >= b - k."""
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
    return gen


def _on_offset_diagonals(rho, b, step):
    """Map the offset diagonals of each b-by-b block of rho by step, which
    takes and returns a real array [k, m, c] of zero-padded diagonals, c
    running over the two sides, the blocks and the real and imaginary parts.
    """
    s = rho.shape[0] // b
    blocks = rho.reshape(s, b, s, b).transpose(1, 3, 0, 2)   # [n, n', i, j]
    k, m = np.indices((b, b))
    on = m + k < b
    rows, cols = m[on], (m + k)[on]
    x = np.zeros((b, b, 2, s, s), dtype=complex)
    x[on, 0] = blocks[rows, cols]
    x[on, 1] = blocks[cols, rows]
    y = step(x.view(float).reshape(b, b, -1)).view(complex).reshape(x.shape)
    out = np.empty(blocks.shape, dtype=complex)
    out[cols, rows] = y[on, 1]
    out[rows, cols] = y[on, 0]
    return out.transpose(2, 0, 3, 1).reshape(rho.shape)


class Dissipator:
    """Exact Lindblad flow of phase-covariant boson jumps over a time t.

    exp(t G[k]) of every _offset_generators diagonal is computed once; apply
    maps rho_m, or each spin block of a spin (x) boson state (jumps I (x) L).
    """

    def __init__(self, jumps, t):
        from scipy.linalg import expm
        self._exp = expm(t * _offset_generators(jumps))

    def apply(self, rho):
        exp = self._exp
        return _on_offset_diagonals(rho, exp.shape[0], lambda x: exp @ x)


class SplitStepPropagator:
    """Strang-split propagator for a composite-space Hamiltonian plus
    phase-covariant boson jumps: slices of at most SLICE_US, each
    exp(-iH dt/2) D(dt) exp(-iH dt/2) with exact dense unitary halves (merged
    between slices) and the exact Dissipator D, so the only error is the
    splitting's, second order in the slice.
    """

    def __init__(self, H, jumps, t):
        if t < 0:
            raise ValueError("t must be >= 0")
        self.n_slices = max(1, int(np.ceil(t / SLICE_US)))
        dt = t / self.n_slices
        self._u_half = unitary_propagator(H, dt / 2.0)
        self._u_full = self._u_half @ self._u_half
        self._dissipate = Dissipator(jumps, dt).apply if jumps else (lambda r: r)

    def apply(self, rho):
        u = self._u_half
        out = u @ rho @ u.conj().T
        for i in range(self.n_slices):
            out = self._dissipate(out)
            u = self._u_full if i + 1 < self.n_slices else self._u_half
            out = u @ out @ u.conj().T
        return out


def pulse_kraus(theta, cutoff):
    """Kraus pair (cos, sin) of the noise-free exact cooling pulse.

    The spin enters in |down> and is pumped back to |down> afterwards, so a
    pulse of area theta = Omega_c tau_c / 2 acts on rho_m alone through
    cos(theta sqrt n) and sin(theta sqrt n)|n-1><n|, the resonant
    red-sideband rotation of |down, n> into |up, n-1>.
    """
    root_n = np.sqrt(np.arange(cutoff.bdim))
    return np.cos(theta * root_n), np.sin(theta * root_n)


def apply_kraus(kraus, rho_m):
    """A0 rho_m A0^dag + A1 rho_m A1^dag for the pair of pulse_kraus."""
    c, s = kraus
    out = c[:, None] * rho_m * c[None, :]
    out[:-1, :-1] += s[1:, None] * rho_m[1:, 1:] * s[None, 1:]
    return out


def spin_reset(rho):
    """Optical pumping to |down>: rho -> |down><down| (x) Tr_spin(rho)."""
    return embed_down(trace_out_spin(rho))


def p_up(rho):
    """Spin-up population."""
    b = rho.shape[0] // 2
    return float(np.real(np.trace(rho[b:, b:])))


def recoil_diffusion(cutoff):
    """eigh of the (symmetric) offset generators of the unit diffusion pair
    {a^dag, a}, which serves every recoil_kick at this cutoff."""
    a, adag, _ = build_boson_ops(cutoff)
    return np.linalg.eigh(_offset_generators([adag, a]))


def recoil_kick(rho_m, pup, noise, diffusion):
    """Incoherent heating pulse from pump-photon recoil on the boson state.

    Raises the mean phonon number by dn = recoil_dn * (N_p * p_up)^2: the
    flow exp(dn G) of the unit diffusion pair {a^dag, a} (nbar grows by
    exactly dn), from its recoil_diffusion eigendecomposition.
    """
    if not 0 <= pup <= 1 + 1e-9:
        raise ValueError("p_up must lie in [0, 1]")
    if not noise.recoil_enabled:
        return rho_m
    dn = noise.recoil_dn * (noise.photons_per_pump * pup) ** 2
    if dn == 0:
        return rho_m
    w, v = diffusion
    decay = np.exp(dn * w)[..., None]
    vt = v.swapaxes(1, 2)
    return _on_offset_diagonals(rho_m, w.shape[-1],
                                lambda x: v @ (decay * (vt @ x)))


class CoolingChannel:
    """Precompiled dissipation stage of one cycle, a map on the boson state.

    Sequence: red-sideband pulse for tau_c on |down> (x) rho_m -> record the
    spin-up population -> pump the spin back to |down> -> optional recoil
    kick -> noise for the remaining tau_d - tau_c -> free evolution
    exp(-i omega_f n tau_d).  The exact pulse is the Kraus pair of
    pulse_kraus, or with noise a SplitStepPropagator on the composite
    space.  The linearized pulse, the jump sqrt(theta^2/tau_c) a plus the
    noise, and the idle noise are each one Dissipator; without noise the
    pulse is bosonic amplitude damping, eta = exp(-theta^2) (Chuang, Leung
    & Yamamoto, PRA 56, 1114 (1997)).

    The stage needs no wall clock: the free evolution and every noise term
    are covariant under exp(-i phi n), so the interaction-frame phases of
    the drive and cooling pictures cancel once the spin is pumped.
    """

    def __init__(self, cool, derived, cutoff, noise=None, mode="exact"):
        if mode not in ("exact", "lindblad"):
            raise ValueError(f"unknown channel mode {mode!r}")
        self.noise = noise if noise is not None else NoiseParams()
        noise_jumps = make_noise_jumps(self.noise, cutoff)

        if mode == "exact" and not noise_jumps:
            kraus = pulse_kraus(0.5 * cool.omega_c * cool.tau_c, cutoff)
            # the second operator flips |down, n> to |up, n-1>
            up = kraus[1] ** 2
            self._pulse = lambda rho_m: (apply_kraus(kraus, rho_m),
                                         float(up @ np.real(np.diag(rho_m))))
        elif mode == "exact" and cool.omega_c > 0:
            prop = SplitStepPropagator(h_red_sideband(cool.omega_c, cutoff),
                                       noise_jumps, cool.tau_c)

            def pulse(rho_m):
                rho = prop.apply(embed_down(rho_m))
                return trace_out_spin(rho), p_up(rho)

            self._pulse = pulse
        else:
            # the linearized pulse; at omega_c = 0 also the noisy exact one
            a, _, _ = build_boson_ops(cutoff)
            cooling = 0.5 * cool.omega_c * np.sqrt(cool.tau_c) * a
            prop = Dissipator([cooling] + noise_jumps, cool.tau_c)
            self._pulse = lambda rho_m: (prop.apply(rho_m), 0.0)

        self._idle = (Dissipator(noise_jumps, cool.tau_d - cool.tau_c).apply
                      if noise_jumps else None)
        self._diffusion = (recoil_diffusion(cutoff)
                           if self.noise.recoil_enabled else None)
        # H0 on the spin-down manifold; its constant -omega_a/2 cancels in rho_m
        h0_down = frame_shift_diagonal(derived, cutoff)[:cutoff.bdim]
        self._phase = np.exp(-1j * h0_down * cool.tau_d)

    def apply(self, rho_m):
        """Apply the stage; returns (state, spin-up population before pump)."""
        rho_m, pup = self._pulse(rho_m)
        if self.noise.recoil_enabled:
            rho_m = recoil_kick(rho_m, pup, self.noise, self._diffusion)
        if self._idle is not None:
            rho_m = self._idle(rho_m)
        p = self._phase
        return p[:, None] * rho_m * p.conj()[None, :], pup
