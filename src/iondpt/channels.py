"""State-evolution primitives: unitary steps, Lindblad integration, the
sideband-cooling channel (exact and linearized) on the boson state, spin
reset and noise.

Jump operators carry units of 1/sqrt(us); Hamiltonians rad/us.
"""

import numpy as np
import scipy.sparse as sp
from dataclasses import dataclass

from .fockspace import (FockCutoff, build_boson_ops, embed_down, tensor,
                        trace_out_spin)
from .model import h_red_sideband, frame_shift_diagonal

DT_CAP_US = 0.1
DT_PHASE_BUDGET = 0.05
TRACE_ABORT_TOL = 1e-6

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


def lift(ops):
    """Spin-identity extensions I (x) L of boson operators."""
    return [tensor(np.eye(2), L) for L in ops]


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


class SplitStepPropagator:
    """Strang-split propagator for a Hamiltonian plus weak dissipators.

    The unitary half-step propagators are cached dense matrices (or phase
    vectors for a diagonal H), and the dissipator-only flow between them is
    integrated with RK4.  For jump rates far below ||H|| this reproduces
    lindblad_step at a fraction of the cost because the stiff coherent part
    is handled exactly; accuracy degrades once the dissipation per slice
    stops being small.
    """

    def __init__(self, H, jumps, t, slice_us=0.5):
        if t < 0:
            raise ValueError("t must be >= 0")
        if slice_us <= 0:
            raise ValueError("slice_us must be > 0")
        self.t = t
        self.n_slices = max(1, int(np.ceil(t / slice_us)))
        dt = t / self.n_slices
        self.dt = dt
        self._rhs = _lindblad_rhs_factory(None, jumps) if jumps else None

        self._diag = None
        self._u_half = None
        if H is None:
            self._phase_half = None
        else:
            Hd = np.asarray(H)
            if np.count_nonzero(Hd - np.diag(np.diag(Hd))) == 0:
                self._diag = np.diag(Hd)
                self._phase_half = np.exp(-1j * self._diag * (dt / 2.0))
            else:
                self._u_half = unitary_propagator(Hd, dt / 2.0)

        # Substep the dissipator when a single RK4 step per slice would see
        # too large a decay increment (diagonal of sum L^dag L).
        self._n_sub = 1
        if jumps:
            gmax = 0.0
            for L in jumps:
                Ld = np.asarray(L)
                gmax = max(gmax, float(np.max(np.abs(np.diag(Ld.conj().T @ Ld)))))
            if gmax * dt > 0.25:
                self._n_sub = int(np.ceil(gmax * dt / 0.25))

    def _half_unitary(self, rho):
        if self._u_half is not None:
            return self._u_half @ rho @ self._u_half.conj().T
        if self._phase_half is not None:
            p = self._phase_half
            return p[:, None] * rho * p.conj()[None, :]
        return rho

    def _dissipate(self, rho):
        if self._rhs is None:
            return rho
        rhs = self._rhs
        h = self.dt / self._n_sub
        out = rho
        for _ in range(self._n_sub):
            k1 = rhs(out)
            k2 = rhs(out + 0.5 * h * k1)
            k3 = rhs(out + 0.5 * h * k2)
            k4 = rhs(out + h * k3)
            out = out + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return out

    def apply(self, rho):
        if self.t == 0:
            return rho.copy()
        out = self._half_unitary(rho)
        for i in range(self.n_slices):
            out = self._dissipate(out)
            out = self._half_unitary(out)
            if i + 1 < self.n_slices:
                out = self._half_unitary(out)
        return out


def pulse_kraus(mode, theta, cutoff):
    """Kraus operators of a noise-free cooling pulse on the boson state.

    The spin enters in |down> and is pumped back to |down> afterwards, so a
    pulse of area theta = Omega_c tau_c / 2 acts on rho_m alone.  Each
    operator is returned as (k, w) with A|n> = w[n] |n-k>:

    - exact: cos(theta sqrt n) and sin(theta sqrt n)|n-1><n|, the resonant
      red-sideband rotation of |down, n> into |up, n-1>;
    - lindblad: bosonic amplitude damping with eta = exp(-theta^2),
      A_k|n> = sqrt(C(n,k) eta^(n-k) (1-eta)^k) |n-k>, the exact solution
      of the linearized jump sqrt(theta^2/tau_c) a over tau_c (Chuang,
      Leung & Yamamoto, PRA 56, 1114 (1997)).
    """
    n = np.arange(cutoff.bdim)
    if mode == "exact":
        return [(0, np.cos(theta * np.sqrt(n))), (1, np.sin(theta * np.sqrt(n)))]
    if theta == 0:
        return [(0, np.ones(cutoff.bdim))]
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(n[1:]))))
    log_loss = np.log(-np.expm1(-theta**2))
    kraus = []
    for k in range(cutoff.bdim):
        m = n[k:]
        w = np.zeros(cutoff.bdim)
        w[k:] = np.exp(0.5 * (log_fact[m] - log_fact[m - k] - log_fact[k]
                              - (m - k) * theta**2 + k * log_loss))
        kraus.append((k, w))
    return kraus


def apply_kraus(kraus, rho_m):
    """sum_k A_k rho_m A_k^dag for operators in pulse_kraus form."""
    b = rho_m.shape[0]
    out = np.zeros_like(rho_m)
    for k, w in kraus:
        wk = w[k:]
        out[:b - k, :b - k] += wk[:, None] * rho_m[k:, k:] * wk[None, :]
    return out


def spin_reset(rho):
    """Optical pumping to |down>: rho -> |down><down| (x) Tr_spin(rho)."""
    return embed_down(trace_out_spin(rho))


def p_up(rho):
    """Spin-up population."""
    b = rho.shape[0] // 2
    return float(np.real(np.trace(rho[b:, b:])))


def recoil_kick(rho_m, pup, noise, kick_duration=1.0):
    """Incoherent heating pulse from pump-photon recoil on the boson state.

    Raises the mean phonon number by dn = recoil_dn * (N_p * p_up)^2 using a
    balanced diffusion pair {sqrt(mu) a^dag, sqrt(mu) a}, whose generator
    obeys nbar(t) = nbar0 + mu t exactly.
    """
    if not 0 <= pup <= 1 + 1e-9:
        raise ValueError("p_up must lie in [0, 1]")
    if not noise.recoil_enabled:
        return rho_m
    dn = noise.recoil_dn * (noise.photons_per_pump * pup) ** 2
    if dn == 0:
        return rho_m
    a, adag, _ = build_boson_ops(FockCutoff(rho_m.shape[0] - 1))
    mu = dn / kick_duration
    return lindblad_step(rho_m, None, [np.sqrt(mu) * adag, np.sqrt(mu) * a],
                         kick_duration)


class CoolingChannel:
    """Precompiled dissipation stage of one cycle, a map on the boson state.

    Sequence: red-sideband pulse for tau_c on |down> (x) rho_m -> record the
    spin-up population -> pump the spin back to |down> -> optional recoil
    kick -> noise for the remaining tau_d - tau_c -> free evolution
    exp(-i omega_f n tau_d).  Without noise the pulse is the closed-form
    Kraus map of pulse_kraus.  With noise the exact pulse runs on the
    composite space under SplitStepPropagator and the linearized pulse
    integrates its jump together with the noise by lindblad_step.

    The stage needs no wall clock: the free evolution and every noise term
    are covariant under exp(-i phi n), so the interaction-frame phases of
    the drive and cooling pictures cancel once the spin is pumped.
    """

    def __init__(self, cool, derived, cutoff, noise=None, mode="exact"):
        if mode not in ("exact", "lindblad"):
            raise ValueError(f"unknown channel mode {mode!r}")
        self.noise = noise if noise is not None else NoiseParams()
        noise_jumps = make_noise_jumps(self.noise, cutoff)
        theta = 0.5 * cool.omega_c * cool.tau_c

        if not noise_jumps:
            kraus = pulse_kraus(mode, theta, cutoff)
            # the exact pulse's second operator flips |down, n> to |up, n-1>
            up = kraus[1][1] ** 2 if mode == "exact" else np.zeros(cutoff.bdim)
            self._pulse = lambda rho_m: (apply_kraus(kraus, rho_m),
                                         float(up @ np.real(np.diag(rho_m))))
        elif mode == "exact":
            # omega_c = 0 degrades gracefully to a pulse-free stage.
            H_c = (h_red_sideband(cool.omega_c, cutoff)
                   if cool.omega_c > 0 else None)
            prop = SplitStepPropagator(H_c, lift(noise_jumps), cool.tau_c)

            def pulse(rho_m):
                rho = prop.apply(embed_down(rho_m))
                return trace_out_spin(rho), p_up(rho)

            self._pulse = pulse
        else:
            a, _, _ = build_boson_ops(cutoff)
            jumps = list(noise_jumps)
            if cool.omega_c > 0:
                jumps.insert(0, 0.5 * cool.omega_c * np.sqrt(cool.tau_c) * a)
            self._pulse = lambda rho_m: (
                lindblad_step(rho_m, None, jumps, cool.tau_c), 0.0)

        self._idle = (SplitStepPropagator(None, noise_jumps,
                                          cool.tau_d - cool.tau_c).apply
                      if noise_jumps else None)
        # H0 on the spin-down manifold; its constant -omega_a/2 cancels in rho_m
        h0_down = frame_shift_diagonal(derived, cutoff)[:cutoff.bdim]
        self._phase = np.exp(-1j * h0_down * cool.tau_d)

    def apply(self, rho_m):
        """Apply the stage; returns (state, spin-up population before pump)."""
        rho_m, pup = self._pulse(rho_m)
        if self.noise.recoil_enabled:
            rho_m = recoil_kick(rho_m, pup, self.noise)
        if self._idle is not None:
            rho_m = self._idle(rho_m)
        p = self._phase
        return p[:, None] * rho_m * p.conj()[None, :], pup
