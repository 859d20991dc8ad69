"""Shared test fixtures."""

import numpy as np
import pytest

from iondpt import channels as ch
from iondpt import fockspace as fs
from iondpt.channels import (Dissipator, SplitStepPropagator, make_noise_jumps,
                             recoil_diffusion, recoil_kick, unitary_propagator)
from iondpt import model
from iondpt.model import derive

from helpers import (composite_split_step, embed_down, frame_shift_diagonal,
                     h_qrm, h_red_sideband, number_full, on_parity_blocks,
                     on_spin_blocks, p_up, spin_reset)


def composite_cycles(config, cutoff, n_cycles, t0, chain=True):
    """(nbar and p_up after each cycle, final rho_m) of the composite-space
    engine that threads the interaction-frame phases of a wall clock
    starting at t0, from the thermal state of config.initial.nbar.

    The state lives on spin (x) boson in the drive picture.  Each cooling
    pulse is conjugated into the cooling picture with exp(+i H0 t) at its
    wall-clock start and back with exp(-i H0 t) at its end, where H0 is
    the decoupled Rabi Hamiltonian, and the idle evolves under H0.  The
    noise, the linearized pulse and the recoil use the boson engine's own
    dissipators on each spin block.  With chain, the noisy drive and exact
    pulse run the engine's parity-chain step on the parity blocks of the
    pumped boson state and re-embed the output in |down>, so the
    comparison tests the frame phases and not the integrator's rounding.
    Without it they run the same two-node split step on the whole composite
    space (helpers.composite_split_step), and no map assumes that rho_m
    has no odd offsets.  Each drive and pulse returns the state and p_up.
    """
    derived = derive(config.drive)
    cool, noise = config.cool, config.noise
    h0 = frame_shift_diagonal(derived, cutoff)
    jumps = make_noise_jumps(noise, cutoff)

    def composite_step(apply):
        def step(rho):
            rho = apply(rho)
            return rho, p_up(rho)
        return step

    def split_step(h_pair, h_full, t):
        if not chain:
            return composite_step(
                lambda rho: composite_split_step(h_full, jumps, t, rho))
        apply = on_parity_blocks(SplitStepPropagator(h_pair, jumps, t).apply)

        def step(rho):
            rho_m, pup = apply(fs.trace_out_spin(rho))
            return embed_down(rho_m), pup
        return step

    if jumps:
        drive = split_step(model.h_qrm(derived, cutoff),
                           h_qrm(derived, cutoff), config.drive.tau)
        exact_pulse = split_step(model.h_red_sideband(cool.omega_c, cutoff),
                                 h_red_sideband(cool.omega_c, cutoff),
                                 cool.tau_c)
    else:
        U = unitary_propagator(h_qrm(derived, cutoff), config.drive.tau)
        U_c = unitary_propagator(h_red_sideband(cool.omega_c, cutoff),
                                 cool.tau_c)
        drive = composite_step(lambda rho: U @ rho @ U.conj().T)
        exact_pulse = composite_step(lambda rho: U_c @ rho @ U_c.conj().T)
    if config.channel_mode == "exact":
        pulse = exact_pulse
    else:
        a = fs.build_boson_ops(cutoff)[0]
        pulse = composite_step(on_spin_blocks(Dissipator(
            [0.5 * cool.omega_c * np.sqrt(cool.tau_c) * a] + jumps,
            cool.tau_c).apply))
    t_idle = cool.tau_d - cool.tau_c
    idle_noise = (on_spin_blocks(Dissipator(jumps, t_idle).apply) if jumps
                  else (lambda r: r))
    diffusion = recoil_diffusion(cutoff, range(cutoff.bdim))

    def to_frame(rho, t):
        v = np.exp(1j * h0 * t)
        return v[:, None] * rho * v.conj()[None, :]

    rho = embed_down(fs.thermal_state(config.initial.nbar, cutoff,
                                      eps=config.cutoff.eps))
    num = number_full(cutoff)
    t = t0
    nbar, pups = [], []
    for _ in range(n_cycles):
        rho = drive(rho)[0]
        t += config.drive.tau
        rho, pup = pulse(to_frame(spin_reset(rho), t))
        rho = to_frame(rho, -(t + cool.tau_c))
        rho_m = fs.trace_out_spin(rho)
        if noise.recoil_enabled:
            dn = ch.RECOIL_DN * (ch.PHOTONS_PER_PUMP * pup) ** 2
            rho_m = recoil_kick(rho_m, dn, diffusion)
        rho = embed_down(rho_m)
        rho = to_frame(idle_noise(rho), -t_idle)
        t += cool.tau_d
        nbar.append(fs.expectation(rho, num))
        pups.append(pup)
    return np.array(nbar), np.array(pups), fs.trace_out_spin(rho)


def composite_cycles_nbar(config, cutoff, n_cycles, t0):
    """nbar after each cycle of composite_cycles."""
    return composite_cycles(config, cutoff, n_cycles, t0)[0]


@pytest.fixture
def composite_reference():
    return composite_cycles_nbar
