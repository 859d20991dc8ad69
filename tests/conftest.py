"""Shared test fixtures."""

import numpy as np
import pytest

from iondpt import fockspace as fs
from iondpt.channels import (Dissipator, SplitStepPropagator, make_noise_jumps,
                             p_up, recoil_diffusion, recoil_kick,
                             unitary_propagator)
from iondpt.model import derive, frame_shift_diagonal, h_qrm, h_red_sideband

from helpers import number_full, spin_reset


def composite_cycles_nbar(config, cutoff, n_cycles, t0):
    """nbar after each cycle of the composite-space engine that threads the
    interaction-frame phases of a wall clock starting at t0.

    The state lives on spin (x) boson in the drive picture.  Each cooling
    pulse is conjugated into the cooling picture with exp(+i H0 t) at its
    wall-clock start and back with exp(-i H0 t) at its end, where H0 is
    the decoupled Rabi Hamiltonian, and the idle evolves under H0.  The
    noise, the linearized pulse and the recoil use the boson engine's own
    dissipators on each spin block, so the comparison tests the frame
    phases and not the integrator.
    """
    derived = derive(config.drive)
    cool, noise = config.cool, config.noise
    h0 = frame_shift_diagonal(derived, cutoff)
    jumps = make_noise_jumps(noise, cutoff)
    H = h_qrm(derived, cutoff)
    H_c = h_red_sideband(cool.omega_c, cutoff)
    if jumps:
        drive = SplitStepPropagator(H, jumps, config.drive.tau).apply
        exact_pulse = SplitStepPropagator(H_c, jumps, cool.tau_c).apply
    else:
        U = unitary_propagator(H, config.drive.tau)
        U_c = unitary_propagator(H_c, cool.tau_c)
        drive = lambda rho: U @ rho @ U.conj().T
        exact_pulse = lambda rho: U_c @ rho @ U_c.conj().T
    if config.channel_mode == "exact":
        pulse = exact_pulse
    else:
        a = fs.build_boson_ops(cutoff)[0]
        pulse = Dissipator([0.5 * cool.omega_c * np.sqrt(cool.tau_c) * a]
                           + jumps, cool.tau_c).apply
    t_idle = cool.tau_d - cool.tau_c
    idle_noise = Dissipator(jumps, t_idle).apply if jumps else (lambda r: r)
    diffusion = recoil_diffusion(cutoff)

    def to_frame(rho, t):
        v = np.exp(1j * h0 * t)
        return v[:, None] * rho * v.conj()[None, :]

    rho = fs.embed_down(fs.thermal_state(config.initial.nbar, cutoff,
                                         eps=config.cutoff.eps))
    num = number_full(cutoff)
    t = t0
    nbar = []
    for _ in range(n_cycles):
        rho = drive(rho)
        t += config.drive.tau
        rho = pulse(to_frame(spin_reset(rho), t))
        rho = to_frame(rho, -(t + cool.tau_c))
        pup = p_up(rho)
        rho = fs.embed_down(recoil_kick(fs.trace_out_spin(rho), pup, noise,
                                        diffusion))
        rho = to_frame(idle_noise(rho), -t_idle)
        t += cool.tau_d
        nbar.append(fs.expectation(rho, num))
    return np.array(nbar)


@pytest.fixture
def composite_reference():
    return composite_cycles_nbar
