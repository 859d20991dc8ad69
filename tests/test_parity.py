"""The parity -sigma_z (-1)^n that the drive and the sideband conserve: the
structural facts the parity-chain propagators and the parity-block state
rest on."""

import numpy as np
import pytest
from dataclasses import replace

from iondpt import model
from iondpt.channels import NoiseParams
from iondpt.fockspace import FockCutoff
from iondpt.model import CoolParams, DriveParams, derive
from iondpt.protocol import (CutoffPolicy, ExperimentConfig, InitialState,
                             _jittered_drive, config_with_coupling, run)

import helpers
from conftest import composite_cycles

DRIVE = DriveParams.from_khz(26.0, 24.0, 9.0, 20.0)
COOL = CoolParams.from_khz(20.0, 5.0, 13.0)
NOISE = NoiseParams(heating_rate=1e-3, dephasing_rate=1e-3, recoil_enabled=True)
PROBE = 2 * COOL.omega_c


def test_sector_hamiltonians_real_tridiagonal():
    """model's (d, e) pairs are the parity sectors of the composite
    Kronecker references, which have no cross-sector elements."""
    cfg = ExperimentConfig(drive=DRIVE, cool=COOL, jitter_sigma=0.02, seed=5)
    drives = [DRIVE, _jittered_drive(cfg)]
    assert drives[1] != DRIVE
    for n_max in range(1, 61):
        cut = FockCutoff(n_max)
        p, n = np.indices((2, cut.bdim))
        # sector p: spin (n + p) % 2 at boson n, composite index spin*b + n
        idx = (n + p) % 2 * cut.bdim + n
        builds = [("h_qrm", derive(d)) for d in drives] + [
            ("h_red_sideband", COOL.omega_c), ("h_blue_sideband", PROBE)]
        for name, x in builds:
            d, e = getattr(model, name)(x, cut)
            H = getattr(helpers, name)(x, cut)
            blocks = H[idx[:, :, None], idx[:, None, :]]
            assert np.all(blocks.imag == 0)
            assert np.all(blocks == blocks.swapaxes(1, 2))
            assert np.all(np.triu(blocks, 2) == 0)
            assert np.all(H[idx[:, :, None], idx[::-1, None, :]] == 0)
            tol = 1e-15 * np.abs(H).max()
            assert np.abs(d - np.diagonal(blocks, 0, 1, 2).real).max() <= tol
            assert np.abs(e - np.diagonal(blocks, 1, 1, 2).real).max() <= tol


CASES = pytest.mark.parametrize("mode,noise", [
    ("exact", NOISE), ("exact", NoiseParams()), ("lindblad", NoiseParams()),
    ("lindblad", replace(NOISE, recoil_enabled=False))],
    ids=["exact-noisy", "exact", "linearized", "linearized-noisy"])


def parity_config(mode, noise, cycles):
    return config_with_coupling(ExperimentConfig(
        drive=DRIVE, cool=COOL, noise=noise, channel_mode=mode,
        initial=InitialState(kind="thermal", nbar=1.0), max_cycles=cycles,
        cutoff=CutoffPolicy(n_max=20, eps=1e-2)), 1.2)


@CASES
def test_odd_offsets_stay_zero(mode, noise):
    """Every stage is phase-covariant, so rho_m never gains odd offsets:
    the composite reference maps, which act on the whole spin (x) boson
    state, keep them at zero, which is what lets the engine carry rho_m as
    its two parity blocks."""
    cfg = parity_config(mode, noise, 30)
    rho = composite_cycles(cfg, FockCutoff(20), 30, 0.0, chain=False)[2]
    n = np.arange(rho.shape[0])
    odd = np.subtract.outer(n, n) % 2 == 1
    assert np.abs(rho[odd]).max() <= 1e-14
    assert np.abs(rho[~odd]).max() > 1e-3


@CASES
def test_engine_matches_composite_reference(mode, noise):
    """The parity-block engine against the composite reference over 50
    cycles: nbar and p_up per cycle and the reassembled final rho_m."""
    cfg = parity_config(mode, noise, 50)
    traj = run(cfg)
    assert traj.n_max == 20
    nbar, pup, rho = composite_cycles(cfg, FockCutoff(20), 50, 0.0)
    assert np.abs(traj.nbar - nbar).max() <= 1e-12
    assert np.abs(traj.p_up - pup).max() <= 1e-12
    assert np.abs(traj.final_state - rho).max() <= 1e-12
