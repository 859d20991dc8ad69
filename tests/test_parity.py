"""The parity -sigma_z (-1)^n that the drive and the sideband conserve: the
structural facts the parity-chain propagators rest on."""

import numpy as np
import pytest
from dataclasses import replace

from iondpt.channels import NoiseParams, sector_propagators
from iondpt.fockspace import FockCutoff
from iondpt.model import (CoolParams, DriveParams, derive, h_qrm,
                          h_red_sideband)
from iondpt.protocol import (CutoffPolicy, ExperimentConfig, InitialState,
                             _jittered_drive, config_with_coupling,
                             run_cycles)

DRIVE = DriveParams.from_khz(26.0, 24.0, 9.0, 20.0)
COOL = CoolParams.from_khz(20.0, 5.0, 13.0)
NOISE = NoiseParams(heating_rate=1e-3, dephasing_rate=1e-3, recoil_enabled=True)


def test_sector_hamiltonians_real_tridiagonal():
    cfg = ExperimentConfig(drive=DRIVE, cool=COOL, jitter_sigma=0.02, seed=5)
    drives = [DRIVE, _jittered_drive(cfg)]
    assert drives[1] != DRIVE
    for n_max in range(1, 61):
        cut = FockCutoff(n_max)
        b = cut.bdim
        # sector p: spin (n + p) % 2 at boson n, composite index spin*b + n
        chains = [[(n + p) % 2 * b + n for n in range(b)] for p in (0, 1)]
        hams = [h_qrm(derive(d), cut) for d in drives]
        for H in hams + [h_red_sideband(COOL.omega_c, cut)]:
            sector_propagators(H, 1.0)   # accepts H
            for p in (0, 1):
                block = H[np.ix_(chains[p], chains[p])]
                assert np.all(block.imag == 0)
                assert np.all(block == block.T)
                assert np.all(np.triu(block, 2) == 0)
                assert np.all(H[np.ix_(chains[p], chains[1 - p])] == 0)


@pytest.mark.parametrize("mode,noise", [
    ("exact", NOISE), ("exact", NoiseParams()), ("lindblad", NoiseParams()),
    ("lindblad", replace(NOISE, recoil_enabled=False))],
    ids=["exact-noisy", "exact", "linearized", "linearized-noisy"])
def test_odd_offsets_stay_zero(mode, noise):
    """Every stage is phase-covariant, so rho_m never gains odd offsets."""
    cfg = config_with_coupling(ExperimentConfig(
        drive=DRIVE, cool=COOL, noise=noise, channel_mode=mode,
        initial=InitialState(kind="thermal", nbar=1.0), max_cycles=30,
        cutoff=CutoffPolicy(n_max=20, eps=1e-2)), 1.2)
    rho = run_cycles(cfg).final_state
    n = np.arange(rho.shape[0])
    odd = np.subtract.outer(n, n) % 2 == 1
    assert np.abs(rho[odd]).max() <= 1e-14
    assert np.abs(rho[~odd]).max() > 1e-3
