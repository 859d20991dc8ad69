import numpy as np
import pytest

from iondpt.fockspace import FockCutoff
from iondpt.model import (DriveParams, CoolParams, derive, khz, per_second,
                          omega_sb_for_coupling, h_qrm, h_red_sideband,
                          h_blue_sideband)

import helpers
from helpers import frame_shift_diagonal


def test_unit_conversions():
    assert khz(1.0) == pytest.approx(2 * np.pi * 1e-3)
    assert per_second(200.0) == pytest.approx(2e-4)


def test_drive_params_validation():
    with pytest.raises(ValueError):
        DriveParams.from_khz(24.0, 26.0, 9.0, 20.0)   # delta_b <= delta_r
    with pytest.raises(ValueError):
        DriveParams.from_khz(26.0, -1.0, 9.0, 20.0)   # delta_r <= 0
    with pytest.raises(ValueError):
        DriveParams.from_khz(26.0, 24.0, -9.0, 20.0)  # negative Rabi
    with pytest.raises(ValueError):
        DriveParams.from_khz(26.0, 24.0, 9.0, 0.0)    # zero duration


def test_cool_params_validation():
    with pytest.raises(ValueError):
        CoolParams.from_khz(-20.0, 5.0, 13.0)
    with pytest.raises(ValueError):
        CoolParams.from_khz(20.0, 5.0, 4.0)   # tau_d < tau_c
    CoolParams.from_khz(0.0, 5.0, 13.0)       # zero-amplitude pulse allowed


def test_derive_reference_point():
    # delta_b = 2pi*26 kHz, delta_r = 2pi*24 kHz, Omega_SB = 2pi*9 kHz
    d = DriveParams.from_khz(26.0, 24.0, 9.0, 20.0)
    der = derive(d)
    assert der.omega_a == pytest.approx(khz(25.0))
    assert der.omega_f == pytest.approx(khz(1.0))
    assert der.lam == pytest.approx(khz(4.5))
    assert der.ratio_r == pytest.approx(25.0)
    assert der.coupling_g == pytest.approx(1.8)


def test_coupling_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        db = rng.uniform(10.0, 400.0)
        dr = rng.uniform(1.0, db - 0.5)
        g = rng.uniform(0.1, 3.0)
        omega = omega_sb_for_coupling(g, khz(db), khz(dr))
        d = DriveParams(khz(db), khz(dr), omega, 20.0)
        assert derive(d).coupling_g == pytest.approx(g, rel=1e-12)
        # definition: g * sqrt(delta_b^2 - delta_r^2) = 2 Omega_SB
        assert g * np.sqrt(d.delta_b**2 - d.delta_r**2) == \
            pytest.approx(2 * d.omega_sb, rel=1e-12)


def test_h_qrm_decoupled_spectrum():
    d = DriveParams.from_khz(26.0, 24.0, 0.0, 20.0)
    der = derive(d)
    diag, off = h_qrm(der, FockCutoff(1))
    assert np.all(off == 0)
    w = np.sort(diag.ravel())
    expected = np.sort([-der.omega_a / 2, -der.omega_a / 2 + der.omega_f,
                        der.omega_a / 2, der.omega_a / 2 + der.omega_f])
    assert np.allclose(w, expected)


def test_h_qrm_coupling_element_and_hermiticity():
    d = DriveParams.from_khz(26.0, 24.0, 9.0, 20.0)
    der = derive(d)
    cut = FockCutoff(6)
    diag, off = h_qrm(der, cut)
    assert diag.shape == (2, cut.bdim) and off.shape == (2, cut.n_max)
    # a real symmetric tridiagonal sector is Hermitian by construction
    assert diag.dtype == off.dtype == np.float64
    # sector 1 starts |up,0>, |down,1>
    assert off[1, 0] == pytest.approx(der.lam)
    assert np.allclose(off, der.lam * np.sqrt(np.arange(1, cut.bdim)))


def test_h_red_sideband_elements():
    cut = FockCutoff(5)
    omega_c = khz(20.0)
    diag, off = h_red_sideband(omega_c, cut)
    # the link |up,0> - |down,1> opens sector 1
    assert off[1, 0] == pytest.approx(omega_c / 2)
    assert np.all(diag == 0)
    # |down, 0> is the dark state: sector 0 starts with no link
    assert off[0, 0] == 0.0
    # no pulse at Omega_c = 0, as CoolParams allows; a negative one is refused
    diag, off = h_red_sideband(0.0, cut)
    assert not diag.any() and not off.any()
    with pytest.raises(ValueError):
        h_red_sideband(-omega_c, cut)


def test_h_blue_sideband_elements_and_boundary():
    cut = FockCutoff(5)
    omega = khz(20.0)
    diag, off = h_blue_sideband(omega, cut)
    assert np.all(diag == 0)
    for n in range(cut.n_max):
        # |down, n> sits at position n of sector n % 2, |up, n+1> next to it
        assert off[n % 2, n] == pytest.approx(omega / 2 * np.sqrt(n + 1))
        assert off[1 - n % 2, n] == 0.0
    # the top |down, n_max> state has no truncated partner
    assert off.shape[1] == cut.n_max
    with pytest.raises(ValueError):
        h_blue_sideband(0.0, cut)


def test_frame_shift_matches_decoupled_hamiltonian():
    d = DriveParams.from_khz(51.0, 49.0, 0.0, 20.0)
    der = derive(d)
    cut = FockCutoff(4)
    assert np.allclose(np.diag(frame_shift_diagonal(der, cut)),
                       helpers.h_qrm(der, cut))


def test_frame_diagonal_structure():
    d = DriveParams.from_khz(51.0, 49.0, 10.0, 20.0)
    der = derive(d)
    cut = FockCutoff(3)
    diag = frame_shift_diagonal(der, cut)
    n = np.arange(cut.bdim)
    assert np.allclose(diag[:cut.bdim], -der.omega_a / 2 + der.omega_f * n)
    assert np.allclose(diag[cut.bdim:], +der.omega_a / 2 + der.omega_f * n)
