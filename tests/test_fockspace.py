import numpy as np
import pytest

from iondpt import fockspace as fs
from iondpt.fockspace import FockCutoff, StateValidityError

from helpers import (build_spin_ops, is_valid_density_matrix, ket, number_full,
                     projector, tensor)


def test_cutoff_dimensions():
    cut = FockCutoff(30)
    assert cut.bdim == 31
    assert cut.dim == 62
    with pytest.raises(ValueError):
        FockCutoff(0)


def test_boson_ops_small():
    a, adag, num = fs.build_boson_ops(FockCutoff(1))
    assert np.allclose(a, [[0, 1], [0, 0]])
    assert np.allclose(adag, a.conj().T)
    a2, _, num2 = fs.build_boson_ops(FockCutoff(2))
    assert a2[1, 2] == pytest.approx(np.sqrt(2))
    a3, _, num3 = fs.build_boson_ops(FockCutoff(3))
    assert np.allclose(num3, np.diag([0, 1, 2, 3]))


def test_spin_ops_algebra():
    sp, sm, sz, p_down = build_spin_ops()
    assert np.allclose(sp @ sm, np.diag([0, 1]))
    down = np.array([1, 0])
    assert np.allclose(sz @ down, -down)
    assert np.allclose(sp @ sm - sm @ sp, sz)
    assert np.allclose(p_down, np.diag([1, 0]))


def test_tensor_ordering_and_errors():
    cut = FockCutoff(3)
    sp, _, sz, _ = build_spin_ops()
    a, _, _ = fs.build_boson_ops(cut)
    assert np.allclose(tensor(np.eye(2), np.eye(cut.bdim)), np.eye(cut.dim))
    up3 = ket(cut, 1, 3)
    assert np.allclose(tensor(sz, np.eye(cut.bdim)) @ up3, up3)
    # tensor(sigma_plus, a)|down,1> = |up,0>
    out = tensor(sp, a) @ ket(cut, 0, 1)
    assert np.allclose(out, ket(cut, 1, 0))
    with pytest.raises(ValueError):
        tensor(np.eye(3), np.eye(4))
    with pytest.raises(ValueError):
        tensor(np.eye(2), np.ones((2, 3)))


def test_tensor_mixed_product_rule():
    rng = np.random.default_rng(7)
    s1, s2 = rng.normal(size=(2, 2, 2)) + 1j * rng.normal(size=(2, 2, 2))
    b1, b2 = rng.normal(size=(2, 5, 5)) + 1j * rng.normal(size=(2, 5, 5))
    lhs = tensor(s1, b1) @ tensor(s2, b2)
    rhs = tensor(s1 @ s2, b1 @ b2)
    assert np.allclose(lhs, rhs)


def test_expectation_examples():
    cut = FockCutoff(8)
    num = number_full(cut)
    vac = projector(cut, 0, 0)
    assert fs.expectation(vac, num) == pytest.approx(0.0)
    sp, sm, _, _ = build_spin_ops()
    excited = tensor(sp @ sm, np.eye(cut.bdim))
    up2 = projector(cut, 1, 2)
    assert fs.expectation(up2, excited) == pytest.approx(1.0)


def test_expectation_imaginary_residue():
    cut = FockCutoff(2)
    rho = projector(cut, 0, 1)
    obs = np.zeros((cut.dim, cut.dim), dtype=complex)
    obs[1, 1] = 1j  # corrupt observable forces an imaginary trace
    with pytest.raises(StateValidityError):
        fs.expectation(rho, obs)


def test_thermal_state_geometric():
    cut = FockCutoff(40)
    rho = fs.thermal_state(1.0, cut)
    p = np.real(np.diag(rho))
    assert p[0] == pytest.approx(0.5, abs=1e-10)
    assert p[1] == pytest.approx(0.25, abs=1e-10)
    assert p[2] == pytest.approx(0.125, abs=1e-10)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    num = np.diag(np.arange(cut.bdim)).astype(complex)
    assert fs.expectation(rho, num) == pytest.approx(1.0, abs=1e-9)


def test_thermal_state_mean_and_tail():
    cut = FockCutoff(80)
    rho = fs.thermal_state(5.0, cut)
    num = np.diag(np.arange(cut.bdim)).astype(complex)
    assert fs.expectation(rho, num) == pytest.approx(5.0, abs=1e-4)
    assert fs.tail_mass(fs.thermal_state(1.0, FockCutoff(40)).diagonal(),
                        1) == pytest.approx(0.5, abs=1e-10)
    with pytest.raises(ValueError):
        fs.thermal_state(5.0, FockCutoff(10))  # tail exceeds eps
    with pytest.raises(ValueError):
        fs.thermal_state(-1.0, cut)


def test_thermal_state_zero_is_vacuum():
    rho = fs.thermal_state(0.0, FockCutoff(5))
    assert rho[0, 0] == pytest.approx(1.0)
    assert np.trace(rho).real == pytest.approx(1.0)


def test_trace_out_spin():
    cut = FockCutoff(3)
    rho = projector(cut, 0, 1)
    assert np.allclose(fs.trace_out_spin(rho), np.diag([0, 1, 0, 0]))
    mix = 0.5 * projector(cut, 0, 0) + 0.5 * projector(cut, 1, 1)
    assert np.allclose(fs.trace_out_spin(mix), np.diag([0.5, 0.5, 0, 0]))


def test_trace_out_spin_purity_contraction():
    cut = FockCutoff(2)
    psi = (ket(cut, 0, 0) + ket(cut, 1, 1)) / np.sqrt(2)
    rho = np.outer(psi, psi.conj())
    rho_m = fs.trace_out_spin(rho)
    assert np.trace(rho_m).real == pytest.approx(1.0)
    purity_in = np.trace(rho @ rho).real
    purity_out = np.trace(rho_m @ rho_m).real
    assert purity_out < purity_in
    # boson coherence between 0 and 1 is destroyed by the partial trace
    assert abs(rho_m[0, 1]) < 1e-14


def test_tail_mass_full_space():
    cut = FockCutoff(4)
    rho = 0.5 * projector(cut, 0, 4) + 0.5 * projector(cut, 1, 0)
    rho_m = fs.trace_out_spin(rho)
    assert fs.tail_mass(rho_m.diagonal(), 4) == pytest.approx(0.5)
    assert fs.tail_mass(rho_m.diagonal(), 0) == pytest.approx(1.0)


@pytest.mark.parametrize("n_max", [1, 6, 7])
def test_parity_blocks_round_trip(n_max):
    """rho_m without odd offsets is its two parity blocks, stacked even
    above odd; populations reads their diagonals in level order."""
    b = n_max + 1
    rng = np.random.default_rng(n_max)
    rho = rng.normal(size=(b, b)) + 1j * rng.normal(size=(b, b))
    odd = np.subtract.outer(np.arange(b), np.arange(b)) % 2 == 1
    rho[odd] = 0.0
    state = fs.to_blocks(rho)
    h = (b + 1) // 2
    assert state.shape == (b, h)
    assert np.array_equal(state[:h], rho[::2, ::2])
    assert np.array_equal(state[h:, :b // 2], rho[1::2, 1::2])
    assert np.array_equal(fs.from_blocks(state), rho)
    assert np.array_equal(fs.populations(state), rho.diagonal())


def test_check_density_matrix():
    cut = FockCutoff(2)
    good = projector(cut, 0, 0)
    fs.check_density_matrix(good)
    assert is_valid_density_matrix(good)

    bad_trace = 2.0 * good
    with pytest.raises(StateValidityError):
        fs.check_density_matrix(bad_trace)

    bad_herm = good.astype(complex).copy()
    bad_herm[0, 1] = 1e-3
    with pytest.raises(StateValidityError):
        fs.check_density_matrix(bad_herm)

    bad_pos = np.diag([1.5, -0.5, 0, 0, 0, 0]).astype(complex)
    with pytest.raises(StateValidityError):
        fs.check_density_matrix(bad_pos)
