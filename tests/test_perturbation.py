import numpy as np
import pytest

from grushinlab.core import assemble, invert_system
from grushinlab.errors import (
    BasisNotOrthonormal,
    ContractionViolated,
    DegenerateLeadingMatrix,
    OutsideConvergenceRegime,
)
from grushinlab.linops import eigenvalues, spectral_norm
from grushinlab.perturbation import (
    BlockJordanSpec,
    JordanSpec,
    gaussian_matrix,
    jordan_block,
    jordan_cloud,
    jordan_effective_exact,
    jordan_effective_series,
    jordan_vectors,
    lidskii_compare,
    lidskii_predict,
    neumann_effective,
    projected_inverse_blocks,
    rank_one_coupling,
)


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_jordan_vectors_at_zero():
    e_plus, e_minus = jordan_vectors(3, 0.0)
    assert np.allclose(e_plus, [1, 0, 0])
    assert np.allclose(e_minus, [0, 0, 1])
    j = jordan_block(3)
    assert np.allclose(j @ e_plus, 0)
    assert np.allclose(j.conj().T @ e_minus, 0)


def test_jordan_vectors_scalar_and_profile():
    e_plus, e_minus = jordan_vectors(1, 0.7)
    assert np.allclose(e_plus, [1.0]) and np.allclose(e_minus, [1.0])
    e_plus, _ = jordan_vectors(3, 0.5)
    assert np.allclose(e_plus, [1.0, 0.5, 0.25])


def test_commutator_signature():
    # [J, J*] e_+ = e_+ and [J, J*] e_- = -e_-
    j = jordan_block(4)
    comm = j @ j.conj().T - j.conj().T @ j
    e_plus, e_minus = jordan_vectors(4, 0.0)
    assert np.allclose(comm @ e_plus, e_plus)
    assert np.allclose(comm @ e_minus, -e_minus)


def test_effective_exact_unperturbed():
    spec = JordanSpec(5, 0.3, 0.0, np.zeros((5, 5)))
    assert jordan_effective_exact(spec) == pytest.approx(0.3**5)
    spec0 = JordanSpec(4, 0.0, 0.0, np.zeros((4, 4)))
    assert jordan_effective_exact(spec0) == pytest.approx(0.0)


def test_effective_exact_relative_accuracy():
    for n in (1, 5, 12, 20, 30):
        for lam in (0.9, 0.5 * np.exp(1j * 0.8), -0.85, 0.3j):
            spec = JordanSpec(n, lam, 0.0, np.zeros((n, n)))
            value = jordan_effective_exact(spec)
            assert abs(value - lam**n) <= 1e-12 * abs(lam**n)


def test_series_order_zero_and_one():
    rng = _rng(7)
    n = 6
    q = _random_complex(rng, (n, n))
    spec = JordanSpec(n, 0.2, 1e-6, q)
    assert jordan_effective_series(spec, 0).value == pytest.approx(0.2**n, rel=1e-12)
    e_plus, e_minus = jordan_vectors(n, 0.2)
    first = jordan_effective_series(spec, 1).value
    expected = 0.2**n - 1e-6 * (e_minus @ q @ e_plus)
    assert first == pytest.approx(expected, rel=1e-10)


def test_series_rank_one_at_origin():
    n = 5
    spec = JordanSpec.with_rank_one(n, 0.0, 1e-3)
    assert jordan_effective_series(spec, 1).value == pytest.approx(-1e-3)


def test_series_geometric_convergence_to_exact():
    n = 6
    spec = JordanSpec.with_gaussian(n, 0.2, 1e-6, seed=7)
    exact = jordan_effective_exact(spec)
    errors = []
    for order in range(5):
        errors.append(abs(jordan_effective_series(spec, order).value - exact))
    ratio_cap = jordan_effective_series(spec, 1).contraction + 1e-3
    for a, b in zip(errors[1:], errors):
        assert a <= ratio_cap * b + 1e-16


def test_series_regime_checks():
    with pytest.raises(OutsideConvergenceRegime):
        JordanSpec(3, 1.2, 0.0, np.zeros((3, 3)))
    spec = JordanSpec.with_gaussian(4, 0.5, 10.0, seed=1)
    with pytest.raises(OutsideConvergenceRegime):
        jordan_effective_series(spec, 2)


def test_root_consistency():
    # lam is an eigenvalue of J + eps Q exactly when the effective value vanishes
    n = 12
    spec = JordanSpec.with_gaussian(n, 0.0, 1e-8, seed=3)
    vals = eigenvalues(jordan_block(n) + spec.epsilon * spec.q)
    for lam in vals[np.abs(vals) < 0.9][:5]:
        probe = JordanSpec(n, lam, spec.epsilon, spec.q)
        assert abs(jordan_effective_exact(probe)) <= 1e-8
    off = JordanSpec(n, 0.5, spec.epsilon, spec.q)
    assert abs(jordan_effective_exact(off)) > 1e-4


def test_cloud_rank_one_exact_roots():
    cloud = jordan_cloud(4, 1e-4, "rank-one")
    expected = 0.1 * np.array([1.0, 1j, -1.0, -1j])
    for v in expected:
        assert np.min(np.abs(cloud.eigenvalues - v)) <= 1e-10
    assert np.max(np.abs(np.abs(cloud.eigenvalues) - 0.1)) <= 1e-10
    angles = np.sort(np.mod(np.angle(cloud.eigenvalues), 2 * np.pi))
    assert np.allclose(angles, [0.0, np.pi / 2, np.pi, 3 * np.pi / 2], atol=1e-9)


def test_cloud_zero_perturbation():
    cloud = jordan_cloud(6, 0.0, "rank-one")
    assert np.max(np.abs(cloud.eigenvalues)) <= 1e-10


def test_cloud_gaussian_annulus():
    cloud = jordan_cloud(50, 1e-10, "gaussian", seed=1)
    radius = (1e-10 * cloud.q_norm) ** (1.0 / 50.0)
    moduli = np.abs(cloud.eigenvalues)
    frac = np.mean((moduli >= 0.5 * radius) & (moduli <= 1.5 * radius))
    assert frac >= 0.9


def test_projected_inverse_blocks_closed_form():
    rng = _rng(11)
    n = 8
    basis = np.linalg.qr(_random_complex(rng, (n, 3)))[0]
    t = _random_complex(rng, (n, n))
    blocks = projected_inverse_blocks(t, basis)
    direct = invert_system(assemble(np.eye(n) - basis @ basis.conj().T @ t, basis, basis.conj().T))
    for blk, ref in (
        (blocks.e, direct.e), (blocks.e_plus, direct.e_plus),
        (blocks.e_minus, direct.e_minus), (blocks.e_minus_plus, direct.e_minus_plus),
    ):
        assert spectral_norm(blk - ref) <= 1e-11 * max(1.0, spectral_norm(ref))


def test_projected_inverse_blocks_degenerate_cases():
    rng = _rng(12)
    n = 5
    basis = np.linalg.qr(_random_complex(rng, (n, 2)))[0]
    blocks = projected_inverse_blocks(np.zeros((n, n)), basis)
    assert spectral_norm(blocks.e_minus_plus + np.eye(2)) <= 1e-14
    assert spectral_norm(blocks.e_plus - basis) == 0.0
    full = np.linalg.qr(_random_complex(rng, (n, n)))[0]
    t = _random_complex(rng, (n, n))
    blocks_full = projected_inverse_blocks(t, full)
    assert spectral_norm(blocks_full.e) <= 1e-12


def test_projected_inverse_rejects_bad_basis():
    with pytest.raises(BasisNotOrthonormal):
        projected_inverse_blocks(np.eye(3), np.ones((3, 2)))


def test_neumann_effective_range_in_span():
    rng = _rng(13)
    n = 6
    basis = np.linalg.qr(_random_complex(rng, (n, 2)))[0]
    t = basis @ _random_complex(rng, (2, n))  # range(T) inside span(basis)
    res = neumann_effective(t, basis, 4)
    closed = basis.conj().T @ t @ basis - np.eye(2)
    assert spectral_norm(res.value - closed) <= 1e-12
    assert res.contraction <= 1e-12


def test_neumann_effective_matches_direct():
    rng = _rng(14)
    n = 10
    basis = np.linalg.qr(_random_complex(rng, (n, 3)))[0]
    t0 = _random_complex(rng, (n, n))
    pi = basis @ basis.conj().T
    delta0 = spectral_norm((np.eye(n) - pi) @ t0)
    t = t0 * (0.3 / delta0)
    res = neumann_effective(t, basis, 20)
    direct = invert_system(assemble(np.eye(n) - t, basis, basis.conj().T))
    err = spectral_norm(res.value - direct.e_minus_plus)
    assert err <= res.tail_bound
    assert res.tail_bound <= 0.3**21 * spectral_norm(t) / 0.7 * (1.0 + 1e-12)


def test_neumann_effective_contraction_violated():
    rng = _rng(15)
    n = 5
    basis = np.linalg.qr(_random_complex(rng, (n, 1)))[0]
    t = 5.0 * _random_complex(rng, (n, n))
    with pytest.raises(ContractionViolated):
        neumann_effective(t, basis, 3)


def test_lidskii_predict_diagonal_leading():
    n, k = 3, 1
    dim = 2 * n + k
    q = np.zeros((dim, dim), dtype=complex)
    q[n - 1, 0] = 1.0
    q[2 * n - 1, n] = 4.0
    spec = BlockJordanSpec(n, k, 1e-6, q)
    preds = lidskii_predict(spec)
    moduli = np.sort(np.abs(preds))
    assert np.allclose(moduli[:3], 1e-2, rtol=1e-12)
    assert np.allclose(moduli[3:], (4e-6) ** (1.0 / 3.0), rtol=1e-12)


def test_lidskii_predict_zero_epsilon():
    q = gaussian_matrix(7, 0)
    spec = BlockJordanSpec(3, 1, 0.0, q)
    assert np.all(lidskii_predict(spec) == 0)


def test_lidskii_predict_swap_coupling():
    n, k = 2, 1
    dim = 2 * n + k
    q = np.zeros((dim, dim), dtype=complex)
    q[n - 1, n] = 1.0   # block (1,2) corner
    q[2 * n - 1, 0] = 1.0  # block (2,1) corner
    spec = BlockJordanSpec(n, k, 1e-4, q)
    preds = lidskii_predict(spec)
    # q = +-1, so the predictions are eps^(1/2) times the 4th-root pattern
    assert np.allclose(np.abs(preds), 1e-2, rtol=1e-12)
    pattern = 1e-2 * np.array([1.0, 1j, -1.0, -1j])
    for target in pattern:
        assert np.min(np.abs(preds - target)) <= 1e-12


def test_lidskii_predict_degenerate():
    q = np.zeros((7, 7), dtype=complex)
    q[2, 0] = 1.0
    q[5, 3] = 1.0  # equal leading eigenvalues
    with pytest.raises(DegenerateLeadingMatrix):
        lidskii_predict(BlockJordanSpec(3, 1, 1e-6, q))


def test_lidskii_compare_diagonal_leading_exponent():
    n, k = 3, 2
    dim = 2 * n + k
    q = np.zeros((dim, dim), dtype=complex)
    q[n - 1, 0] = 1.0
    q[2 * n - 1, n] = 4.0
    spec = BlockJordanSpec(n, k, 1e-5, q)
    comparison = lidskii_compare(spec, np.geomspace(1e-8, 1e-5, 7))
    assert 0.327 <= comparison.fitted_exponent <= 0.340


@pytest.mark.parametrize("eps_values", [[], [1e-6], [0.0, 1e-6, 0.0]])
def test_lidskii_compare_needs_two_nonzero_epsilons(eps_values):
    spec = BlockJordanSpec.with_gaussian(3, 1, 1e-5, seed=11)
    usable = sum(eps != 0.0 for eps in eps_values)
    with pytest.raises(ValueError, match=f"^fitting a slope needs at least two nonzero epsilons, got {usable}$"):
        lidskii_compare(spec, eps_values)


def test_lidskii_compare_random_q_error_shrinks():
    spec = BlockJordanSpec.with_gaussian(4, 1, 1e-5, seed=11)
    eps_values = [1e-8, 1e-6, 1e-5]
    comparison = lidskii_compare(spec, eps_values)
    errs = [r.max_modulus_rel_error for r in comparison.records]
    assert errs[0] <= 0.05
    assert errs[0] <= errs[-1]
