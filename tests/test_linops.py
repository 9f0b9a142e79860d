import ast
from pathlib import Path

import numpy as np
import pytest

import grushinlab
from grushinlab.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonConvergent,
    RankAmbiguous,
    SingularMatrix,
)
from grushinlab.linops import (
    Contour,
    as_cmatrix,
    contour_integrate,
    eigenvalues,
    is_singular,
    numerical_rank,
    rank_limit,
    singular_values,
    solve_linear,
    spectral_norm,
    svd,
    tolerance_from_sigma,
)


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_as_cmatrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_cmatrix(np.array([[1.0, np.inf]]))
    with pytest.raises(ValueError):
        as_cmatrix(np.array([[np.nan, 1.0]]))


def test_solve_identity():
    b = _random_complex(_rng(0), (3, 2))
    res = solve_linear(np.eye(3), b)
    assert np.allclose(res.solution, b)
    assert res.condition == pytest.approx(1.0)


def test_solve_diagonal():
    res = solve_linear(np.diag([2.0, 4.0]), np.array([[2.0], [8.0]]))
    assert np.allclose(res.solution, [[1.0], [2.0]])


def test_solve_random_residual():
    rng = _rng(7)
    a = _random_complex(rng, (20, 20)) + 5.0 * np.eye(20)
    b = _random_complex(rng, (20, 3))
    res = solve_linear(a, b)
    assert spectral_norm(a @ res.solution - b) <= 1e-12 * spectral_norm(b)


def test_solve_singular_raises():
    with pytest.raises(SingularMatrix):
        solve_linear(np.zeros((2, 2)), np.eye(2))


def test_solve_residual_scales_with_condition():
    rng = _rng(11)
    for seed in range(5):
        a = _random_complex(_rng(seed), (12, 12))
        if np.linalg.cond(a) > 1e6:
            continue
        b = _random_complex(_rng(seed + 100), (12, 2))
        res = solve_linear(a, b)
        assert spectral_norm(a @ res.solution - b) <= 1e-10 * res.condition * spectral_norm(b)


def test_svd_zero_matrix():
    dec = svd(np.zeros((2, 2)))
    assert np.allclose(dec.singular, 0.0)


def test_svd_diagonal():
    dec = svd(np.diag([3.0, 1.0]))
    assert np.allclose(dec.singular, [3.0, 1.0])
    assert np.allclose(np.abs(dec.left), np.eye(2))


def test_svd_reconstruction_and_unitarity():
    a = _random_complex(_rng(3), (10, 7))
    dec = svd(a)
    scale = max(1.0, spectral_norm(a))
    assert spectral_norm(dec.reconstruct() - a) <= 1e-12 * scale
    assert spectral_norm(dec.left.conj().T @ dec.left - np.eye(10)) <= 1e-12
    assert spectral_norm(dec.right_h @ dec.right_h.conj().T - np.eye(7)) <= 1e-12
    assert np.all(np.diff(dec.singular) <= 0)


def test_eigenvalues_diagonal():
    vals = np.sort_complex(eigenvalues(np.diag([1.0, 2.0, 3.0])))
    assert np.allclose(vals, [1.0, 2.0, 3.0])


def test_eigenvalues_nilpotent():
    j = np.diag(np.ones(3), k=1)
    assert np.max(np.abs(eigenvalues(j))) <= 1e-8


def test_eigenvalues_perturbed_jordan_quartic():
    # characteristic polynomial is lambda^4 - 1e-4, by cofactor expansion
    j = np.diag(np.ones(3), k=1).astype(complex)
    j[3, 0] = 1e-4
    vals = eigenvalues(j)
    expected = 0.1 * np.array([1.0, 1j, -1.0, -1j])
    for v in expected:
        assert np.min(np.abs(vals - v)) <= 1e-10


def test_eigenvalue_sum_matches_trace():
    for seed in range(5):
        a = _random_complex(_rng(seed), (9, 9))
        vals = eigenvalues(a)
        assert abs(vals.sum() - np.trace(a)) <= 1e-10 * spectral_norm(a) * 9


def test_rank_tolerance_and_ambiguity():
    s = np.array([1.0, 1e-8])
    with pytest.raises(RankAmbiguous):
        numerical_rank(s, 1e-8)
    assert numerical_rank(s, 1e-4) == 1
    assert numerical_rank(np.array([1.0, 0.0]), 1e-12) == 1
    a = np.diag([1.0, 1.0])
    assert tolerance_from_sigma(singular_values(a), a.shape) == pytest.approx(2 * np.finfo(float).eps * 8)
    rng = _rng(11)
    for shape in [(4, 4), (6, 3), (2, 5), (0, 3)]:
        sigma = singular_values(_random_complex(rng, shape))
        expected = max(shape) * sigma[0] * np.finfo(float).eps * 8 if sigma.size else 0.0
        assert tolerance_from_sigma(sigma, shape) == expected


@pytest.mark.parametrize("sigma, singular", [
    ([], True),                # no singular values: an empty matrix
    ([1.0, 0.0], True),        # sigma_min zero
    ([0.0, 0.0], True),        # the zero matrix
    ([1.0, 1e-3], False),      # condition 1e3, below the limit
    ([1e6, 1.0], True),        # condition 1e6, at the limit
])
def test_is_singular_flags_no_sigma_a_vanishing_sigma_min_and_the_limit(sigma, singular):
    assert is_singular(np.array(sigma), 1e6) is singular


def _reads(tree: ast.AST, name: str, where: str = "<module>"):
    """The enclosing function of every read or import of ``name`` in ``tree``."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _reads(node, name, node.name)
            continue
        if (isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load)
                or isinstance(node, ast.Attribute) and node.attr == name
                or isinstance(node, ast.alias) and node.name == name):
            yield where
        yield from _reads(node, name, where)


def test_only_certified_inverse_reads_the_certified_margin():
    # the LU certificate lives with the LU inverse; every other gate is the
    # plain rule on singular values
    sites = {
        (path.name, where)
        for path in sorted(Path(grushinlab.__file__).parent.glob("*.py"))
        for where in _reads(ast.parse(path.read_text()), "CERTIFIED_MARGIN")
    }
    assert sites == {("linops.py", "certified_inverse")}


@pytest.mark.parametrize("routine, call", [
    ("svd", lambda: singular_values(np.eye(2))),
    ("svd", lambda: svd(np.eye(2))),
    ("eigvals", lambda: eigenvalues(np.eye(2))),
], ids=["singular_values", "svd", "eigenvalues"])
def test_lapack_failure_raises_convergence_failure(monkeypatch, routine, call):
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{routine} did not converge")

    monkeypatch.setattr(np.linalg, routine, failing)
    with pytest.raises(ConvergenceFailure) as info:
        call()
    assert str(info.value) == f"{routine} did not converge"
    assert isinstance(info.value.__cause__, np.linalg.LinAlgError)


def test_rank_limit_is_the_condition_at_the_rank_tolerance():
    eps = np.finfo(float).eps
    assert rank_limit((3, 5)) == 1.0 / (8.0 * 5 * eps)
    assert rank_limit((4, 4), 8e3) == 1.0 / (8e3 * 4 * eps)
    assert rank_limit((0, 0)) == rank_limit((1, 1))
    sigma = np.array([2.0, 2.0 * 8.0 * 5 * eps])  # sigma_min at the rank tolerance of a 3 x 5 matrix
    assert sigma[-1] == tolerance_from_sigma(sigma, (3, 5))
    assert is_singular(sigma, rank_limit((3, 5)))
    assert not is_singular(sigma * [1.0, 1.01], rank_limit((3, 5)))


def test_contour_residue():
    c = Contour.circle(0.0, 1.0)
    val = contour_integrate(lambda z: 1.0 / z, c)
    assert abs(val - 2j * np.pi) <= 1e-10


def test_contour_constant_integrates_to_zero():
    for c in (Contour.circle(0.3 + 0.1j, 2.0), Contour.polyline([0, 1, 1 + 1j, 1j])):
        assert abs(contour_integrate(lambda z: 1.0, c, tol=1e-13)) <= 1e-12


def test_contour_two_poles_one_inside():
    c = Contour.circle(0.0, 1.0)
    val = contour_integrate(lambda z: 1.0 / (z - 0.3) + 1.0 / (z - 5.0), c)
    assert abs(val - 2j * np.pi) <= 1e-8


def test_contour_polynomial_zero():
    coeffs = [2.0 - 1j, 0.5, 3.0]
    f = lambda z: coeffs[0] + coeffs[1] * z + coeffs[2] * z**2
    scale = max(abs(c) for c in coeffs)
    for c in (Contour.circle(1.0, 1.5), Contour.polyline([-1, 2, 2 + 2j, -1 + 2j])):
        assert abs(contour_integrate(f, c)) <= 1e-10 * scale


def test_contour_polyline_winding_count():
    # plain trapezoid on a polyline is second order, so ask for a matching tol
    square = Contour.polyline([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])
    val = contour_integrate(lambda z: 1.0 / (z - 0.2), square, tol=1e-8)
    assert abs(val - 2j * np.pi) <= 1e-7
    assert square.contains(0.2)
    assert not square.contains(3.0)


def test_contour_nonconvergent_reports_estimates():
    c = Contour.circle(0.0, 1.0, nodes=8)
    with pytest.raises(NonConvergent) as info:
        contour_integrate(lambda z: 1.0 / (z - 1.0 - 1e-9), c, tol=1e-14, node_cap=64)
    assert len(info.value.args) == 3


def test_nonconvergent_estimates_are_the_last_two():
    c = Contour.circle(0.0, 1.0, nodes=8)
    f = lambda z: 1.0 / (z - 1.0 - 1e-9)
    with pytest.raises(NonConvergent) as info:
        contour_integrate(f, c, tol=1e-14, node_cap=64)
    previous, last = info.value.estimates
    for estimate, n in ((previous, 32), (last, 64)):
        z, w = c.quadrature(n)
        assert estimate == complex(np.sum(np.array([f(zk) for zk in z]) * w))
    assert info.value.args == ("no convergence at 64 nodes", previous, last)


def test_cap_at_start_is_a_clear_error():
    asked = []

    def f(z):
        asked.append(z)
        return 1.0

    with pytest.raises(ValueError, match="node_cap must exceed the 64 starting nodes"):
        contour_integrate(f, Contour.circle(0, 1), node_cap=64)
    assert asked == []


def test_contour_validation():
    with pytest.raises(ValueError):
        Contour.circle(0.0, -1.0)
    with pytest.raises(ValueError):
        Contour.circle(0.0, 1.0, nodes=4)
    with pytest.raises(ValueError):
        Contour.polyline([0.0, 1.0])


def test_contour_node_count_is_an_integer():
    # 8.5 would give a circle a first rule of 9 nodes weighted 2 pi / 8.5,
    # and a polyline numpy's TypeError at its first integral
    for nodes in (8.5, 64.0, "64"):
        with pytest.raises(ValueError, match="is not an integer"):
            Contour.circle(0.0, 1.0, nodes)
    with pytest.raises(ValueError, match="is not an integer"):
        Contour("polyline", points=(0, 1, 1j), nodes=8.5)
    with pytest.raises(ValueError, match="node count must be >= 8"):
        Contour.circle(0.0, 1.0, np.int64(7))
    assert Contour.circle(0.0, 1.0, np.int64(8)).quadrature(8)[0].size == 8


def test_solve_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        solve_linear(np.eye(3), np.eye(2))
