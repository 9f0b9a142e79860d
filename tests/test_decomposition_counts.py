"""Each rank or well-posedness decision costs one SVD of the matrix in question,
or none where an inverse or a decomposition already computed certifies it."""

import numpy as np
import pytest

from grushinlab.bvp1d import (
    Discretization,
    bvp_grushin,
    dn_trace_identity,
    n2d_map,
    neumann_green_solve,
    potential_from_name,
)
from grushinlab.cli import seeded_loop_family
from grushinlab.core import (
    Split,
    assemble,
    feshbach_effective,
    invert_system,
    iterate,
    recover_resolvent,
    schur_check,
    transfer,
)
from grushinlab.errors import DimensionMismatch
from grushinlab.linops import Contour, solve_linear
from grushinlab.perturbation import gaussian_matrix, jordan_block
from grushinlab.pseudoinverse import canonical_borders
from grushinlab.pseudospectra import (
    estimate_check,
    projector_grushin,
    pseudospectrum_grid,
    resolvent_bound,
)
from grushinlab.traces import (
    HolomorphicFamily,
    LoopFamily,
    count_direct,
    count_effective,
    invariant_subspace_borders,
    loop_trace_identity,
    weighted_trace,
)


def _record_svds(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        calls.append((np.array(a), kwargs.get("compute_uv", True)))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return calls


def _record_shapes(monkeypatch, name):
    shapes = []
    real = getattr(np.linalg, name)

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, recording)
    return shapes


def _grid(m):
    return Discretization(0.0, np.pi, m, potential_from_name("harmonic", 0.0, np.pi))


def test_boundary_map_checks_neumann_matrix_once(monkeypatch):
    d = _grid(20)
    calls = _record_svds(monkeypatch)
    n2d_map(d, -1.0 + 0.5j)
    assert len(calls) == 1


def test_misshaped_neumann_load_is_rejected_before_any_svd(monkeypatch):
    d = _grid(20)
    calls = _record_svds(monkeypatch)
    for load in (np.ones(d.m + 1), np.ones((d.m + 3, 2)), 1.0):
        with pytest.raises(DimensionMismatch, match=f"load must have {d.m + 2} entries"):
            neumann_green_solve(d, -1.0, load)
    assert calls == []


def test_bvp_grushin_builds_reference_from_checked_matrix(monkeypatch):
    m = 20
    d = _grid(m)
    calls = _record_svds(monkeypatch)
    bvp_grushin(d, -1.0 + 0.5j)
    # the Neumann check (m + 2) and invert_system (m + 4); the rest are 2x2 norms
    assert sum(min(a.shape) >= m + 2 for a, _ in calls) == 2


def test_bvp_n2d_solves_the_boundary_problem_once(monkeypatch, tmp_path):
    # at m = 120: one Neumann gate and refined solve (m + 2), one bordered
    # gate and refined inverse (m + 4), the 2 x 2 residual norm and ||N|| for its bound
    from grushinlab.cli import run

    svds, solves = _record_shapes(monkeypatch, "svd"), _record_shapes(monkeypatch, "solve")
    assert run(["bvp-n2d", "--out", str(tmp_path / "n2d.json")]) == 0
    assert svds == [(122, 122), (124, 124), (2, 2), (2, 2)]
    assert solves == [(122, 122), (122, 122), (124, 124), (124, 124)]


def test_dn_trace_identity_inverts_each_node_twice_and_makes_no_svd(monkeypatch):
    m = 20
    d = _grid(m)
    # encloses two Neumann and one Dirichlet eigenvalue, and every node certifies
    contour = Contour.circle(1.5, 1.2)
    svds = _record_svds(monkeypatch)
    invs, eigs, solves = (_record_shapes(monkeypatch, k) for k in ("inv", "eigvalsh", "solve"))
    assert dn_trace_identity(d, contour) == (1, 1)
    assert svds == []
    assert eigs == [(m + 2, m + 2), (m, m)]
    assert set(solves) == {(2, 2)}
    nodes = len(invs) // 2
    assert invs == [(m + 2, m + 2), (m, m)] * nodes
    # the nested trapezoid rule evaluates contour.nodes * 2^k nodes, k >= 1
    doublings = np.log2(nodes / contour.nodes)
    assert doublings >= 1 and doublings == int(doublings)


def _split_system():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return a, np.linalg.inv(a)


@pytest.mark.parametrize("decide, decided", [
    (lambda a, b: solve_linear(a, np.ones((6, 1))), lambda a: a),
    (lambda a, b: schur_check(a, b, 2), lambda a: a[2:, 2:]),
    (lambda a, b: feshbach_effective(a, Split((0, 1)), 0.5, cross_check=False),
     lambda a: 0.5 * np.eye(4) - a[2:, 2:]),
], ids=["solve_linear", "schur_check", "feshbach_effective"])
def test_each_decision_makes_one_sigma_only_svd(monkeypatch, decide, decided):
    a, b = _split_system()
    calls = _record_svds(monkeypatch)
    decide(a, b)
    decisions = [uv for x, uv in calls if np.array_equal(x, decided(a))]
    # schur_check then measures its residual with one more sigma-only SVD, of size 2
    assert decisions == [False] and all(not uv and x.shape == (2, 2) for x, uv in calls[1:])


def test_recover_resolvent_decides_with_one_svd_of_the_effective_hamiltonian(monkeypatch):
    a, _ = _split_system()
    rng = np.random.default_rng(6)
    system = assemble(a, rng.standard_normal((6, 2)), rng.standard_normal((2, 6)))
    inverse = invert_system(system)
    calls = _record_svds(monkeypatch)
    recover_resolvent(system, inverse)
    # the decision, then the residual norm
    assert [(x.shape, uv) for x, uv in calls] == [((2, 2), False), ((6, 6), False)]
    assert np.array_equal(calls[0][0], inverse.e_minus_plus)


@pytest.mark.parametrize("compose", [
    lambda inverse, rng: transfer(inverse, rng.standard_normal((6, 3)), rng.standard_normal((3, 6))),
    lambda inverse, rng: iterate(inverse, rng.standard_normal((2, 1)), rng.standard_normal((1, 2))),
], ids=["transfer", "iterate"])
def test_transfer_and_iterate_invert_once_through_invert_system(monkeypatch, compose):
    rng = np.random.default_rng(3)
    inverse = invert_system(assemble(rng.standard_normal((6, 6)), rng.standard_normal((6, 2)),
                                     rng.standard_normal((2, 6))))
    calls = _record_svds(monkeypatch)
    solves = _record_shapes(monkeypatch, "solve")
    compose(inverse, rng)
    # the well-posedness gate and one refined solve of the transfer or inner system
    assert [uv for _, uv in calls] == [False]
    assert solves == [calls[0][0].shape] * 2


def test_resolvent_cell_decomposes_shifted_matrix_once(monkeypatch):
    a = jordan_block(10)
    lam = 0.5 + 0.1j
    shifted = a - lam * np.eye(10)
    calls = _record_svds(monkeypatch)
    resolvent_bound(a, lam, 1e-2)
    # the full SVD alone: sigma_min and every decision read it
    assert [uv for x, uv in calls if np.array_equal(x, shifted)] == [True]


def _cell_svds(n, k):
    """(shape, with vectors) of every SVD one pseudospectrum cell with k >= 1
    captured directions makes: the full SVD of A - lam and sigma_min of E_-+.
    The full SVD gives sigma_min, the rank gate and the borders, its residual
    bounds decide the three norm hypotheses, and the bordered inverse
    certifies its own well-posedness gate."""
    return [((n, n), True), ((k, k), False)]


def _two_jordan_blocks():
    return np.kron(np.eye(2), jordan_block(8))


@pytest.mark.parametrize("a, k", [(jordan_block(10), 1), (_two_jordan_blocks(), 2)])
def test_resolvent_cell_makes_two_svds(monkeypatch, a, k):
    calls = _record_svds(monkeypatch)
    cell = resolvent_bound(a, 0.5 + 0.1j, 1e-2)
    assert cell.n_captured == k
    assert [(x.shape, uv) for x, uv in calls] == _cell_svds(a.shape[0], k)


def test_grid_cells_make_two_svds_each(monkeypatch):
    a = jordan_block(10)
    calls = _record_svds(monkeypatch)
    grid = pseudospectrum_grid(a, (0.45, 0.55, -0.05, 0.05), 2, ("fixed", 1e-2))
    assert [cell.n_captured for cell in grid.cells] == [1, 1, 1, 1]
    assert [(x.shape, uv) for x, uv in calls] == _cell_svds(10, 1) * 4


@pytest.mark.parametrize("a, k", [(jordan_block(10), 1), (_two_jordan_blocks(), 2)])
def test_estimate_check_makes_no_bordered_svd(monkeypatch, a, k):
    calls = _record_svds(monkeypatch)
    estimate_check(a, 0.5 + 0.1j, 1e-2, 4)
    # the full SVD of A - lam alone, nothing of size n + k
    assert [(x.shape, uv) for x, uv in calls] == _cell_svds(a.shape[0], k)[:1]


@pytest.mark.parametrize("trials", [0, -1])
def test_estimate_check_rejects_trials_below_one_before_any_svd(monkeypatch, trials):
    calls = _record_svds(monkeypatch)
    with pytest.raises(ValueError, match=f"^trials must be at least 1, got {trials}$"):
        estimate_check(jordan_block(10), 0.5 + 0.1j, 1e-2, trials)
    assert calls == []


def test_grid_cells_equal_resolvent_bound_cells():
    for a in (jordan_block(10), _two_jordan_blocks()):
        for rule in (("fixed", 1e-2), ("sigma-scaled", 3.0)):
            grid = pseudospectrum_grid(a, (0.45, 0.55, -0.05, 0.05), 3, rule)
            for cell in grid.cells:
                assert cell.error is None and cell.n_captured >= 1
                assert cell == resolvent_bound(a, cell.lam, cell.h)
                emp = projector_grushin(a, cell.lam, cell.h).inverse.e_minus_plus
                assert cell.norm_eff_inv == 1.0 / np.linalg.svd(emp, compute_uv=False)[-1]


@pytest.mark.parametrize("a, rectangle, h", [
    (jordan_block(10), (0.45, 0.55, -0.05, 0.05), 1e-2),
    (gaussian_matrix(12, 2) / np.sqrt(12), (-0.5, 0.5, -0.5, 0.5), 0.1),
], ids=["jordan", "gaussian"])
def test_each_cell_reads_one_sigma_of_a_minus_lambda(a, rectangle, h):
    # sigma_min, the captured count and the sigma-scaled h come from the
    # singular values of the full SVD of A - lam, bit for bit
    factor = 3.0
    fixed, scaled = (pseudospectrum_grid(a, rectangle, 4, rule) for rule in (("fixed", h), ("sigma-scaled", factor)))
    for cell, scaled_cell in zip(fixed.cells, scaled.cells):
        sigma = np.linalg.svd(np.asarray(a, dtype=complex) - cell.lam * np.eye(a.shape[0]))[1]
        for got, threshold in ((cell, h), (resolvent_bound(a, cell.lam, h), h), (scaled_cell, factor * sigma[-1])):
            assert got.error is None and got.sigma_min == sigma[-1] and got.h == threshold
            assert got.n_captured == np.count_nonzero(sigma <= threshold)
    assert any(cell.n_captured for cell in fixed.cells)


def _stacked_svds(calls):
    return [x.shape for x, _ in calls if x.ndim == 3]


def test_counting_integrals_make_no_stacked_svd(monkeypatch):
    # well posed at every node: each node's inverse certifies its gate
    a = gaussian_matrix(12, 5) / np.sqrt(12)
    contour = Contour.circle(0.1 - 0.05j, 0.6)
    family = HolomorphicFamily.pencil(a)
    rm, rp = invariant_subspace_borders(a, contour)
    calls = _record_svds(monkeypatch)
    assert count_direct(family, contour) == count_effective(family, rm, rp, contour) > 0
    weighted_trace(family, rm, rp, contour, lambda z: z)
    assert _stacked_svds(calls) == []


def _per_stack(solves, *shapes):
    """The solves expected when each node stack of size s makes one solve of
    each (s,) + shape, in that order; the stack sizes are read off ``solves``."""
    sizes = [solves[i][0] for i in range(0, len(solves), len(shapes))]
    return [(s,) + shape for s in sizes for shape in shapes]


def test_counting_integrals_make_one_bordered_solve_per_stack(monkeypatch):
    # one unrefined LU inverse of each bordered M, then the E_-+ solve; the
    # weighted trace adds the direct half's solve of P against I (P' = I)
    a = gaussian_matrix(12, 5) / np.sqrt(12)
    contour = Contour.circle(0.1 - 0.05j, 0.6)
    family = HolomorphicFamily.pencil(a)
    rm, rp = invariant_subspace_borders(a, contour)
    n, k = 12, rm.shape[1]
    solves = _record_shapes(monkeypatch, "solve")
    assert count_effective(family, rm, rp, contour) == k == 2
    assert solves and solves == _per_stack(solves, (n + k, n + k), (k, k))
    solves.clear()
    weighted_trace(family, rm, rp, contour, lambda z: z)
    assert solves and solves == _per_stack(solves, (n, n), (n + k, n + k), (k, k))


def _record_rhs_widths(monkeypatch):
    """(order of the matrix, columns of the right-hand side) of every solve."""
    widths = []
    real = np.linalg.solve

    def recording(a, b, *args, **kwargs):
        widths.append((np.shape(a)[-1], np.shape(b)[-1]))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", recording)
    return widths


def test_direct_count_solves_against_i_alone_where_p_prime_is_the_identity(monkeypatch):
    # a pencil's P' = I: P X = I; any other P', here 2 I and a loop's, keeps [P' | I]
    a = gaussian_matrix(12, 5) / np.sqrt(12)
    contour = Contour.circle(0.1 - 0.05j, 0.6)
    pencil = HolomorphicFamily.pencil(a)
    doubled = HolomorphicFamily(lambda z: 2.0 * pencil.value(z), lambda z: 2.0 * pencil.derivative(z))
    widths = _record_rhs_widths(monkeypatch)
    count = count_direct(pencil, contour)
    assert widths and set(widths) == {(12, 12)}
    widths.clear()
    assert count_direct(doubled, contour) == count
    assert widths and set(widths) == {(12, 24)}
    widths.clear()
    loop = seeded_loop_family(4, 7000, False)
    n = loop.system(0.0).n_rows
    loop_trace_identity(loop)
    assert {w for m, w in widths if m == n} == {2 * n}


def test_reported_floats_make_one_solve_of_the_bordered_matrix(monkeypatch):
    # the loop trace and the pseudospectrum cell invert as a counting node does: one unrefined LU solve
    loop = seeded_loop_family(4, 7000, False)
    system = loop.system(0.0)
    n, size, k = system.n_rows, system.assembled().shape[0], system.k_plus
    solves = _record_shapes(monkeypatch, "solve")
    loop_trace_identity(loop)
    assert solves and solves == _per_stack(solves, (n, n), (size, size), (k, k))
    solves.clear()
    cell = resolvent_bound(jordan_block(10), 0.5 + 0.1j, 1e-2)
    assert solves == [(1, 10 + cell.n_captured, 10 + cell.n_captured)]


@pytest.mark.parametrize("winding", [False, True])
def test_loop_identity_makes_one_stacked_svd_for_its_certificate(monkeypatch, winding):
    loop = seeded_loop_family(4, 7000, winding)
    size = loop.system(0.0).assembled().shape[0]
    calls = _record_svds(monkeypatch)
    grids = []
    disc_system = LoopFamily.disc_system

    def recording(self, t, s):
        grids.append(t.shape)
        return disc_system(self, t, s)

    monkeypatch.setattr(LoopFamily, "disc_system", recording)
    loop_trace_identity(loop)
    # the 17 x 9 certificate grid in one evaluation, and no SVD at the quadrature nodes
    assert grids == [(17 * 9,)]
    assert _stacked_svds(calls) == [(17 * 9, size, size)]


def test_canonical_borders_decomposes_p_once(monkeypatch):
    # the default tolerance comes from the singular values of the full SVD
    rng = np.random.default_rng(5)
    p = rng.standard_normal((6, 4)) @ rng.standard_normal((4, 8))
    calls = _record_svds(monkeypatch)
    assert canonical_borders(p).rank == 4
    assert [(x.shape, with_vectors) for x, with_vectors in calls] == [((6, 8), True)]
