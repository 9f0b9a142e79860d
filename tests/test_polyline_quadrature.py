"""Clenshaw-Curtis panels on polylines: nested nodes, each node evaluated once,
and convergence at the library's default tolerances."""

import numpy as np
import pytest

from grushinlab import linops
from grushinlab.errors import NonConvergent
from grushinlab.linops import Contour, contour_integrate, eigenvalues
from grushinlab.perturbation import gaussian_matrix
from grushinlab.traces import (
    HolomorphicFamily,
    _probe_points,
    count_direct,
    count_effective,
    invariant_subspace_borders,
)

SQUARE = Contour.polyline([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])


@pytest.mark.parametrize("seed", range(4))
def test_square_pencil_counts_converge(seed):
    a = gaussian_matrix(8, seed)
    tally = sum(SQUARE.contains(v) for v in eigenvalues(a))
    family = HolomorphicFamily.pencil(a)
    rm, rp = invariant_subspace_borders(a, SQUARE)
    assert count_direct(family, SQUARE) == tally
    assert count_effective(family, rm, rp, SQUARE) == tally


def test_square_winding_at_default_tolerance():
    val = contour_integrate(lambda z: 1.0 / (z - 0.2), SQUARE)
    assert abs(val / (2j * np.pi) - 1.0) <= 1e-10


def test_triangle_integral_at_tight_tolerance():
    triangle = Contour.polyline([0.0, 3.0, 1.0 + 2.0j])
    val = contour_integrate(lambda z: np.exp(z) / (z - (1.2 + 0.6j)), triangle, tol=1e-13)
    assert abs(val - 2j * np.pi * np.exp(1.2 + 0.6j)) <= 1e-12 * abs(2j * np.pi * np.exp(1.2 + 0.6j))


@pytest.mark.parametrize("n", [8, 9, 64])
def test_polyline_rule_is_nested(n):
    pentagon = Contour.polyline([0.0, 2.0, 2.5 + 1.0j, 1.0 + 2.0j, -0.5 + 1.0j])
    coarse, _ = pentagon.quadrature(n)
    fine, weights = pentagon.quadrature(2 * n)
    assert coarse.size == 5 * n
    assert np.array_equal(fine[0::2], coarse)
    assert abs(weights.sum()) <= 1e-14


def test_polyline_integral_asks_each_node_once(node_record):
    # tr (z - A)^{-1} = 1/z + 1/(z - 3): both poles are at least one edge
    # half-length from the square, so the estimates at 64 and 128 nodes per
    # edge agree and the integral stops at 4 * 128 nodes
    record = node_record(HolomorphicFamily.pencil(np.diag([0.0, 3.0]).astype(complex)))
    assert count_direct(record.family, SQUARE) == 1
    stacks = record.stacks()
    nodes = np.concatenate(stacks)
    assert nodes.size == 4 * 128 and len(stacks) == 4 * 128 // linops.STACK_NODES
    assert set(nodes) == set(SQUARE.quadrature(128)[0])


def test_polyline_cap_bounds_the_total_node_count():
    # the pole sits on the right edge, so no estimate settles; 64 nodes per
    # edge double twice to 4 * 256 = 1024 nodes in all
    asked = []

    def f(z):
        asked.append(z)
        return 1.0 / (z - (1.0 + 0.3j))

    with pytest.raises(NonConvergent) as info:
        contour_integrate(f, SQUARE, node_cap=1024)
    assert info.value.args[0] == "no convergence at 1024 nodes"
    assert len(asked) == 1024


def test_polyline_cap_at_start_is_a_clear_error():
    # 64 starting nodes on each of the 4 edges already exceed the cap
    with pytest.raises(ValueError, match="node_cap must exceed the 256 starting nodes"):
        contour_integrate(lambda z: 1.0, SQUARE, node_cap=128)


def test_derivative_probes_spread_over_the_polyline():
    first, second, third = _probe_points(SQUARE)
    assert first == -1 - 1j
    # one probe on the right edge and one on the top edge
    assert second.real == 1.0 and third.imag == 1.0
