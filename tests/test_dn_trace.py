"""The Neumann-minus-Dirichlet trace identity: the O(m) pivot kernel and its
exact boundary-map derivative against the dense inverse, the spectral node
gate against the plain SVD rule, and counts against the eigenvalue tally."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grushinlab.bvp1d import (
    Discretization,
    _boundary_resolvents,
    _node_check,
    dirichlet_matrix,
    dn_trace_identity,
    n2d_map,
    neumann_matrix,
    potential_from_name,
    tabulated_potential,
)
from grushinlab.errors import OnContourSingular
from grushinlab.linops import EPS, Contour, eigenvalues, tolerance_from_sigma

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("z", [-1.0 + 0.5j, 2.5 + 0.3j, 0.5 - 1.2j])
def test_exact_derivative_matches_richardson_difference(z):
    d = Discretization(0.0, np.pi, 40, potential_from_name("harmonic", 0.0, np.pi))
    _, (n_val,), (n_dot,) = _boundary_resolvents(d, np.array([z]))
    assert np.allclose(n_val, n2d_map(d, z), rtol=1e-10, atol=0.0)

    def central(delta):
        return (n2d_map(d, z + delta) - n2d_map(d, z - delta)) / (2.0 * delta)

    delta = 1e-3
    richardson = (4.0 * central(delta / 2.0) - central(delta)) / 3.0
    assert np.allclose(n_dot, richardson, rtol=1e-7, atol=0.0)


def _spectra_of(d):
    return (
        np.sort(eigenvalues(neumann_matrix(d, 0.0)).real),
        np.sort(eigenvalues(dirichlet_matrix(d, 0.0)).real),
    )


@st.composite
def tabulated_grids(draw):
    """A grid on [0, 1] with m = 12..60 and a tabulated real potential, and
    one of its Neumann or Dirichlet eigenvalues."""
    m = draw(st.integers(12, 60))
    values = draw(st.lists(st.floats(-20.0, 20.0), min_size=m + 2, max_size=m + 2))
    d = Discretization(0.0, 1.0, m, tabulated_potential(0.0, 1.0, m, values))
    vals_n, vals_d = _spectra_of(d)
    neumann = draw(st.booleans())
    own = vals_n if neumann else vals_d
    return d, own[draw(st.integers(0, own.size - 1))]


def _assert_matches_the_dense_inverse(d, nodes):
    """The kernel's rows at ``nodes`` against np.linalg.inv of z - A_N and z - A_D.

    Both are backward stable: each is exact for some z - A + E with
    ||E|| <= m eps (|z| + ||A||), which moves X = (z - A)^{-1} by X E X to first
    order.  So the trace row may move by ||E|| sum 1/|z - lambda|^2 over both
    spectra, N = -(2/h) X_N[ends, ends] by (2/h) ||E|| / dist^2 and
    N' = (2/h) X_N[ends, :] X_N[:, ends] by (2/h) ||E|| / dist^3, dist the
    distance from z to the Neumann spectrum; the factor kappa(D)^2 = 2 of the
    nonsymmetric A_N and the constants stay inside the m of ||E||.
    """
    vals_n, vals_d = _spectra_of(d)
    norm = np.abs(np.concatenate([vals_n, vals_d])).max()
    a_n, a_d = neumann_matrix(d, 0.0), dirichlet_matrix(d, 0.0)
    traces, n_val, n_dot = _boundary_resolvents(d, nodes)
    ends = [0, -1]
    for k, z in enumerate(nodes):
        x_n = np.linalg.inv(z * np.eye(d.m + 2) - a_n)
        x_d = np.linalg.inv(z * np.eye(d.m) - a_d)
        backward = d.m * EPS * (abs(z) + norm)
        dist = np.abs(z - vals_n).min()
        inverse_square = np.sum(np.abs(z - np.concatenate([vals_n, vals_d])) ** -2.0)
        assert abs(traces[k] - (np.trace(x_n) - np.trace(x_d))) <= backward * inverse_square
        assert np.abs(n_val[k] + 2.0 / d.step * x_n[np.ix_(ends, ends)]).max() <= 2.0 / d.step * backward / dist**2
        assert np.abs(n_dot[k] - 2.0 / d.step * x_n[ends] @ x_n[:, ends]).max() <= 2.0 / d.step * backward / dist**3


@PROPERTY
@given(tabulated_grids(), st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(0.01, 1.0), st.booleans()),
                                   min_size=1, max_size=6))
def test_pivot_kernel_matches_the_dense_inverse(case, offsets):
    # the real nodes c +- r of the circle the counts use, and complex nodes
    # at least 1e-2 ||A|| off the real axis
    d, target = case
    spectra = np.concatenate(_spectra_of(d))
    gap = np.sort(np.abs(spectra - target))[1]
    assume(gap > 1e-2)
    scale = np.abs(spectra).max()
    nodes = [target + 0.4 * gap, target - 0.4 * gap]
    nodes += [target + scale * complex(x, y if up else -y) for x, y, up in offsets]
    _assert_matches_the_dense_inverse(d, np.array(nodes))


def test_exactly_zero_pivot_is_replaced_not_divided_by():
    # V = 0 and z = 2/h^2: every diagonal entry of A - z is exactly zero, so
    # the first forward and backward pivots are; z is 6.68 from both spectra
    d = Discretization(0.0, np.pi, 20, potential_from_name("zero", 0.0, np.pi))
    z = 2.0 / d.step**2
    assert np.all(np.diag(neumann_matrix(d, z)) == 0.0)
    nodes = np.array([z, z + 1e-300j])
    assert all(np.all(np.isfinite(row)) for row in _boundary_resolvents(d, nodes))
    _assert_matches_the_dense_inverse(d, nodes)
    # node 0 of the circle is z itself; the pass neither raises nor returns NaN
    contour = Contour.circle(z - 8.0, 8.0)
    assert contour.quadrature(contour.nodes)[0][0] == z
    vals_n, vals_d = _spectra_of(d)
    tally = sum(contour.contains(v) for v in vals_n) - sum(contour.contains(v) for v in vals_d)
    assert dn_trace_identity(d, contour) == (tally, tally)


@PROPERTY
@given(tabulated_grids())
def test_counts_equal_the_tally_around_one_eigenvalue(case):
    d, target = case
    vals_n, vals_d = _spectra_of(d)
    distances = np.abs(np.concatenate([vals_n, vals_d]) - target)
    gap = np.sort(distances)[1]  # the nearest eigenvalue other than the target
    assume(gap > 1e-2)
    contour = Contour.circle(target, 0.4 * gap)
    tally = sum(contour.contains(v) for v in vals_n) - sum(contour.contains(v) for v in vals_d)
    assert abs(tally) == 1
    assert dn_trace_identity(d, contour) == (tally, tally)


def _svd_rule(z, mats) -> bool:
    """The plain per-node rule: some z - A with sigma_min at or below 1e3
    times the rank tolerance."""
    for a in mats:
        sig = np.linalg.svd(z * np.eye(a.shape[0]) - a, compute_uv=False)
        if sig[-1] <= 1e3 * tolerance_from_sigma(sig, a.shape):
            return True
    return False


def _gate_rejects(z, check) -> bool:
    try:
        check(z)
    except OnContourSingular:
        return True
    return False


@PROPERTY
@given(tabulated_grids(), st.floats(0.0, 2.0 * np.pi))
def test_gate_decides_as_the_svd_rule_near_an_eigenvalue(case, angle):
    d, target = case
    a_n, a_d = neumann_matrix(d, 0.0), dirichlet_matrix(d, 0.0)
    check = _node_check(a_n, a_d)
    scale = np.abs(np.concatenate(_spectra_of(d))).max()
    for j in range(17):
        z = target + 10.0**-j * scale * np.exp(1j * angle)
        assert _gate_rejects(z, check) == _svd_rule(z, (a_n, a_d))


def test_gate_needs_an_svd_only_near_the_threshold(monkeypatch):
    d = Discretization(0.0, np.pi, 40, potential_from_name("harmonic", 0.0, np.pi))
    check = _node_check(neumann_matrix(d, 0.0), dirichlet_matrix(d, 0.0))
    target = _spectra_of(d)[1][0]
    svds = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        svds.append(a)
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    rejected = [_gate_rejects(target + 10.0**-j * (0.6 + 0.8j), check) for j in range(17)]
    # far nodes pass and the nearest fail; the eigenvalues decide every pass,
    # the nearest at twice the threshold, and only a rejection needs an SVD
    assert rejected[0] is False and rejected[-1] is True
    assert rejected == sorted(rejected)
    assert len(svds) == sum(rejected)


def test_stack_check_names_the_first_failing_node_neumann_first(monkeypatch):
    # V = 0: every Dirichlet eigenvalue is a Neumann one too, so at node 1
    # both matrices fail and node 2 fails as well; the first SVD, of z - A_N
    # at node 1, raises, and node 0 needs none
    d = Discretization(0.0, np.pi, 20, potential_from_name("zero", 0.0, np.pi))
    shared = _spectra_of(d)[1]
    check = _node_check(neumann_matrix(d, 0.0), dirichlet_matrix(d, 0.0))
    nodes = np.array([shared[3] + 1.0j, shared[3], shared[5]])
    shapes = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    with pytest.raises(OnContourSingular) as info:
        check(nodes)
    assert info.value.node == nodes[1]
    assert shapes == [(d.m + 2, d.m + 2)]


def _well():
    d = Discretization(0.0, np.pi, 60, potential_from_name("well", 0.0, np.pi))
    vals_n, vals_d = _spectra_of(d)
    return d, vals_d[0], min(np.min(np.abs(vals_n - vals_d[0])), vals_d[1] - vals_d[0])


def test_circle_through_a_dirichlet_only_eigenvalue_is_rejected():
    d, target, gap = _well()
    radius = 0.4 * gap
    # node 0 of every pass sits on the Dirichlet eigenvalue; no Neumann one is near
    contour = Contour.circle(target - radius, radius)
    node = contour.quadrature(contour.nodes)[0][0]
    with pytest.raises(OnContourSingular) as info:
        dn_trace_identity(d, contour)
    assert str(info.value) == f"contour node z={node} on a discrete spectrum"
    assert info.value.node == node


def test_node_on_the_spectrum_after_the_first_pass_is_rejected():
    d, target, gap = _well()
    radius = 0.4 * gap
    # node 1 of the 128-node pass, not one of the 64 starting nodes
    contour = Contour.circle(target - radius * np.exp(1j * np.pi / 64), radius)
    node = contour.quadrature(2 * contour.nodes)[0][1]
    with pytest.raises(OnContourSingular) as info:
        dn_trace_identity(d, contour)
    assert info.value.node == node
