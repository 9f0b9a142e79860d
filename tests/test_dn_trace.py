"""The Neumann-minus-Dirichlet trace identity: the exact boundary-map
derivative, the spectral node gate against the plain SVD rule, and counts
against the eigenvalue tally."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from grushinlab.bvp1d import (
    Discretization,
    _boundary_map_and_derivative,
    _node_check,
    dirichlet_matrix,
    dn_trace_identity,
    n2d_map,
    neumann_matrix,
    potential_from_name,
    tabulated_potential,
)
from grushinlab.errors import OnContourSingular
from grushinlab.linops import Contour, eigenvalues, tolerance_from_sigma

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@pytest.mark.parametrize("z", [-1.0 + 0.5j, 2.5 + 0.3j, 0.5 - 1.2j])
def test_exact_derivative_matches_richardson_difference(z):
    d = Discretization(0.0, np.pi, 40, potential_from_name("harmonic", 0.0, np.pi))
    a_n = neumann_matrix(d, 0.0)
    x_n = np.linalg.inv(z * np.eye(d.m + 2) - a_n)
    n_val, n_dot = _boundary_map_and_derivative(x_n, d.step)
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
