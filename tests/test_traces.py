import math
import re

import numpy as np
import pytest

from grushinlab.core import assemble, invert_system
from grushinlab.errors import (
    ContractionCertificateFails,
    DimensionMismatch,
    IllPosedOnContour,
    NonConvergent,
    NonInteger,
    OnContourSingular,
    SingularAtNode,
)
from grushinlab.linops import Contour, doubling_quadrature, eigenvalues, periodic_rule, spectral_norm
from grushinlab import traces
from grushinlab.perturbation import gaussian_matrix, jordan_block, rank_one_coupling
from grushinlab.traces import (
    POISSON_TOL,
    HolomorphicFamily,
    LoopFamily,
    _obstruction_sums,
    borders_from_base_point,
    count_direct,
    count_effective,
    gaussian_test,
    invariant_subspace_borders,
    loop_trace_identity,
    poisson_verify,
    selfadjoint_obstruction,
    sinc_squared,
    weighted_trace,
)


def _unit_borders(n):
    rm = np.zeros((n, 1), complex)
    rm[-1, 0] = 1.0
    rp = np.zeros((1, n), complex)
    rp[0, 0] = 1.0
    return rm, rp


def _one_by_one(f):
    """The node array z -> the stack of 1 x 1 matrices [[f(z_k)]]."""
    return lambda z: np.asarray(f(z), dtype=complex).reshape(-1, 1, 1)


def test_family_consistency_check():
    probes = np.array([0.3, 1j, -0.5])
    good = HolomorphicFamily(_one_by_one(lambda z: z**2), _one_by_one(lambda z: 2 * z))
    assert good.check_consistency(probes) == (1, 1)
    bad = HolomorphicFamily(_one_by_one(lambda z: z**2), _one_by_one(lambda z: 3 * z))
    with pytest.raises(ValueError, match=re.escape("derivative inconsistent with finite differences at z=(0.3+0j)")):
        bad.check_consistency(probes)


def test_count_direct_scalar_cases():
    one = HolomorphicFamily(_one_by_one(lambda z: z), _one_by_one(lambda z: np.ones_like(z)))
    assert count_direct(one, Contour.circle(0.0, 1.0)) == 1
    a, b = 0.2, -0.4 + 0.1j
    two = HolomorphicFamily(_one_by_one(lambda z: (z - a) * (z - b)), _one_by_one(lambda z: 2 * z - a - b))
    assert count_direct(two, Contour.circle(0.0, 1.0)) == 2


def test_count_direct_matches_eigen_tally():
    a = gaussian_matrix(12, 5) / np.sqrt(12)
    contour = Contour.circle(0.1 - 0.05j, 0.6)
    tally = sum(1 for v in eigenvalues(a) if contour.contains(v))
    assert count_direct(HolomorphicFamily.pencil(a), contour) == tally


def test_count_direct_on_contour_singular():
    a = np.diag([1.0, -1.0]).astype(complex)
    with pytest.raises(OnContourSingular):
        count_direct(HolomorphicFamily.pencil(a), Contour.circle(0.0, 1.0))


def test_count_direct_non_integer_for_nonholomorphic_family():
    # a family built from conj(z) is not holomorphic: the integral cannot land
    # on an integer (the derivative check along real steps still passes)
    fam = HolomorphicFamily(
        _one_by_one(lambda z: z + 0.2 * np.conj(z) - 0.3), _one_by_one(lambda z: np.full_like(z, 1.2))
    )
    with pytest.raises(NonInteger):
        count_direct(fam, Contour.circle(0.3, 0.5))


def test_count_effective_jordan_multiplicity():
    n = 5
    rm, rp = _unit_borders(n)
    fam = HolomorphicFamily.pencil(jordan_block(n))
    assert count_effective(fam, rm, rp, Contour.circle(0.0, 0.5)) == 5


def test_count_effective_feshbach_split():
    h = np.array([[1.0, 0.1], [0.1, 3.0]], dtype=complex)
    low = 2.0 - np.sqrt(1.01)
    rminus = np.array([[1.0], [0.0]], dtype=complex)
    rplus = rminus.conj().T
    fam = HolomorphicFamily.pencil(h)
    assert count_effective(fam, rminus, rplus, Contour.circle(low, 0.05)) == 1


def test_count_effective_empty_contour():
    a = gaussian_matrix(6, 2) / np.sqrt(6)
    contour = Contour.circle(10.0, 0.5)
    rm, rp = borders_from_base_point(HolomorphicFamily.pencil(a), 10.0, tol=1e-3)
    assert rm.shape[1] == 0
    assert count_effective(HolomorphicFamily.pencil(a), rm, rp, contour) == 0


def test_count_effective_base_point_borders():
    a = gaussian_matrix(9, 8) / np.sqrt(9)
    vals = eigenvalues(a)
    target = vals[np.argmin(np.abs(vals - 0.2))]
    gaps = np.sort(np.abs(vals - target))
    radius = 0.45 * gaps[1]
    fam = HolomorphicFamily.pencil(a)
    rm, rp = borders_from_base_point(fam, complex(target), tol=1e-4)
    contour = Contour.circle(complex(target), radius)
    assert count_effective(fam, rm, rp, contour) == 1
    assert count_direct(fam, contour) == 1


def test_invariant_subspace_borders_multi_eigenvalue():
    a = gaussian_matrix(10, 21) / np.sqrt(10)
    contour = Contour.circle(0.0, 0.8)
    tally = sum(1 for v in eigenvalues(a) if contour.contains(v))
    assert tally >= 2
    rm, rp = invariant_subspace_borders(a, contour)
    fam = HolomorphicFamily.pencil(a)
    assert count_effective(fam, rm, rp, contour) == tally == count_direct(fam, contour)


def test_weighted_trace_reduces_to_count():
    a = np.diag([0.2, 0.7]).astype(complex)
    contour = Contour.circle(0.0, 1.0)
    rm, rp = invariant_subspace_borders(a, contour)
    fam = HolomorphicFamily.pencil(a)
    wt = weighted_trace(fam, rm, rp, contour, np.ones_like)
    assert wt.direct == pytest.approx(2.0, abs=1e-9)
    assert wt.difference <= 1e-9


def test_weighted_trace_eigenvalue_sum():
    a = np.diag([0.2, 0.7]).astype(complex)
    contour = Contour.circle(0.0, 1.0)
    rm, rp = invariant_subspace_borders(a, contour)
    wt = weighted_trace(HolomorphicFamily.pencil(a), rm, rp, contour, lambda z: z)
    assert wt.direct == pytest.approx(0.9, abs=1e-9)
    assert wt.difference <= 1e-8


def test_weighted_trace_perturbed_jordan_cloud_sum():
    # the three cube roots of 1e-3 sum to zero
    a = jordan_block(3) + 1e-3 * rank_one_coupling(3)
    contour = Contour.circle(0.0, 0.3)
    rm, rp = invariant_subspace_borders(a, contour)
    wt = weighted_trace(HolomorphicFamily.pencil(a), rm, rp, contour, lambda z: z)
    assert abs(wt.direct) <= 1e-8
    assert wt.difference <= 1e-8


def test_loop_constant_family():
    loop = LoopFamily.from_blocks(
        p={0: 2.0 * np.eye(2, dtype=complex)},
        rminus={0: np.array([[1.0], [0.0]], dtype=complex)},
        rplus={0: np.array([[1.0, 0.0]], dtype=complex)},
    )
    result = loop_trace_identity(loop)
    assert abs(result.trace_p) <= 1e-12
    assert abs(result.trace_effective) <= 1e-12


def test_loop_scalar_winding():
    loop = LoopFamily.from_blocks(
        p={1: np.array([[1.0]], dtype=complex)},
        rminus={0: np.array([[1.0]], dtype=complex)},
        rplus={0: np.array([[1.0]], dtype=complex)},
    )
    result = loop_trace_identity(loop)
    assert result.trace_p == pytest.approx(2j * np.pi, abs=1e-10)
    assert result.difference <= 1e-10


def test_loop_seeded_families():
    from grushinlab.cli import seeded_loop_family

    for i in range(6):
        loop = seeded_loop_family(4, 7000 + i, winding=i % 2 == 0)
        result = loop_trace_identity(loop)
        assert result.difference <= 1e-8
        winding = result.trace_p / (2j * np.pi)
        assert abs(winding - round(winding.real)) <= 1e-8


def test_loop_singular_at_node():
    loop = LoopFamily.from_blocks(
        p={0: np.array([[-1.0]], dtype=complex), 1: np.array([[1.0]], dtype=complex)},
        rminus={0: np.array([[1.0]], dtype=complex)},
        rplus={0: np.array([[1.0]], dtype=complex)},
    )
    with pytest.raises(SingularAtNode):
        loop_trace_identity(loop)


def test_loop_bordered_singular_at_node():
    # P = 1 with unit borders and corner 2 - e^{i(t - theta)}: det M = 1 - e^{i(t - theta)},
    # so the bordered matrix, and not P, is singular, at t = theta only (node 1 of
    # the first 64); its harmonic extension 1 - s e^{i(t - theta)} vanishes off the
    # certificate's 17 angles
    one = np.ones((1, 1), dtype=complex)
    corner = {0: 2.0 * one, 1: -np.exp(-2j * np.pi / 64) * one}
    loop = LoopFamily.from_blocks({0: one}, {0: one}, {0: one}, corner)
    with pytest.raises(SingularAtNode) as info:
        loop_trace_identity(loop)
    assert str(info.value) == "bordered matrix singular at t=0.0982"


def test_loop_certificate_failure():
    loop = LoopFamily.from_blocks(
        p={1: np.array([[1.0]], dtype=complex)},
        rminus=None,
        rplus=None,
    )
    with pytest.raises(ContractionCertificateFails):
        loop_trace_identity(loop)


def test_loop_certificate_reports_first_failing_point_in_s_then_t():
    times = 2.0 * np.pi * np.arange(17) / 17
    radii = np.linspace(0.0, 1.0, 9)
    # P = diag(1, p) with p(z) = (z - z1)(z - z2)(z - z3) on the disc, its roots at
    # three grid points: (t5, s3) comes first with s outer and t inner; (t2, s6)
    # would come first with t outer
    roots = [radii[s] * np.exp(1j * times[t]) for t, s in ((2, 6), (11, 3), (5, 3))]
    p = np.poly(roots)[::-1]  # coefficient of z^m at index m
    loop = LoopFamily.from_blocks({m: np.diag([m == 0, c]) for m, c in enumerate(p)}, None, None)
    with pytest.raises(ContractionCertificateFails) as info:
        loop_trace_identity(loop)
    assert str(info.value) == f"certificate matrix singular at t={times[5]:.3f}, s={radii[3]:.3f}"


@pytest.mark.parametrize(
    "rminus, rplus", [(np.zeros((3, 0)), [[1.0, 0.0, 0.0]]), ([[1.0], [0.0], [0.0]], np.zeros((0, 3)))]
)
def test_one_sided_empty_borders_are_a_dimension_mismatch(node_record, rminus, rplus):
    record = node_record(HolomorphicFamily.pencil(np.diag([0.1, 0.5, 0.9])))
    contour = Contour.circle(0.1, 0.2)
    with pytest.raises(DimensionMismatch, match="do not square P"):
        count_effective(record.family, rminus, rplus, contour)
    with pytest.raises(DimensionMismatch, match="do not square P"):
        weighted_trace(record.family, rminus, rplus, contour, lambda z: z)
    # raised at entry: per call, only the derivative check's two arrays of 3 probes
    assert [z.shape for z in record.asked["value"]] == [(3,)] * 4
    with pytest.raises(DimensionMismatch):
        invert_system(assemble(np.eye(3), rminus, rplus))


def _rectangular(z):
    return z[:, None, None] * np.eye(2, 3) + np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 2.0]])


@pytest.mark.parametrize("family, shape", [
    (HolomorphicFamily(_rectangular, lambda z: np.broadcast_to(np.eye(2, 3), (len(z), 2, 3))), (2, 3)),
    (HolomorphicFamily.pencil(np.zeros((0, 0))), (0, 0)),
], ids=["2x3", "0x0"])
def test_counts_need_a_square_nonempty_p(family, shape):
    contour = Contour.circle(0.0, 0.5)
    message = "^" + re.escape(f"P(z) has shape {shape} at the probe points, not square and nonempty") + "$"
    empty = np.zeros((shape[0], 0)), np.zeros((0, shape[1]))
    for count in (lambda: count_direct(family, contour), lambda: count_effective(family, *empty, contour),
                  lambda: weighted_trace(family, *empty, contour, lambda z: z)):
        with pytest.raises(DimensionMismatch, match=message):
            count()


@pytest.mark.parametrize("family, shapes", [
    (HolomorphicFamily(lambda z: np.eye(2), lambda z: np.eye(2)), "(2, 2), (2, 2)"),
    (HolomorphicFamily(lambda z: np.array([[z]]), lambda z: np.array([[1.0]])), "(1, 1, 3), (1, 1)"),
    (HolomorphicFamily(lambda z: z[:, None, None] * np.eye(2), lambda z: np.eye(2)), "(3, 2, 2), (2, 2)"),
], ids=["one-matrix", "scalar-lambda", "one-derivative"])
def test_a_family_without_one_matrix_per_node_fails_at_entry(family, shapes):
    contour = Contour.circle(0.0, 0.5)
    message = "^" + re.escape(f"P and P' have shapes {shapes} at 3 probe points, not one matrix per node") + "$"
    empty = np.zeros((2, 0)), np.zeros((0, 2))
    for count in (lambda: count_direct(family, contour), lambda: count_effective(family, *empty, contour),
                  lambda: weighted_trace(family, *empty, contour, lambda z: z)):
        with pytest.raises(DimensionMismatch, match=message):
            count()


def test_ill_posed_node_is_named_from_the_stack_index():
    # M(z) = [[z, 0, 1], [0, z - z3, 0], [1, 0, 0]] is singular exactly at the
    # fourth quadrature node z3
    contour = Contour.circle(0.0, 1.0)
    z3 = contour.quadrature(64)[0][3]
    family = HolomorphicFamily.pencil(np.diag([0.0, z3]))
    rm = np.array([[1.0], [0.0]], dtype=complex)
    with pytest.raises(IllPosedOnContour) as info:
        count_effective(family, rm, rm.T, contour)
    assert str(info.value) == f"bordered problem ill posed at node z={z3}"
    assert info.value.node == z3


def test_poisson_sinc_squared_three_way():
    result = poisson_verify(sinc_squared(), 2)
    assert result.support_ok
    assert abs(result.lattice_sum - 1.0) <= 1e-10
    assert abs(result.transform_sum - 1.0) <= 1e-10
    assert abs(result.monodromy_sum - 1.0) <= 1e-8
    assert max(result.discrepancies().values()) <= 1e-8
    assert abs(result.lattice_sum.imag) <= 1e-12


def test_poisson_gaussian_two_way():
    result = poisson_verify(gaussian_test(), 2)
    assert not result.support_ok
    assert result.monodromy_sum is None
    expected = sum(math.exp(-math.pi * n * n) for n in range(-6, 7))
    assert abs(result.lattice_sum - expected) <= 1e-12
    assert abs(result.lattice_sum - result.transform_sum) <= 1e-10


def test_poisson_test_functions_state_their_truncations():
    sinc, gauss = sinc_squared(), gaussian_test()
    assert (sinc.lattice_truncation, sinc.transform_truncation) == (1, 1)
    assert (sinc.lattice_tail, sinc.transform_tail) == (1e-30, 0.0)
    # fhat(2 pi m) = f(m): the transform sum takes the lattice's truncation
    assert (gauss.lattice_truncation, gauss.transform_truncation) == (4, 4)
    f_bound = lambda t: 2 * math.exp(-math.pi * t * t)
    assert gauss.lattice_tail == gauss.transform_tail == pytest.approx(f_bound(4), rel=1e-12)
    target = POISSON_TOL / 100
    assert max(sinc.lattice_tail, sinc.transform_tail, gauss.lattice_tail, gauss.transform_tail) <= target
    assert f_bound(3) > target
    far = np.arange(1, 201)
    for tail, samples in [(gauss.lattice_tail, gauss.value(far)),
                          (gauss.transform_tail, gauss.transform(2 * np.pi * far))]:
        assert 2 * math.fsum(samples[4:]) < tail


def test_obstruction_constant_profile():
    report = selfadjoint_obstruction(lambda x: 1.0, 0.5, np.linspace(-2, 2, 81))
    assert report.mean_value == pytest.approx(2 * np.pi, abs=1e-10)
    assert report.ordered_pairing == pytest.approx(2 * np.pi**2, abs=1e-8)
    assert report.identity_residual <= 1e-8 * 2 * np.pi**2
    assert report.crossings.size > 0
    for z in report.crossings:
        assert abs((report.ordered_pairing * np.exp(-1j * np.pi * z / 0.5)).real) <= 1e-6


def test_obstruction_odd_profile():
    report = selfadjoint_obstruction(lambda x: x - np.pi, 0.3, np.linspace(-1, 1, 41))
    assert abs(report.mean_value) <= 1e-8
    assert abs(report.ordered_pairing.real) <= 1e-8


def test_obstruction_indicator_profile():
    profile = lambda x: 1.0 if x < np.pi else (0.5 if x == np.pi else 0.0)
    report = selfadjoint_obstruction(profile, 0.2, np.linspace(-1, 1, 41))
    assert report.ordered_pairing == pytest.approx(np.pi**2 / 2.0, abs=1e-6)
    assert report.mean_value == pytest.approx(np.pi, abs=1e-8)


def _periodic_integral(f, tol, cap=2**16):
    """The loop integral of a scalar integrand in t."""
    return doubling_quadrature(lambda ts: [f(t) for t in ts], periodic_rule, 64, tol, cap)


def _periodic_once(f, n):
    """The loop rule's estimate at ``n`` nodes, without doubling."""
    ts, weights = periodic_rule(n)
    return complex(np.sum(np.array([f(t) for t in ts], dtype=np.complex128) * weights))


def _obstruction_once(profile, n: int) -> tuple[complex, complex]:
    """(A, B) on the n + 1 trapezoid nodes, every node evaluated afresh."""
    xs = np.linspace(0.0, 2.0 * np.pi, n + 1)
    return _obstruction_sums(xs, np.asarray([profile(x) for x in xs], dtype=np.complex128))


def test_obstruction_raises_at_node_cap(monkeypatch):
    # |sin x|^0.5 has square-root cusps at 0, pi and 2 pi, so the trapezoid
    # error decays like n^-1.5 and a tolerance of 1e-14 is out of reach at 2^12 nodes
    monkeypatch.setattr(traces, "OBSTRUCTION_TOL", 1e-14)
    monkeypatch.setattr(traces, "OBSTRUCTION_NODE_CAP", 2**12)
    profile = lambda x: abs(np.sin(x)) ** 0.5
    with pytest.raises(NonConvergent) as info:
        selfadjoint_obstruction(profile, 1.0, [0.0, 1.0])
    message, previous, last = info.value.args
    assert message == "no convergence at 4096 nodes"
    assert previous == _obstruction_once(profile, 2048)
    assert last == _obstruction_once(profile, 4096)


@pytest.mark.parametrize("profile, nodes", [
    (lambda x: 1.0, 1024),
    (lambda x: 1.0 if x < np.pi else (0.5 if x == np.pi else 0.0), 32768),
], ids=["const", "half"])
def test_obstruction_evaluates_each_node_once(profile, nodes):
    # the grids nest, so each doubling asks only for its odd-index nodes
    calls = []

    def counted(x):
        calls.append(x)
        return profile(x)

    report = selfadjoint_obstruction(counted, 0.1, [0.0, 1.0])
    assert len(calls) == len(set(calls)) == nodes + 1
    assert (report.ordered_pairing, report.mean_value) == _obstruction_once(profile, nodes)


def test_obstruction_rejects_a_profile_that_is_not_finite():
    # the first pass of 513 nodes already shows it: no doubling up to the cap
    calls = []

    def nan_profile(x):
        calls.append(x)
        return np.nan

    with pytest.raises(ValueError, match="^integrand is not finite at a quadrature node$"):
        selfadjoint_obstruction(nan_profile, 1.0, [0.0, 1.0])
    assert len(calls) == 513


@pytest.mark.parametrize("h", [0.0, -0.1, np.inf, np.nan])
def test_obstruction_needs_a_positive_finite_h(h):
    calls = []
    with pytest.raises(ValueError, match=f"^h must be positive and finite, got {h}$"):
        selfadjoint_obstruction(lambda x: calls.append(x) or 1.0, h, [0.0, 1.0])
    assert calls == []


def test_loop_quadrature_cap_reports_last_two_estimates():
    # the pole pair near t = 0 needs far more than 128 nodes at tol=1e-15
    f = lambda t: np.exp(1j * t) / (1.0001 - np.cos(t))
    with pytest.raises(NonConvergent) as info:
        _periodic_integral(f, tol=1e-15, cap=128)
    _, previous, last = info.value.args
    assert previous == _periodic_once(f, 64)
    assert last == _periodic_once(f, 128)
    assert previous != last


def _raw_loop(p, rminus, rplus):
    return LoopFamily(p, rminus, rplus, {0: np.zeros((1, 1))})


@pytest.mark.parametrize("p, error, build", [
    ({0: np.ones((1, 1)), 1: np.ones((2, 2))}, DimensionMismatch, LoopFamily.from_blocks),
    ({0: np.ones((1, 1)), 1: [[np.nan]]}, ValueError, LoopFamily.from_blocks),
    ({0: np.ones((2, 2))}, DimensionMismatch, LoopFamily.from_blocks),
    ({}, DimensionMismatch, LoopFamily.from_blocks),
    ({0.5: np.ones((1, 1)), 0: 3.0 * np.ones((1, 1))}, ValueError, LoopFamily.from_blocks),
    ({1.9: np.ones((1, 1))}, ValueError, LoopFamily.from_blocks),
    ({"1": np.ones((1, 1))}, ValueError, LoopFamily.from_blocks),
    ({0.5: np.ones((1, 1))}, ValueError, _raw_loop),
], ids=["mixed-shapes", "not-finite", "misfit-borders", "empty", "half-frequency", "fractional-frequency",
        "string-frequency", "raw-half-frequency"])
def test_loop_coefficients_are_checked_at_construction(p, error, build):
    # the borders fit a 1 x 1 P; each P here is caught before any loop node,
    # and a frequency that is not an integer would leave the loop open
    one = np.ones((1, 1))
    with pytest.raises(error):
        build(p, {0: one}, {0: one})


def test_loop_identity_is_scale_free():
    # M(0) - M(2 pi) is only the rounding of e^{2 pi i m}, which grows with
    # the coefficients: a loop of integer frequencies needs no closure test
    from grushinlab.cli import seeded_loop_family

    loop = seeded_loop_family(4, 7, True)
    blocks = ("p_coeffs", "rminus_coeffs", "rplus_coeffs", "corner_coeffs")
    scaled = LoopFamily(*({m: 1e5 * c for m, c in getattr(loop, b).items()} for b in blocks))
    result = loop_trace_identity(scaled)
    windings = np.array([result.trace_p, result.trace_effective]) / (2j * np.pi)
    assert np.allclose(windings, 4.0, rtol=0.0, atol=1e-8)


def test_loop_blocks_read_a_coefficient_as_the_constructor_does():
    # a 1-D or scalar coefficient is a one-row matrix, not an IndexError
    one = np.ones((1, 1))
    loop = LoopFamily.from_blocks({0: 2.0 * one, 1: one}, {0: [1.0]}, {0: [1.0]})
    reference = LoopFamily.from_blocks({0: 2.0 * one, 1: one}, {0: one}, {0: one})
    assert np.array_equal(loop.system(0.3).assembled(), reference.system(0.3).assembled())
