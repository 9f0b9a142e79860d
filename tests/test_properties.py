"""Property tests over random shapes, borders and corners."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grushinlab import pseudospectra
from grushinlab.core import (
    BorderedSystem,
    assemble,
    effective_index,
    invert_nodes,
    invert_system,
    iterate,
    recover_resolvent,
    transfer,
)
from grushinlab.errors import (
    GrushinLabError,
    IllPosed,
    InnerSingular,
    RankAmbiguous,
    ThresholdOnSingularValue,
    TransferSingular,
)
from grushinlab.linops import (
    EPS,
    WELL_POSED_LIMIT,
    Contour,
    _sigma,
    _svd,
    certified_inverse,
    condition_from_sigma,
    rank_limit,
    singular_gate,
    spectral_norm,
    tolerance_from_sigma,
)
from grushinlab.pseudospectra import (
    PseudospectrumCell,
    _shifted,
    _small_subspaces,
    _threshold_borders,
    _threshold_inverse,
    estimate_check,
    resolvent_bound,
)
from grushinlab.traces import (
    HolomorphicFamily,
    _log_derivative_trace,
    count_direct,
    count_effective,
    invariant_subspace_borders,
    weighted_trace,
)

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _unbordered(mats):
    """A square matrix, or a stack of them, as a bordered system with empty borders."""
    n = mats.shape[-1]
    return BorderedSystem(mats, np.zeros((n, 0)), np.zeros((0, n)), np.zeros((0, 0)))


@st.composite
def bordered_systems(draw):
    """1 to 8 bordered systems of one shape; some singular by a zero row."""
    n1, n2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k_minus = draw(st.integers(max(0, n2 - n1), max(0, n2 - n1) + 3))
    k_plus = n1 + k_minus - n2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    with_corner = draw(st.booleans())
    count = draw(st.integers(1, 8))
    singular = draw(st.sets(st.integers(0, count - 1), max_size=2))

    def block(rows, cols):
        return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))

    systems = []
    for i in range(count):
        p, rm = block(n2, n1), block(n2, k_minus)
        if i in singular:
            p[0], rm[0] = 0.0, 0.0
        corner = block(k_plus, k_minus) if with_corner else None
        systems.append(assemble(p, rm, block(k_plus, n1), corner))
    return systems


@PROPERTY
@given(bordered_systems())
def test_stacked_inversion_equals_invert_system(systems):
    stack = np.stack([s.assembled() for s in systems])
    # the systems as one, with a leading node axis on every block
    blocks = ("p", "rminus", "rplus", "corner")
    nodes = BorderedSystem(*(np.stack([getattr(s, b) for s in systems]) for b in blocks))
    assert np.array_equal(nodes.assembled(), stack)
    # blocks without the node axis repeat along it
    shared = np.stack([replace(systems[0], p=s.p).assembled() for s in systems])
    assert np.array_equal(replace(systems[0], p=nodes.p).assembled(), shared)
    singles = []
    for s in systems:
        try:
            singles.append(invert_system(s))
        except IllPosed as exc:
            singles.append(exc)
    first_bad = next((i for i, g in enumerate(singles) if isinstance(g, IllPosed)), None)
    try:
        full = invert_nodes(_unbordered(stack)).e
    except IllPosed as exc:
        assert exc.args[2] == first_bad
        assert exc.args[1] == singles[first_bad].args[1]
        with pytest.raises(IllPosed) as info:
            invert_nodes(nodes)
        assert info.value.args == exc.args
        return
    assert first_bad is None
    stacked = invert_nodes(nodes)
    for i, (system, ginv, inverse) in enumerate(zip(systems, singles, full)):
        mat, single = system.assembled(), invert_nodes(system)
        assert spectral_norm(inverse @ mat - np.eye(len(mat))) <= _round_trip_tolerance(ginv)
        assert np.array_equal(single.assembled(), inverse)
        for block in ("e", "e_plus", "e_minus", "e_minus_plus"):
            assert np.array_equal(getattr(stacked, block)[i], getattr(single, block))


def _well_posed(cond: float) -> bool:
    """The condition rule of ``is_singular``: a finite estimate below ``WELL_POSED_LIMIT``."""
    return bool(np.isfinite(cond)) and cond < WELL_POSED_LIMIT


def _well_posed_pairs(systems):
    """(system, inverse) for each system ``invert_system`` accepts."""
    for system in systems:
        try:
            yield system, invert_system(system)
        except IllPosed:
            pass


def _round_trip_tolerance(inverse):
    """64 m eps times the condition estimate, for the m x m assembled system."""
    return 64 * len(inverse.assembled()) * EPS * inverse.condition


@PROPERTY
@given(bordered_systems())
def test_invert_system_round_trip(systems):
    for system, inverse in _well_posed_pairs(systems):
        mat, full = system.assembled(), inverse.assembled()
        for candidate in (full, invert_nodes(_unbordered(mat)).e):
            assert spectral_norm(candidate @ mat - np.eye(len(mat))) <= _round_trip_tolerance(inverse)


@PROPERTY
@given(bordered_systems())
def test_recover_resolvent_residual(systems):
    for system, inverse in _well_posed_pairs(systems):
        if system.n_rows == system.n_cols:
            residual = recover_resolvent(system, inverse).residual
            assert residual <= _round_trip_tolerance(inverse)


def _block_tolerance(result, reference):
    """The round-trip bound of ``result`` scaled to the size of ``reference``."""
    return _round_trip_tolerance(result) * max(1.0, spectral_norm(reference.assembled()))


@PROPERTY
@given(bordered_systems(), st.integers(0, 2), st.integers(0, 2**32 - 1))
def test_transfer_there_and_back(systems, extra, seed):
    """Re-bordering by k +- extra random borders and back to the old ones
    gives the inverse with the old borders (and a zero corner: transfer
    always drops the corner).  The re-bordered problem must be well posed by
    :func:`invert_system`: the scale-free condition of the transfer system
    alone passes a transfer system that is zero up to rounding."""
    rng = np.random.default_rng(seed)
    for system in systems:
        shape_m, shape_p = (system.n_rows, system.k_minus + extra), (system.k_plus + extra, system.n_cols)
        rm = rng.standard_normal(shape_m) + 1j * rng.standard_normal(shape_m)
        rp = rng.standard_normal(shape_p) + 1j * rng.standard_normal(shape_p)
        try:
            reference = invert_system(assemble(system.p, system.rminus, system.rplus))
            invert_system(assemble(system.p, rm, rp))
            back = transfer(transfer(reference, rm, rp), system.rminus, system.rplus)
        except (IllPosed, TransferSingular):
            continue
        error = spectral_norm(back.assembled() - reference.assembled())
        assert error <= _block_tolerance(back, reference)


@PROPERTY
@given(bordered_systems())
def test_iterate_with_identity_inner_borders(systems):
    for system, inverse in _well_posed_pairs(systems):
        try:
            same = iterate(inverse, np.eye(system.k_minus), np.eye(system.k_plus))
        except InnerSingular:
            continue
        assert spectral_norm(same.assembled() - inverse.assembled()) <= _block_tolerance(same, inverse)


@PROPERTY
@given(bordered_systems())
def test_effective_index_is_k_plus_minus_k_minus(systems):
    for system, inverse in _well_posed_pairs(systems):
        try:
            report = effective_index(system, inverse)
        except RankAmbiguous:
            continue
        assert report.index == system.k_plus - system.k_minus


@st.composite
def threshold_cells(draw):
    """A, lam and h of one pseudospectrum cell: a complex Gaussian n x n A,
    n = 2..12, scaled by 10**s, s = 0..16, in which one or two rows are
    scaled by 10**-j, j = 0..18, and h = 10**(s - e), e = -2..16.  The
    bordered matrix's condition number then falls below the certified bound,
    between it and WELL_POSED_LIMIT, and beyond."""
    n, s = draw(st.integers(2, 12)), draw(st.integers(0, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    scalings = st.tuples(st.integers(0, n - 1), st.integers(0, 18))
    for row, j in draw(st.lists(scalings, min_size=1, max_size=2)):
        a[row] *= 10.0**-j
    lam = complex(*rng.standard_normal(2))
    return a * 10.0**s, lam, 10.0 ** (s - draw(st.integers(-2, 16)))


@PROPERTY
@given(threshold_cells())
def test_cell_inverse_decides_as_invert_system(cell):
    a, lam, h = cell
    shifted = _shifted(a, lam, h)
    try:
        full = _svd(shifted)
        u_small, v_small = _threshold_borders(shifted, full, h)
    except GrushinLabError:
        return  # the threshold and norm-hypothesis checks precede either inversion
    system = assemble(shifted, u_small, v_small.conj().T)
    try:
        reference = invert_system(system)
    except IllPosed as exc:
        with pytest.raises(IllPosed) as info:
            _threshold_inverse(shifted, u_small, v_small)
        assert info.value.args == exc.args
        return
    mat, inverse = system.assembled(), _threshold_inverse(shifted, u_small, v_small).assembled()
    assert spectral_norm(inverse @ mat - np.eye(len(mat))) <= _round_trip_tolerance(reference)


def _svd_rule_borders(shifted, full, h):
    """The norm hypotheses as one sigma-only SVD each decides them, with no
    residual bound first."""
    u_small, v_small = _small_subspaces(shifted, full, h)
    slack = 1.0 + 1e-8
    if u_small.shape[1]:
        if _sigma(shifted @ v_small)[0] > h * slack:
            raise IllPosed("||P pi_plus|| exceeds h")
        if _sigma(shifted.conj().T @ u_small)[0] > h * slack:
            raise IllPosed("||P* pi_minus|| exceeds h")
    v_large = full.right_h[full.singular > h, :].conj().T
    if v_large.shape[1] and _sigma(shifted @ v_large)[-1] < h / slack:
        raise IllPosed("lower bound off the captured subspace fails")
    return u_small, v_small


@st.composite
def placed_cells(draw):
    """A = Q1 diag(sigma) Q2^H with random unitary Q1, Q2, n = 2..12, sigma
    graded over 10**-g, g = 16..0, times 10**s, s = -4..4, a threshold h at
    a quarter step of that range (sigma_max / h up to 1e16, where the
    residual bounds leave some decisions to the SVD), and one or two singular
    values placed at h (1 +- 10**-j), j = 1..9; returns A, h and the smallest j."""
    n, g, s = draw(st.integers(2, 12)), 16 - draw(st.integers(0, 16)), draw(st.integers(-4, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma = 10.0 ** (s - g * rng.random(n))
    h = 10.0 ** (s - g * draw(st.integers(0, 4)) / 4)
    placed = st.tuples(st.integers(0, n - 1), st.integers(1, 9), st.sampled_from((-1.0, 1.0)))
    nearest = 10
    for i, j, sign in draw(st.lists(placed, min_size=1, max_size=2)):
        sigma[i], nearest = h * (1.0 + sign * 10.0**-j), min(nearest, j)
    q1, q2 = (np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0] for _ in range(2))
    return (q1 * sigma) @ q2.conj().T, h, nearest


def _outcome(call):
    """A cell's or an estimate's fields, or the type and message of its error."""
    try:
        out = call()
    except GrushinLabError as exc:
        return type(exc), str(exc)
    return repr(out) if isinstance(out, PseudospectrumCell) else (out.worst_ratio, out.ratios.tobytes())


@PROPERTY
@given(placed_cells())
def test_certified_norm_hypotheses_decide_as_the_svd(cell):
    a, h, nearest = cell
    calls = [lambda: resolvent_bound(a, 0.0, h), lambda: estimate_check(a, 0.0, h, 3)]
    certified = [_outcome(call) for call in calls]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pseudospectra, "_threshold_borders", _svd_rule_borders)
        assert [_outcome(call) for call in calls] == certified
    if nearest >= 8:
        assert certified[1][0] is ThresholdOnSingularValue


@st.composite
def graded_stacks(draw):
    """1 to 8 complex Gaussian n x n matrices, n = 1..12, in which one or two
    rows are scaled by 10**-j: j = 0..18 puts the condition number on both
    sides of the certified bound, of 1/(8 n eps) and of WELL_POSED_LIMIT, and
    j = 19 zeroes the row."""
    n, count = draw(st.integers(1, 12)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    scalings = st.tuples(st.integers(0, count - 1), st.integers(0, n - 1), st.integers(0, 19))
    for index, row, j in draw(st.lists(scalings, min_size=1, max_size=2)):
        mats[index, row] *= 0.0 if j == 19 else 10.0**-j
    return mats, rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))


def _sigmas(mats):
    """Singular values by plain numpy SVDs, one matrix at a time."""
    return [np.linalg.svd(m, compute_uv=False) for m in mats]


@PROPERTY
@given(graded_stacks())
def test_invert_nodes_decides_as_the_svd(stacks):
    mats, _ = stacks
    conds = [condition_from_sigma(s) for s in _sigmas(mats)]
    first_bad = next((i for i, cond in enumerate(conds) if not _well_posed(cond)), None)
    try:
        full = invert_nodes(_unbordered(mats)).e
    except IllPosed as exc:
        assert (exc.index, exc.condition) == (first_bad, conds[first_bad])
        return
    assert first_bad is None
    for mat, inverse in zip(mats, full):
        reference = invert_system(assemble(mat, [], []))
        assert spectral_norm(inverse @ mat - np.eye(len(mat))) <= _round_trip_tolerance(reference)


class _Fault(Exception):
    pass


def _log_derivative_traces(p, dp):
    """``_log_derivative_trace`` on a stack, after checking its gate against the
    rank tolerance on per-matrix SVDs; None where the gate rightly raised."""
    sigmas = _sigmas(p)
    first_bad = next((i for i, s in enumerate(sigmas) if s[-1] <= tolerance_from_sigma(s, p.shape[1:])), None)
    try:
        traces = _log_derivative_trace(p, dp, np.arange(len(p)), _Fault)
    except _Fault as exc:
        assert exc.args[0] == first_bad
        return None
    assert first_bad is None
    return traces, sigmas


@PROPERTY
@given(graded_stacks())
def test_log_derivative_trace_decides_as_the_svd(stacks):
    """For a general P' the trace read off the inverse agrees with the trace of
    solve(P, P') to rounding: each is within about n eps cond(P) ||P^{-1}|| ||P'||
    of tr(P^{-1} P'), and 8 n^2 eps cond(P) ||P^{-1}||_2 ||P'||_F bounds their distance."""
    p, dp = stacks
    checked = _log_derivative_traces(p, dp)
    if checked is None:
        return
    traces, sigmas = checked
    reference = np.trace(np.linalg.solve(p, dp), axis1=1, axis2=2)
    n = p.shape[-1]
    for trace, ref, s, d in zip(traces, reference, sigmas, dp):
        assert abs(trace - ref) <= 8 * n * n * EPS * (s[0] / s[-1]) / s[-1] * np.linalg.norm(d)


@PROPERTY
@given(graded_stacks())
def test_unit_derivative_trace_is_the_trace_of_the_inverse_bit_for_bit(stacks):
    # a pencil's P' = I: the row sums of P^{-1} * I add exactly the diagonal, in np.trace's order
    p, _ = stacks
    n = p.shape[-1]
    checked = _log_derivative_traces(p, np.broadcast_to(np.eye(n, dtype=complex), p.shape))
    if checked is not None:
        inverse = np.linalg.solve(p, np.eye(n, dtype=complex))
        assert checked[0].tobytes() == np.trace(inverse, axis1=1, axis2=2).tobytes()


_RULES = [(1.0, None), (1e3, None), (None, WELL_POSED_LIMIT), (1.0, WELL_POSED_LIMIT)]


@PROPERTY
@given(graded_stacks(), st.sampled_from(_RULES), st.booleans())
def test_singular_gate_decides_as_the_plain_rule(stacks, rule, certified):
    """Each rule in use (the rank tolerance times 1 or 1e3, the well-posed
    limit, both), stated as one condition limit to the gate, or to
    ``certified_inverse``, which certifies from LU inverses and sends the rest to
    the gate, picks the same first singular matrix as the plain sigma-space
    rule on per-matrix SVDs."""
    mats, _ = stacks
    scale, limit = rule
    gate_limit = min(np.inf if scale is None else rank_limit(mats.shape[1:], 8.0 * scale),
                     np.inf if limit is None else limit)
    sigmas = _sigmas(mats)
    first_bad = next((i for i, s in enumerate(sigmas) if (
        scale is not None and s[-1] <= scale * tolerance_from_sigma(s, mats.shape[1:])
        or limit is not None and not _well_posed(condition_from_sigma(s))
    )), None)
    ident = np.eye(mats.shape[-1], dtype=complex)
    try:
        if certified:
            assert np.array_equal(certified_inverse(mats, _Fault, gate_limit), np.linalg.solve(mats, ident))
        else:
            assert np.array_equal(singular_gate(mats, _Fault, gate_limit), np.array(sigmas))
    except _Fault as exc:
        assert exc.args[0] == first_bad
        assert np.array_equal(exc.args[1], sigmas[first_bad])
        return
    assert first_bad is None


@st.composite
def isolating_circles(draw):
    """A complex Gaussian n x n A, n = 2..12, and a circle about one of its
    eigenvalues whose radius is 0.1 to 0.8 of that eigenvalue's gap to the rest."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    vals = np.linalg.eigvals(a)
    i = draw(st.integers(0, n - 1))
    gap = np.min(np.abs(np.delete(vals, i) - vals[i]))
    return a, Contour.circle(vals[i], draw(st.floats(0.1, 0.8)) * gap)


@PROPERTY
@given(isolating_circles())
def test_counting_integrals_agree_with_the_enclosed_eigenvalues(case):
    a, contour = case
    enclosed = [v for v in np.linalg.eigvals(a) if contour.contains(v)]
    family = HolomorphicFamily.pencil(a)
    rm, rp = invariant_subspace_borders(a, contour)
    assert count_effective(family, rm, rp, contour) == count_direct(family, contour) == len(enclosed)
    trace = weighted_trace(family, rm, rp, contour, lambda z: z)
    total = sum(enclosed)
    for half in (trace.direct, trace.effective):
        assert abs(half - total) <= 1e-8 * (1 + abs(total))
