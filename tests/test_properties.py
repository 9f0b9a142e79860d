"""Property tests over random shapes, borders and corners."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grushinlab.core import assemble, invert_stack, invert_system
from grushinlab.errors import IllPosed
from grushinlab.linops import condition_from_sigma, tolerance_from_sigma, well_posed
from grushinlab.traces import _log_derivative_trace

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


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
    singles = []
    for s in systems:
        try:
            singles.append(invert_system(s))
        except IllPosed as exc:
            singles.append(exc)
    first_bad = next((i for i, g in enumerate(singles) if isinstance(g, IllPosed)), None)
    try:
        full = invert_stack(stack)
    except IllPosed as exc:
        assert exc.args[2] == first_bad
        assert exc.args[1] == singles[first_bad].args[1]
        return
    assert first_bad is None
    for ginv, inverse in zip(singles, full):
        assert np.array_equal(ginv.assembled(), inverse)


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
def test_invert_stack_decides_as_the_svd(stacks):
    mats, _ = stacks
    conds = [condition_from_sigma(s) for s in _sigmas(mats)]
    first_bad = next((i for i, cond in enumerate(conds) if not well_posed(cond)), None)
    try:
        full = invert_stack(mats)
    except IllPosed as exc:
        assert (exc.index, exc.condition) == (first_bad, conds[first_bad])
        return
    assert first_bad is None
    for mat, inverse in zip(mats, full):
        assert np.array_equal(invert_system(assemble(mat, [], [])).e, inverse)


class _Fault(Exception):
    pass


@PROPERTY
@given(graded_stacks())
def test_log_derivative_trace_decides_as_the_svd(stacks):
    p, dp = stacks
    singular = [s[-1] <= tolerance_from_sigma(s, p.shape[1:]) for s in _sigmas(p)]
    first_bad = next((i for i, flag in enumerate(singular) if flag), None)
    try:
        traces = _log_derivative_trace(p, dp, np.arange(len(p)), _Fault)
    except _Fault as exc:
        assert exc.args[0] == first_bad
        return
    assert first_bad is None
    assert np.array_equal(traces, np.trace(np.linalg.solve(p, dp), axis1=1, axis2=2))
