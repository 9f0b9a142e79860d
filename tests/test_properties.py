"""Property tests over random shapes, borders and corners."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grushinlab.core import assemble, invert_stack, invert_system
from grushinlab.errors import IllPosed

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
        full, conds = invert_stack(stack)
    except IllPosed as exc:
        assert exc.args[2] == first_bad
        assert exc.args[1] == singles[first_bad].args[1]
        return
    assert first_bad is None
    for ginv, inverse, cond in zip(singles, full, conds):
        assert np.array_equal(ginv.assembled(), inverse)
        assert ginv.condition == cond
