"""An exact oracle for every level of the counting quadrature.

On the circle |z - c| = r, the N-node trapezoid estimate of the direct count
of the pencil z - A, (1 / 2 pi i) sum_k w_k tr (z_k - A)^{-1}, is a geometric
sum over the N-th roots of unity: with mu = (lambda - c) / r for each
eigenvalue lambda of A,

    T_N = sum_{|mu| < 1} 1 / (1 - mu^N) - sum_{|mu| > 1} mu^{-N} / (1 - mu^{-N}) .

The final integer hides a node, weight or merge error that still rounds
right; the estimate at each doubling level does not.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grushinlab import linops, traces
from grushinlab.errors import NonConvergent
from grushinlab.linops import Contour
from grushinlab.traces import HolomorphicFamily, count_direct

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def closed_form(mu: np.ndarray, n: int) -> complex:
    inside, outside = mu[np.abs(mu) < 1.0], mu[np.abs(mu) > 1.0]
    return np.sum(1.0 / (1.0 - inside**n)) - np.sum(outside**-n / (1.0 - outside**-n))


def diagonalizable(rng, mu: np.ndarray, center: complex, radius: float) -> np.ndarray:
    """A = V diag(c + r mu) V^{-1} with a well-conditioned random V."""
    n = mu.size
    v = np.eye(n) + 0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    return v @ np.diag(center + radius * mu) @ np.linalg.inv(v)


@st.composite
def pencils(draw):
    """A diagonalizable pencil with every |mu| in [0.93, 0.98] or [1.02, 1.07],
    so that no level up to 512 nodes settles at the default tolerance."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = rng.uniform(0.93, 0.98, n)
    size[rng.random(n) < 0.5] += 0.09
    mu = size * np.exp(2j * np.pi * rng.random(n))
    center = complex(*rng.uniform(-2.0, 2.0, 2))
    radius = float(rng.uniform(0.2, 2.0))
    return diagonalizable(rng, mu, center, radius), mu, Contour.circle(center, radius)


@PROPERTY
@given(pencils())
def test_every_doubling_level_matches_the_closed_form(pencil):
    a, mu, contour = pencil
    family = HolomorphicFamily.pencil(a)
    for cap in (128, 256, 512):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(traces, "integrate_nodes", functools.partial(linops.integrate_nodes, node_cap=cap))
            with pytest.raises(NonConvergent) as info:
                count_direct(family, contour)
        for nodes, estimate in zip((cap // 2, cap), info.value.estimates):
            (value,) = estimate / (2j * np.pi)
            exact = closed_form(mu, nodes)
            assert abs(value - exact) <= 1e-12 * (1.0 + abs(exact))


def stopping_nodes(mu: np.ndarray, tol: float = 1e-10) -> int:
    """The node count at which the doubling driver stops, from the closed form alone."""
    n = 64
    while True:
        previous, n = closed_form(mu, n), 2 * n
        last = closed_form(mu, n)
        if abs(last - previous) <= tol * (1.0 + abs(last)):
            return n


@pytest.mark.parametrize("sizes, stops", [
    ([0.5, 0.6, 1.8], 128),
    ([0.8, 0.85, 1.2, 1.3], 512),
    ([0.9, 0.95, 1.1], 1024),
    ([0.97, 0.4, 2.0, 1.05, 0.7], 2048),
])
def test_closed_form_predicts_where_the_driver_stops(node_record, sizes, stops):
    rng = np.random.default_rng(len(sizes))
    mu = np.array(sizes) * np.exp(2j * np.pi * rng.random(len(sizes)))
    center, radius = 0.3 - 0.2j, 0.7
    assert stopping_nodes(mu) == stops
    record = node_record(HolomorphicFamily.pencil(diagonalizable(rng, mu, center, radius)))
    count = count_direct(record.family, Contour.circle(center, radius))
    assert count == np.count_nonzero(np.abs(mu) < 1.0)
    stacks = record.stacks()
    assert sum(map(len, stacks)) == stops and len(stacks) == stops // linops.STACK_NODES
