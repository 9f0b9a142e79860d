"""Node-array quadrature: node reuse across doublings, a working set that does
not grow with the node count, and the border-pole check of the effective count."""

import functools
import tracemalloc

import numpy as np
import pytest

from grushinlab import linops, traces
from grushinlab.errors import IllPosedInside, IllPosedOnContour, NonConvergent, NonInteger
from grushinlab.linops import Contour
from grushinlab.traces import (
    HolomorphicFamily,
    LoopFamily,
    count_direct,
    count_effective,
    invariant_subspace_borders,
    loop_trace_identity,
    weighted_trace,
)

def test_circle_integral_asks_each_node_once(node_record):
    # tr (z - A)^{-1} = 1/z + 1/(z - 3): the trapezoid rule is exact for 1/z on
    # this circle and the pole at 3 leaves an error of 3**-64, so the estimates
    # at 64 and 128 nodes agree and the integral stops at N = 128
    pencil = HolomorphicFamily.pencil(np.diag([0.0, 3.0]).astype(complex))
    contour = Contour.circle(0.0, 1.0)
    rm = np.array([[1.0], [0.0]], dtype=complex)
    for count in (lambda f: count_direct(f, contour), lambda f: count_effective(f, rm, rm.conj().T, contour)):
        record = node_record(pencil)
        assert count(record.family) == 1
        stacks = record.stacks()
        assert sum(map(len, stacks)) == 128 and len(stacks) == 128 // linops.STACK_NODES


def test_weighted_trace_asks_each_node_once(node_record):
    # the direct and the effective integral share one pass over the nodes, which
    # stops at N = 128 as in test_circle_integral_asks_each_node_once; the
    # weight is asked once per node stack too
    a = np.diag([0.2, 0.7, 3.0]).astype(complex)
    record = node_record(HolomorphicFamily.pencil(a))
    contour = Contour.circle(0.0, 1.0)
    rm, rp = invariant_subspace_borders(a, contour)
    weighed = []

    def weight(z):
        weighed.append(z)
        return z

    result = weighted_trace(record.family, rm, rp, contour, weight)
    assert result.direct == pytest.approx(0.9, abs=1e-10)
    assert result.difference <= 1e-10
    stacks = record.stacks()
    assert sum(map(len, stacks)) == 128 and len(stacks) == 128 // linops.STACK_NODES
    assert len(weighed) == len(stacks)
    assert all(np.array_equal(w, z) for w, z in zip(weighed, stacks))


def test_weighted_trace_nonconvergence_carries_every_row(monkeypatch):
    # the eigenvalue 1 + 1e-7 sits just outside the unit circle, so no row
    # settles before the cap; the rows are direct, effective and log det M
    a = np.diag([0.2, 1.0 + 1e-7]).astype(complex)
    contour = Contour.circle(0.0, 1.0)
    rm, rp = invariant_subspace_borders(a, contour)
    monkeypatch.setattr(
        traces, "integrate_nodes", functools.partial(linops.integrate_nodes, node_cap=256)
    )
    with pytest.raises(NonConvergent) as info:
        weighted_trace(HolomorphicFamily.pencil(a), rm, rp, contour, lambda z: z)
    previous, last = info.value.estimates
    assert info.value.args[0] == "no convergence at 256 nodes"
    assert previous.shape == last.shape == (3,)
    assert previous is info.value.args[1] and last is info.value.args[2]


def test_loop_integral_asks_each_node_once(monkeypatch):
    # P(t) = e^{it} with unit borders: both integrands are the constant i, so
    # the one pass for both integrals stops at N = 128
    one = np.ones((1, 1), dtype=complex)
    loop = LoopFamily.from_blocks({1: one}, {0: one}, {0: one})
    asked = []
    system = LoopFamily.system

    def counting_system(self, t):
        asked.append(np.array(t, ndmin=1))
        return system(self, t)

    monkeypatch.setattr(LoopFamily, "system", counting_system)
    result = loop_trace_identity(loop)
    assert result.trace_p == pytest.approx(2j * np.pi, abs=1e-12)
    # one call per node stack, and no node asked twice
    nodes = np.concatenate(asked)
    assert nodes.size == np.unique(nodes).size == 128
    assert len(asked) == 128 // linops.STACK_NODES


@pytest.mark.parametrize("seed", range(4))
def test_loop_node_stack_equals_the_blocks_at_each_node(seed):
    from grushinlab.cli import seeded_loop_family

    ts = linops.periodic_rule(128)[0][1::16]
    for loop in (seeded_loop_family(3 + seed, seed, False), seeded_loop_family(3 + seed, seed, True)):
        for evaluate in (loop.system, loop.derivative):
            stacked = evaluate(ts)
            for block in ("p", "rminus", "rplus", "corner"):
                per_node = np.stack([getattr(evaluate(float(t)), block) for t in ts])
                got = getattr(stacked, block)
                assert np.array_equal(got, per_node)
                for part in ("real", "imag"):
                    signs = (np.signbit(getattr(x, part)) for x in (got, per_node))
                    assert np.array_equal(*signs)


@pytest.mark.parametrize("seed", range(4))
def test_pencil_node_stack_equals_the_matrices_at_each_node(seed):
    # circle nodes, and polyline nodes with parts that are +0.0 or -0.0
    rng = np.random.default_rng(seed)
    n = 3 + seed
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a[0, 1] = -0.0
    square = Contour.polyline([-1 - 1j, 1 - 1j, 1 + 1j, -1 + 1j])
    nodes = np.concatenate([Contour.circle(0.3 - 0.2j, 0.7).quadrature(64)[0], square.quadrature(8)[0]])
    ident = np.eye(n, dtype=np.complex128)
    pencil = HolomorphicFamily.pencil(a)
    for stacked, per_node in ((pencil.value(nodes), [z * ident - a for z in nodes]),
                              (pencil.derivative(nodes), [ident] * nodes.size)):
        per_node = np.stack(per_node)
        assert stacked.shape == per_node.shape == (nodes.size, n, n)
        assert np.array_equal(stacked, per_node)
        for part in ("real", "imag"):
            signs = (np.signbit(getattr(x, part)) for x in (stacked, per_node))
            assert np.array_equal(*signs)


@pytest.mark.parametrize("seed", range(4))
def test_disc_system_on_the_unit_circle_is_the_loop(seed):
    # s = 1 turns the harmonic extension back into the loop, bit for bit
    from grushinlab.cli import seeded_loop_family

    ts = linops.periodic_rule(128)[0]
    for loop in (seeded_loop_family(3 + seed, seed, False), seeded_loop_family(3 + seed, seed, True)):
        disc, system = loop.disc_system(ts, np.ones_like(ts)), loop.system(ts)
        for block in ("p", "rminus", "rplus", "corner"):
            got, want = getattr(disc, block), getattr(system, block)
            assert np.array_equal(got, want)
            for part in ("real", "imag"):
                assert np.array_equal(np.signbit(getattr(got, part)), np.signbit(getattr(want, part)))


def test_quadrature_working_set_does_not_grow_with_nodes(monkeypatch):
    # 24 x 24 pencil, 6-wide borders: one unchunked stack of 2**14 bordered
    # 30 x 30 matrices would take 236 MB
    rng = np.random.default_rng(3)
    diag = np.concatenate([[1.0 + 1e-7], 0.1 * rng.random(5), 5.0 + rng.random(18)])
    family = HolomorphicFamily.pencil(np.diag(diag).astype(complex))
    eye = np.eye(24, dtype=complex)
    # the eigenvalue 1 + 1e-7 sits just outside the unit circle, so the
    # effective integrand never converges
    monkeypatch.setattr(
        traces, "integrate_nodes", functools.partial(linops.integrate_nodes, node_cap=2**14)
    )
    tracemalloc.start()
    try:
        with pytest.raises(NonConvergent):
            count_effective(family, eye[:, :6], eye[:6, :], Contour.circle(0.0, 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_border_pole_inside_is_reported():
    # M(z) = [[z, 0, 1], [0, z - 1, 0], [1, 0, 0]] is singular at z = 1, inside
    # the contour: the effective count alone would read 1 where there are 2
    family = HolomorphicFamily.pencil(np.diag([0.0, 1.0]).astype(complex))
    contour = Contour.circle(0.5, 0.75)
    rm = np.array([[1.0], [0.0]], dtype=complex)
    assert count_direct(family, contour) == 2
    with pytest.raises(IllPosedInside) as info:
        count_effective(family, rm, rm.T, contour)
    assert info.value.args[1] == 1
    with pytest.raises(IllPosedOnContour):
        weighted_trace(family, rm, rm.T, contour, lambda z: z)


def test_a_non_integer_count_of_border_poles_is_refused(monkeypatch):
    # a log-det integral of 0.4 zeros of det M is no count, not a count of 0
    family = HolomorphicFamily.pencil(np.diag([0.0, 1.0]).astype(complex))
    rm = np.array([[1.0], [0.0]], dtype=complex)
    monkeypatch.setattr(traces, "integrate_nodes", lambda *_: np.array([0j, 0.4 * 2j * np.pi]))
    with pytest.raises(NonInteger):
        count_effective(family, rm, rm.T, Contour.circle(2.0, 0.5))
