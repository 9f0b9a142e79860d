"""Every library error prints as its message alone, whatever fields follow it
in ``args``; errors at a quadrature node name that node as ``node``
(``args[1]``)."""

import numpy as np
import pytest

from grushinlab.bvp1d import Discretization, dn_trace_identity
from grushinlab.core import assemble, invert_system, iterate, transfer
from grushinlab.errors import (
    IllPosed,
    IllPosedInside,
    IllPosedOnContour,
    InnerSingular,
    NonConvergent,
    OnContourSingular,
    SingularAtNode,
    TransferSingular,
)
from grushinlab.linops import Contour
from grushinlab.traces import HolomorphicFamily, LoopFamily, count_direct, count_effective, loop_trace_identity


def test_singular_family_names_its_node():
    # the circle's node 0 is z = 1, an eigenvalue
    with pytest.raises(OnContourSingular) as info:
        count_direct(HolomorphicFamily.pencil(np.diag([1.0, -3.0]).astype(complex)), Contour.circle(0.0, 1.0))
    assert info.value.node == info.value.args[1] == 1.0
    assert str(info.value) == "P(z) singular at node z=(1+0j)"


def test_ill_posed_bordered_problem_names_its_node():
    contour = Contour.circle(0.0, 1.0)
    z3 = contour.quadrature(64)[0][3]
    family = HolomorphicFamily.pencil(np.diag([0.0, z3]))
    rm = np.array([[1.0], [0.0]], dtype=complex)
    with pytest.raises(IllPosedOnContour) as info:
        count_effective(family, rm, rm.T, contour)
    assert info.value.node == info.value.args[1] == z3
    assert str(info.value) == f"bordered problem ill posed at node z={z3}"


def test_zeros_inside_name_no_node():
    family = HolomorphicFamily.pencil(np.diag([0.0, 1.0]).astype(complex))
    rm = np.array([[1.0], [0.0]], dtype=complex)
    with pytest.raises(IllPosedInside) as info:
        count_effective(family, rm, rm.T, Contour.circle(0.5, 0.75))
    assert info.value.node is None and info.value.args[1] == 1


def test_singular_loop_value_names_its_time():
    # P(t) = e^{it} - 1 vanishes at t = 0
    one = np.ones((1, 1), dtype=complex)
    loop = LoopFamily.from_blocks({0: -one, 1: one}, {0: one}, {0: one})
    with pytest.raises(SingularAtNode) as info:
        loop_trace_identity(loop)
    assert info.value.node == info.value.args[1] == 0.0
    assert str(info.value) == "P(t) singular at t=0.0000"


def test_singular_loop_bordered_matrix_names_its_time():
    one = np.ones((1, 1), dtype=complex)
    loop = LoopFamily.from_blocks({0: one}, {0: one}, {0: one}, {0: 2.0 * one, 1: -one})
    with pytest.raises(SingularAtNode) as info:
        loop_trace_identity(loop, lambda t, s: np.eye(2))
    assert info.value.node == info.value.args[1] == 0.0
    assert str(info.value) == "bordered matrix singular at t=0.0000"


def test_boundary_trace_names_its_node():
    # the zero-potential Neumann matrix has the eigenvalue 0, node 0 of this circle
    d = Discretization(0.0, np.pi, 20, lambda x: 0.0)
    with pytest.raises(OnContourSingular) as info:
        dn_trace_identity(d, Contour.circle(-0.5, 0.5))
    assert info.value.node == info.value.args[1] == 0.0
    assert str(info.value) == "contour node z=0j on a discrete spectrum"


def test_node_is_none_without_one():
    assert OnContourSingular("no node").node is None
    assert str(OnContourSingular("no node")) == "no node"


@pytest.mark.parametrize("error, fields", [
    (IllPosed, (1e17, 3)),
    (NonConvergent, (1.5 - 98174767.3j, 3.5 - 49087382.1j)),
    (TransferSingular, (2.9e16,)),
    (InnerSingular, (2.9e16,)),
])
def test_errors_with_fields_print_their_message(error, fields):
    exc = error("what happened", *fields)
    assert str(exc) == "what happened"
    assert exc.args == ("what happened", *fields)


def test_singular_transfer_and_inner_systems_print_their_message():
    one = np.ones((1, 1))
    ginv = invert_system(assemble(np.zeros((1, 1)), one, one))
    with pytest.raises(InnerSingular) as inner:
        iterate(ginv, np.zeros((1, 1)), np.zeros((1, 1)))
    with pytest.raises(TransferSingular) as moved:
        transfer(ginv, np.zeros((1, 1)), np.zeros((1, 1)))
    for info, system in ((inner, "inner"), (moved, "transfer")):
        assert str(info.value) == f"{system} system condition {info.value.args[1]:.3e}"
