"""Every library error prints as its message alone, whatever fields follow it
in ``args``; errors at a quadrature node name that node as ``node``
(``args[1]``)."""

import numpy as np
import pytest

from grushinlab.bvp1d import Discretization, dn_trace_identity, n2d_map
from grushinlab import core
from grushinlab.core import (
    Split,
    assemble,
    feshbach_effective,
    invert_system,
    iterate,
    recover_resolvent,
    schur_check,
    transfer,
)
from grushinlab.errors import (
    ComplementSingular,
    ContractionCertificateFails,
    CornerSingular,
    EffectiveSingular,
    IllPosed,
    IllPosedInside,
    IllPosedOnContour,
    InnerSingular,
    NeumannEigenvalue,
    NonConvergent,
    OnContourSingular,
    OnSpectrum,
    SingularAtNode,
    SingularMatrix,
    TransferSingular,
)
from grushinlab.linops import WELL_POSED_LIMIT, Contour, certified_inverse, solve_linear
from grushinlab.pseudospectra import resolvent_bound
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
    # P = 1 with unit borders and corner 2 - e^{i(t - theta)}: det M = 1 - s e^{i(t - theta)}
    # on the disc, which vanishes only at s = 1, t = theta, off the certificate's
    # 17 angles and at node 1 of the first 64
    one = np.ones((1, 1), dtype=complex)
    theta = 2.0 * np.pi / 64
    loop = LoopFamily.from_blocks({0: one}, {0: one}, {0: one}, {0: 2.0 * one, 1: -np.exp(-1j * theta) * one})
    with pytest.raises(SingularAtNode) as info:
        loop_trace_identity(loop)
    assert info.value.node == info.value.args[1] == 2.0 * np.pi / 64
    assert str(info.value) == "bordered matrix singular at t=0.0982"


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
    (IllPosed, (1e17,)),
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


def _recover(p, corner, tol=None):
    system = assemble(np.diag(p), np.array([[1.0], [0.0]]), np.array([[1.0, 0.0]]), corner)
    return recover_resolvent(system, invert_system(system), tol)


def _certificate_loop():
    # P = diag(1, s e^{it} - 1/4) on the disc: singular on the third radius
    # (s = 0.25) of the certificate grid, at t = 0
    loop = LoopFamily.from_blocks({0: np.diag([1.0, -0.25]), 1: np.diag([0.0, 1.0])}, None, None)
    return loop_trace_identity(loop)


def _effective_at_eigenvalue():
    # node z = 1 of this circle is an eigenvalue of A, where the bordered
    # problem stays well posed and E_-+ is exactly singular
    rm = np.array([[1.0], [0.0]])
    return count_effective(HolomorphicFamily.pencil(np.diag([1.0, 3.0])), rm, rm.T, Contour.circle(0.5, 0.5))


def _schur():
    a = np.array([[2.0, 1.0, 0.0], [1.0, 1.0, 2.0], [0.0, 0.5, 1.0]])
    return schur_check(a, np.eye(3), 1)


# B = pinv(A) is not A^{-1}: its leading block B11 = [[0]] is singular
_B11_SINGULAR = np.array([[0.0, 0.0], [0.0, 1.0]])


def _schur_b11_tiny():
    # B11 = diag(1, 1e-17) passes its LU solve, and A22 is well conditioned
    b = np.diag([1.0, 1e-17, 1.0, 1.0])
    b[0, 2] = b[2, 0] = 0.5
    return schur_check(np.linalg.inv(b), b, 2)


_ZERO_POTENTIAL = Discretization(0.0, np.pi, 20, lambda x: 0.0)
_ILL = "condition estimate 1.000e+17 beyond well-posed limit"


@pytest.mark.parametrize("call, error, args", [
    (lambda: solve_linear(np.diag([1.0, 1e-20]), np.ones((2, 1))),
     SingularMatrix, ("sigma_min=1.000e-20 <= tol=3.553e-15",)),
    (lambda: solve_linear(np.diag([1.0, 1e-14]), np.ones((2, 1)), tol_factor=800.0),
     SingularMatrix, ("sigma_min=1.000e-14 <= tol=3.553e-13",)),
    (lambda: _recover([0.0, 1.0], [[1.0]]),
     EffectiveSingular, ("effective Hamiltonian singular (sigma_min=0.000e+00)",)),
    (lambda: _recover([1e-3, 1.0], None, tol=1e-2),
     EffectiveSingular, ("effective Hamiltonian singular (sigma_min=1.000e-03)",)),
    (_schur, CornerSingular, ("A22 singular at tolerance (sigma_min=0.000e+00)",)),
    (lambda: schur_check(_B11_SINGULAR, np.linalg.pinv(_B11_SINGULAR), 1),
     SingularMatrix, ("B11 singular at tolerance (sigma_min=0.000e+00)",)),
    (_schur_b11_tiny, SingularMatrix, ("B11 singular at tolerance (sigma_min=1.000e-17)",)),
    (lambda: feshbach_effective(np.diag([0.0, 2.0, 3.0]), Split((0,)), 2.0),
     ComplementSingular, ("z within spectrum of the complementary block (sigma_min=0.000e+00)",)),
    (lambda: n2d_map(_ZERO_POTENTIAL, 0.0),
     NeumannEigenvalue, ("z = 0.0 is a discrete Neumann eigenvalue (sigma_min=1.367e-14)",)),
    (lambda: dn_trace_identity(_ZERO_POTENTIAL, Contour.circle(-0.5, 0.5)),
     OnContourSingular, ("contour node z=0j on a discrete spectrum", 0j)),
    (lambda: count_direct(HolomorphicFamily.pencil(np.diag([1.0, -3.0])), Contour.circle(0.0, 1.0)),
     OnContourSingular, ("P(z) singular at node z=(1+0j)", 1.0)),
    (_effective_at_eigenvalue, OnContourSingular, ("E_-+(z) singular at node z=(1+0j)", 1.0)),
    (lambda: invert_system(assemble(np.diag([1.0, 1e-17]), [], [])), IllPosed, (_ILL, 1e17)),
    (lambda: certified_inverse(np.stack([np.eye(2), np.diag([1.0, 1e-17]), np.zeros((2, 2))]).astype(complex),
                               core._ill_posed, WELL_POSED_LIMIT),
     IllPosed, (_ILL, 1e17)),
    (_certificate_loop,
     ContractionCertificateFails, ("certificate matrix singular at t=0.000, s=0.250",)),
    (lambda: resolvent_bound(np.diag([0.0, 1.0]), 0.0, 0.5), OnSpectrum, ("sigma_min = 0.000e+00 at tolerance",)),
    (lambda: resolvent_bound(np.diag([1e-17, 1.0]), 0.0, 0.5), OnSpectrum, ("sigma_min = 1.000e-17 at tolerance",)),
], ids=[
    "solve_linear", "solve_linear-tol_factor", "recover_resolvent", "recover_resolvent-tol", "schur_check",
    "schur_check-b11", "schur_check-b11-tiny", "feshbach_effective", "neumann", "dn_trace-fallback", "count_direct", "count_effective",
    "invert_system", "certified_inverse-stack", "certificate", "resolvent_bound-zero", "resolvent_bound-tiny",
])
def test_every_gate_raises_its_own_error(call, error, args):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert info.value.args == args
    assert str(info.value) == args[0]
    if error is IllPosed:
        assert info.value.condition == args[1]

