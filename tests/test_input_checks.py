"""The input and consistency checks that no other test reaches (see
``tools/line_ledger.py``): each raises its own error type and message."""

import os
import tempfile
from unittest import mock

import numpy as np
import pytest

from grushinlab.bvp1d import Discretization, tabulated_potential
from grushinlab.cli import emit, render_json
from grushinlab.core import (
    Split,
    assemble,
    effective_index,
    feshbach_effective,
    invert_system,
    iterate,
    recover_resolvent,
    schur_check,
    transfer,
)
from grushinlab.errors import ConsistencyError, DimensionMismatch, IoFailure
from grushinlab.linops import Contour, as_cmatrix, contour_integrate, eigenvalues, solve_linear
from grushinlab.perturbation import (
    JordanSpec,
    jordan_cloud,
    jordan_vectors,
    projected_inverse_blocks,
)
from grushinlab.pseudospectra import pseudospectrum_grid, resolvent_bound
from grushinlab.traces import HolomorphicFamily, selfadjoint_obstruction, weighted_trace

# P = 1 bordered once on each side: E_-+ is 1 x 1
_BORDERED = invert_system(assemble(np.eye(2), [[1.0], [0.0]], [[1.0, 0.0]]))


def _recover_one_sided():
    # P = [1, 0] with one row border only: M = I, E_-+ is 0 x 1
    system = assemble([[1.0, 0.0]], np.zeros((1, 0)), [[0.0, 1.0]])
    return recover_resolvent(system, invert_system(system))


def _index_below_tol():
    # tol = 1e-6 reads diag(1, 1e-8) as rank 1; with no borders E_-+ has no kernel
    system = assemble(np.diag([1.0, 1e-8]), [], [])
    return effective_index(system, invert_system(system), tol=1e-6)


def _weighted_by(weight):
    # E_-+ is 1 x 1 about the enclosed eigenvalue 0.1; the first node stack has 8 nodes
    family = HolomorphicFamily.pencil(np.diag([0.1, 0.5, 0.9]))
    return weighted_trace(family, [[1.0], [0.0], [0.0]], [[1.0, 0.0, 0.0]], Contour.circle(0.1, 0.2), weight)


def _emit_when_replace_fails():
    # the temporary file goes with the failed rename
    with tempfile.TemporaryDirectory() as tmp, mock.patch("os.replace", side_effect=OSError("rename refused")):
        try:
            emit({}, "json", os.path.join(tmp, "report.json"))
        finally:
            assert os.listdir(tmp) == []


@pytest.mark.parametrize("call, error, message", [
    (lambda: Discretization(1.0, 0.0, 5, lambda x: 0.0), ValueError,
     "need a < b, both finite, got a = 1.0, b = 0.0"),
    (lambda: Discretization(0.0, np.inf, 5, lambda x: 0.0), ValueError,
     "need a < b, both finite, got a = 0.0, b = inf"),
    (lambda: Discretization(0.0, 1e-300, 5, lambda x: 0.0), ValueError,
     "grid step 1.667e-301 out of range: h^2 and 2/h^2 must be finite and nonzero"),
    (lambda: Discretization(0.0, 1.0, 5, lambda x: np.nan), ValueError, "potential must be finite at every grid node"),
    (lambda: tabulated_potential(0.0, 1.0, 5, np.zeros(6)), DimensionMismatch, "table needs 7 values, got 6"),
    (lambda: as_cmatrix(np.zeros((2, 2, 2))), DimensionMismatch, "expected a 2-D array, got ndim=3"),
    (lambda: JordanSpec(3, 0.5, 0.1, np.zeros((2, 3))), DimensionMismatch, "expected 3 rows, got 2"),
    (lambda: JordanSpec(3, 0.5, 0.1, np.zeros((3, 2))), DimensionMismatch, "expected 3 columns, got 2"),
    (lambda: solve_linear(np.zeros((2, 3)), np.ones((2, 1))), DimensionMismatch, "matrix must be square, got (2, 3)"),
    (lambda: eigenvalues(np.zeros((2, 3))), DimensionMismatch, "matrix must be square, got (2, 3)"),
    (lambda: Contour("ellipse"), ValueError, "unknown contour kind 'ellipse'"),
    (lambda: Contour.circle(0.0, np.inf), ValueError, "circle center 0j and radius inf must be finite"),
    (lambda: Contour.circle(complex(np.nan, 0.0), 1.0), ValueError,
     "circle center (nan+0j) and radius 1.0 must be finite"),
    (lambda: Contour.polyline([0.0, 1.0, complex(0.0, np.inf)]), ValueError,
     "polyline vertices (0j, (1+0j), infj) must be finite"),
    (lambda: contour_integrate(lambda z: np.inf, Contour.circle(0.0, 1.0)),
     ValueError, "integrand is not finite at a quadrature node"),
    (_recover_one_sided, DimensionMismatch, "effective Hamiltonian must be square to invert"),
    (lambda: schur_check(np.eye(2), np.eye(3), 1), DimensionMismatch, "A and B must be square and of equal shape"),
    (lambda: schur_check(np.eye(2), np.eye(2), 0), DimensionMismatch, "invalid split 0 of size 2"),
    (lambda: transfer(_BORDERED, np.ones((2, 2)), np.ones((1, 2))),
     DimensionMismatch, "transfer system is not square; borders incompatible"),
    (lambda: iterate(_BORDERED, np.ones((2, 1)), np.ones((1, 1))), DimensionMismatch, "nminus rows must match k_minus"),
    (lambda: iterate(_BORDERED, np.ones((1, 1)), np.ones((1, 2))),
     DimensionMismatch, "nplus columns must match k_plus"),
    (lambda: iterate(_BORDERED, np.ones((1, 1)), np.ones((2, 1))), DimensionMismatch, "inner system is not square"),
    (lambda: feshbach_effective(np.ones((2, 3)), Split((0,)), 1.0), DimensionMismatch, "H must be square"),
    (_index_below_tol, ConsistencyError,
     "kernel/cokernel mismatch: P gives (1, 1), effective Hamiltonian gives (0, 0)"),
    (lambda: jordan_vectors(0, 0.5), DimensionMismatch, "block size must be >= 1"),
    (lambda: jordan_cloud(3, 0.1, "uniform"), ValueError, "unknown q kind 'uniform'"),
    (lambda: projected_inverse_blocks(np.eye(3), np.eye(2)),
     DimensionMismatch, "T must be square and basis rows must match it"),
    (lambda: resolvent_bound(np.eye(2), 0.0, 0.0), ValueError, "threshold h must be positive and finite, got 0.0"),
    (lambda: resolvent_bound(np.eye(2), 0.5, np.nan), ValueError, "threshold h must be positive and finite, got nan"),
    (lambda: pseudospectrum_grid(np.eye(2), (0.0, 1.0, 0.0, 1.0), 2, ("adaptive", 1.0)),
     ValueError, "unknown h rule 'adaptive'"),
    (lambda: pseudospectrum_grid(np.eye(2), (0.0, 1.0, 0.0, 1.0), (3, 3), ("fixed", 0.1)),
     ValueError, "resolution (3, 3) is not an integer"),
    (lambda: pseudospectrum_grid(np.eye(2), (0.0, 1.0, 0.0, 1.0), 3.0, ("fixed", 0.1)),
     ValueError, "resolution 3.0 is not an integer"),
    (lambda: selfadjoint_obstruction(lambda x: 1.0, 0.1, [0.0, np.nan]), ValueError, "z grid must be finite, got nan"),
    (lambda: selfadjoint_obstruction(lambda x: 1.0, 0.1, [0.0]), ValueError,
     "z grid needs at least 2 points to see a sign change, got 1"),
    (lambda: _weighted_by(lambda z: np.append(z, 1.0)), DimensionMismatch,
     "weight has shape (9,) at nodes of shape (8,), not one value per node"),
    (lambda: _weighted_by(lambda z: 1.0), DimensionMismatch,
     "weight has shape () at nodes of shape (8,), not one value per node"),
    (lambda: render_json({"x": object()}), TypeError, "object is not JSON serializable"),
    (_emit_when_replace_fails, IoFailure, "rename refused"),
], ids=[
    "discretization-interval", "discretization-inf", "discretization-step", "discretization-nan",
    "tabulated_potential", "as_cmatrix-ndim", "as_cmatrix-rows",
    "as_cmatrix-cols", "solve_linear", "eigenvalues", "contour-kind", "contour-radius-inf", "contour-center-nan",
    "contour-vertex-inf", "integrand-inf", "recover_resolvent",
    "schur_check-shape", "schur_check-split", "transfer", "iterate-nminus", "iterate-nplus", "iterate-square",
    "feshbach_effective", "effective_index", "jordan_vectors", "jordan_cloud", "projected_inverse_blocks",
    "resolvent_bound", "resolvent_bound-h-nan",
    "pseudospectrum_grid", "pseudospectrum_grid-resolution-pair", "pseudospectrum_grid-resolution-float",
    "selfadjoint_obstruction-z-nan", "selfadjoint_obstruction-one-point", "weighted_trace-long",
    "weighted_trace-scalar", "render_json",
    "emit",
])
def test_every_input_check_raises_its_own_error(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
