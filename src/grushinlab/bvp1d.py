"""Second-order two-point boundary problems reduced to the boundary.

Uniform-grid discretization of  -u'' + V u - z u  on [a, b], its Dirichlet and
Neumann realizations, the Neumann-to-Dirichlet map, the bordered problem whose
effective Hamiltonian *is* that map, and the contour identity coupling the two
resolvent traces to the winding of the boundary map.

The Neumann condition is realized with second-order ghost points.  To make the
bordered reduction agree with the ghost-point boundary map exactly (not just
to discretization order), the Dirichlet side of the bordered problem carries
the two ghost values as genuine unknowns: the zero-trace space is

    (ghost_left, u_1, ..., u_m, ghost_right)  in  C^(m+2),

the equation rows are the difference expression at all grid nodes 0..m+1, and
the row border is the centered outward normal derivative written with the
ghost values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .core import BorderedSystem, GrushinInverse, assemble, invert_system
from .errors import (
    ConsistencyError,
    DimensionMismatch,
    IoFailure,
    NeumannEigenvalue,
    OnContourSingular,
)
from .linops import (
    EPS,
    WELL_POSED_LIMIT,
    Contour,
    as_integer,
    integrate_nodes,
    is_singular,
    rank_limit,
    refined_solve,
    singular_gate,
    spectral_norm,
)


@dataclass(frozen=True)
class Discretization:
    """Uniform grid on [a, b] with m interior nodes and a potential evaluator, sampled once per node.

    The ends must be finite with a < b, and the step h such that h^2 and the
    stencil's 2/h^2 are finite and nonzero; both are checked before ``v`` is called.
    """

    a: float
    b: float
    m: int
    v: Callable[[float], float]
    _samples: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not -math.inf < self.a < self.b < math.inf:
            raise ValueError(f"need a < b, both finite, got a = {self.a}, b = {self.b}")
        if self.m < 3:
            raise ValueError("need at least 3 interior nodes")
        h2 = self.step * self.step
        if not 0.0 < h2 < math.inf or math.isinf(2.0 / h2):
            raise ValueError(f"grid step {self.step:.3e} out of range: h^2 and 2/h^2 must be finite and nonzero")
        object.__setattr__(self, "_samples", np.array([self.v(x) for x in self.grid()], dtype=float))
        if not np.all(np.isfinite(self._samples)):
            raise ValueError("potential must be finite at every grid node")

    @property
    def step(self) -> float:
        return (self.b - self.a) / (self.m + 1)

    def grid(self) -> np.ndarray:
        """All nodes including the boundary: a = x_0 < ... < x_{m+1} = b."""
        return self.a + self.step * np.arange(self.m + 2)


def _stencil(d: Discretization, z: complex) -> tuple[np.ndarray, float, np.ndarray]:
    """Second-order stencil of -d2/dx2 + V - z at grid nodes 0..m+1, from the
    potential's samples: the diagonal 2/h^2 + V - z, the off-diagonal -1/h^2,
    and V - z for :func:`_difference_rows`."""
    h, v = d.step, d._samples
    return (2.0 / h**2 + v - z).astype(np.complex128), -1.0 / h**2, v - z


def _tridiagonal(diag: np.ndarray, off: float) -> np.ndarray:
    mat = np.diag(diag)
    idx = np.arange(diag.size - 1)
    mat[idx, idx + 1] = mat[idx + 1, idx] = off
    return mat


def dirichlet_matrix(d: Discretization, z: complex) -> np.ndarray:
    """Second-order stencil of -d2/dx2 + V - z with zero boundary values eliminated."""
    diag, off, _ = _stencil(d, z)
    return _tridiagonal(diag[1:-1], off)


def neumann_matrix(d: Discretization, z: complex) -> np.ndarray:
    """Stencil on all nodes with zero Neumann data eliminated through ghost points."""
    diag, off, _ = _stencil(d, z)
    mat = _tridiagonal(diag, off)
    mat[0, 1] = mat[-1, -2] = 2.0 * off
    return mat


def neumann_green_solve(d: Discretization, z: complex, rhs) -> np.ndarray:
    """Grid solution with zero Neumann data and load ``rhs`` at all nodes, one column
    per load: the one gated Neumann solve (:class:`NeumannEigenvalue`)."""
    rhs = np.asarray(rhs, dtype=np.complex128)
    if rhs.shape[:1] != (d.m + 2,):
        raise DimensionMismatch(f"load must have {d.m + 2} entries")
    mat = neumann_matrix(d, z)
    singular_gate(mat, lambda _, s: NeumannEigenvalue(f"z = {z} is a discrete Neumann eigenvalue "
                                                      f"(sigma_min={s[-1]:.3e})"),
                  min(rank_limit(mat.shape), WELL_POSED_LIMIT))
    return refined_solve(mat, rhs)


def n2d_map(d: Discretization, z: complex) -> np.ndarray:
    """The 2x2 map from outward Neumann data to Dirichlet traces."""
    load = np.zeros((d.m + 2, 2), dtype=np.complex128)
    load[0, 0] = load[-1, 1] = 2.0 / d.step
    return neumann_green_solve(d, z, load)[[0, -1]]


# --- ghost-extended bordered problem ---------------------------------------
#
# Extended-grid vectors have length m + 4 and are indexed
#   [ghost_left, node 0, node 1, ..., node m+1, ghost_right].
# Zero-trace unknowns drop the two boundary nodes:
#   [ghost_left, u_1, ..., u_m, ghost_right]   (length m + 2).


def _difference_rows(h: float, shifted: np.ndarray, extended: np.ndarray) -> np.ndarray:
    """Apply the stencil, with ``shifted`` = V - z at nodes 0..m+1, to an
    extended-grid vector.  Written as diag * u + off * (neighbours) instead,
    it would move the effective Hamiltonian in its last bits."""
    inner = extended[1:-1]  # values at nodes 0..m+1
    return (-extended[:-2] + 2.0 * inner - extended[2:]) / h**2 + shifted * inner


SUPPORT_FRACTION = 0.125  # the share of the grid each boundary-data extension covers


def extension_profiles(d: Discretization) -> np.ndarray:
    """Two extended-grid bump profiles with unit trace and zero centered normal
    derivative at their endpoint, vanishing beyond ceil(m * SUPPORT_FRACTION) nodes."""
    q = max(1, math.ceil(d.m * SUPPORT_FRACTION))
    q = min(q, (d.m + 1) // 2)
    n_ext = d.m + 4

    def bump(t: float) -> float:
        if t >= 1.0:
            return 0.0
        return 1.0 - 3.0 * t * t + 2.0 * t**3

    left = np.zeros(n_ext, dtype=np.complex128)
    right = np.zeros(n_ext, dtype=np.complex128)
    for j in range(d.m + 2):  # node j lives at extended index j + 1
        left[j + 1] = bump(j / q)
        right[j + 1] = bump((d.m + 1 - j) / q)
    left[0] = left[2]          # ghost value enforcing zero centered derivative at a
    right[-1] = right[-3]      # same at b
    return np.column_stack([left, right])


def bvp_bordered_system(d: Discretization, z: complex) -> BorderedSystem:
    """The bordered problem for the Dirichlet realization whose effective
    Hamiltonian is the Neumann-to-Dirichlet map.

    Column border: the difference expression applied to the boundary-data
    extension (:func:`extension_profiles`).  Row border: the centered outward
    normal derivative.
    """
    h = d.step
    m = d.m
    dim = m + 2  # ghost_left, u_1..u_m, ghost_right
    diag, off, shifted = _stencil(d, z)

    # rows: nodes 0..m+1; node 0 couples ghost_left and u_1, node m+1 u_m and ghost_right
    p = np.zeros((dim, dim), dtype=np.complex128)
    p[1:-1, 1:-1] = _tridiagonal(diag[1:-1], off)
    p[0, :2] = p[-1, -2:] = off

    rplus = np.zeros((2, dim), dtype=np.complex128)
    rplus[0, 0] = 1.0 / (2.0 * h)
    rplus[0, 1] = -1.0 / (2.0 * h)
    rplus[1, m + 1] = 1.0 / (2.0 * h)
    rplus[1, m] = -1.0 / (2.0 * h)

    profiles = extension_profiles(d)
    rminus = np.column_stack(
        [_difference_rows(h, shifted, profiles[:, 0]), _difference_rows(h, shifted, profiles[:, 1])]
    )
    return assemble(p, rminus, rplus)


def bvp_grushin(d: Discretization, z: complex) -> GrushinInverse:
    """Invert the boundary bordered problem and confirm that its effective
    Hamiltonian reproduces the Neumann-to-Dirichlet map to 1e-9 scale."""
    _, inverse, residual, bound = _n2d_residual(d, z, bvp_bordered_system(d, z))
    if residual > bound:
        raise ConsistencyError("effective Hamiltonian disagrees with the boundary map")
    return inverse


def _n2d_residual(d: Discretization, z: complex, system: BorderedSystem):
    """The boundary map N, the inverse of ``system``, the norm of their difference
    in E_-+, and its bound 1e-9 max(1, ||N||): the one boundary-map gate."""
    reference, inverse = n2d_map(d, z), invert_system(system)
    residual = spectral_norm(inverse.e_minus_plus - reference)
    return reference, inverse, residual, 1e-9 * max(1.0, spectral_norm(reference))


def _boundary_map_and_derivative(x_n: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """N(z) = -(2/h) X and its exact derivative N'(z) = (2/h) X^2 on the two
    boundary nodes, from X = (z - A_N)^{-1}, since dX/dz = -X^2."""
    ends = [0, -1]
    return -2.0 / step * x_n[np.ix_(ends, ends)], 2.0 / step * (x_n[ends] @ x_n[:, ends])


def _node_check(a_n: np.ndarray, a_d: np.ndarray) -> Callable[[complex], None]:
    """A function of z that raises :class:`OnContourSingular` where z - A_N or
    z - A_D, in that order, has sigma_min at or below 1e3 times the rank
    tolerance.

    The eigenvalues are computed once, here.  A_D is real symmetric, and so is
    S = D A_N D^{-1} with D = diag(1/sqrt 2, 1, ..., 1, 1/sqrt 2).  So the
    singular values of z - A_D are the |z - lambda|, and those of z - A_N lie
    within the factor kappa(D) = sqrt 2 of the |z - lambda(S)|.  Widened by
    8 n eps kappa (|z| + ||A||) for the error of the eigenvalues and of the SVD
    they stand in for (sigma_min's clipped at 0), these bounds pass most z;
    any other z gets the sigma-only SVD (README, "Numerical conventions").
    """
    w = np.ones(a_n.shape[0])
    w[[0, -1]] = math.sqrt(0.5)
    sym = w[:, None] * a_n.real / w
    spectra = [(a_n, np.linalg.eigvalsh(sym), math.sqrt(2.0)), (a_d, np.linalg.eigvalsh(a_d.real), 1.0)]

    def check(z: complex) -> None:
        for a, eigs, kappa in spectra:
            dist = np.abs(z - eigs)
            slack = 8.0 * a.shape[0] * EPS * kappa * (abs(z) + np.abs(eigs).max())
            lower = max((dist.min() - slack) / kappa - slack, 0.0)
            bounds = np.array([kappa * (dist.max() + slack) + slack, lower])
            limit = rank_limit(a.shape, 8e3)
            if is_singular(bounds, limit):
                fault = lambda *_: OnContourSingular(f"contour node z={z} on a discrete spectrum", complex(z))
                singular_gate(z * np.eye(a.shape[0]) - a, fault, limit)

    return check


def dn_trace_identity(d: Discretization, contour: Contour) -> tuple[int, int]:
    """Count (Neumann eigenvalues inside) - (Dirichlet eigenvalues inside) two ways:

      * difference of the two resolvent traces integrated over the contour,
      * minus the winding of the Neumann-to-Dirichlet map N, with the exact
        derivative N' read off the same Neumann inverse.

    Both rows come from one doubling pass, to 1e-8, that inverts z - A_N and
    z - A_D once per node; they are returned as integers and must agree.  Every
    evaluated node is checked against both discrete spectra
    (:class:`OnContourSingular`).
    """
    a_n = neumann_matrix(d, 0.0)
    a_d = dirichlet_matrix(d, 0.0)
    eye_n = np.eye(a_n.shape[0], dtype=np.complex128)
    eye_d = np.eye(a_d.shape[0], dtype=np.complex128)
    check = _node_check(a_n, a_d)

    def integrand(nodes: np.ndarray) -> np.ndarray:
        rows = np.empty((2, len(nodes)), dtype=np.complex128)
        for k, z in enumerate(nodes):
            check(z)
            x_n = np.linalg.inv(z * eye_n - a_n)
            x_d = np.linalg.inv(z * eye_d - a_d)
            n_val, n_dot = _boundary_map_and_derivative(x_n, d.step)
            rows[:, k] = np.trace(x_n) - np.trace(x_d), -np.trace(np.linalg.solve(n_val, n_dot))
        return rows

    return tuple(as_integer(complex(v) / (2j * np.pi)) for v in integrate_nodes(integrand, contour, 1e-8))


# --- potentials --------------------------------------------------------------


def potential_zero(_: float) -> float:
    return 0.0


def potential_from_name(name: str, a: float, b: float) -> Callable[[float], float]:
    """Builtin potentials: ``zero``, ``harmonic`` (centered parabola), ``well``
    (depth-5 dip over the middle third)."""
    mid = 0.5 * (a + b)
    third = (b - a) / 3.0
    if name == "zero":
        return potential_zero
    if name == "harmonic":
        return lambda x: (x - mid) ** 2
    if name == "well":
        return lambda x: -5.0 if abs(x - mid) <= 0.5 * third else 0.0
    raise ValueError(f"unknown potential {name!r}")


def load_potential_table(path) -> np.ndarray:
    """One real per line (m + 2 lines, boundary nodes included); IoFailure if unreadable."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            values = [float(line.strip()) for line in handle if line.strip()]
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return np.asarray(values, dtype=float)


def tabulated_potential(a: float, b: float, m: int, values) -> Callable[[float], float]:
    """Potential evaluator backed by a node table; only grid nodes may be queried."""
    values = np.asarray(values, dtype=float)
    if values.size != m + 2:
        raise DimensionMismatch(f"table needs {m + 2} values, got {values.size}")
    step = (b - a) / (m + 1)

    def evaluate(x: float) -> float:
        j = int(round((x - a) / step))
        if not 0 <= j <= m + 1 or abs(x - (a + j * step)) > 1e-9 * (b - a):
            raise ValueError(f"x={x} is not a grid node")
        return float(values[j])

    return evaluate
