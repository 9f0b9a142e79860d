"""Dense complex linear algebra and closed-contour quadrature.

All matrices are plain ``numpy`` arrays of ``complex128``.  Decompositions are
delegated to LAPACK through ``numpy.linalg``; this module pins down the
conventions the rest of the library relies on: the rank tolerance, the one
singularity gate behind every rank and well-posedness decision, the condition
estimate attached to every solve, and the nested node-doubling rules used for
every contour integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NonConvergent,
    NonInteger,
    RankAmbiguous,
    SingularMatrix,
)

EPS = float(np.finfo(np.float64).eps)

#: A bordered problem counts as well posed while its condition estimate stays
#: below 1/(100*eps).
WELL_POSED_LIMIT = 1.0 / (100.0 * EPS)

#: An LU inverse X certifies its matrix M in :func:`certified_solve` without an
#: SVD while the bound ||M||_F ||X||_F stays below the gate's condition limit
#: times this margin; the LU backward error keeps such a decision the SVD's
#: (README, "Numerical conventions").
CERTIFIED_MARGIN = 1e-6

#: Hard cap for quadrature node doubling.
NODE_CAP = 2**18

#: Nodes per stacked evaluation of a node-array integrand.  It bounds the
#: quadrature driver's working set, which must not grow with the node count.
STACK_NODES = 8


def as_cmatrix(a, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Coerce ``a`` to a finite 2-D complex array, optionally checking its shape."""
    m = np.atleast_2d(np.asarray(a, dtype=np.complex128))
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D array, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("matrix entries must be finite")
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {m.shape[1]}")
    return m


def singular_values(a) -> np.ndarray:
    return _sigma(as_cmatrix(a))


def _sigma(mats: np.ndarray) -> np.ndarray:
    """Singular values of a matrix or a stack (no SVD for empty matrices)."""
    if mats.size == 0:
        return np.zeros(mats.shape[:-2] + (min(mats.shape[-2:]),))
    try:
        return np.linalg.svd(mats, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological input
        raise ConvergenceFailure(str(exc)) from exc


def spectral_norm(a) -> float:
    s = singular_values(a)
    return float(s[0]) if s.size else 0.0


def condition_from_sigma(sigma: np.ndarray) -> float:
    """sigma_max / sigma_min from singular values already computed; ``inf``
    when sigma_min is zero or there are no singular values."""
    if sigma.size == 0 or sigma[-1] == 0.0:
        return np.inf
    return float(sigma[0] / sigma[-1])


def is_singular(sigma: np.ndarray, limit: float) -> bool:
    """The singularity rule on the singular values of a matrix, or on bounds of
    them (sigma_max's from above first, sigma_min's from below last, never
    negative): sigma_max/sigma_min not below ``limit``, infinite where there
    are no singular values or sigma_min is zero."""
    return not condition_from_sigma(sigma) < limit


def rank_limit(shape: tuple, factor: float = 8.0) -> float:
    """1/(factor max(rows, cols) eps), the condition at which sigma_min meets the rank tolerance."""
    return 1.0 / (factor * max(*shape, 1) * EPS)


def singular_gate(mats: np.ndarray, fault, limit: float) -> np.ndarray:
    """Singular values of a matrix or a stack from one sigma-only SVD, after ``fault(i, sigma)``
    is raised at the first matrix ``i`` that :func:`is_singular` flags under ``limit``."""
    sigma = _sigma(mats)
    for i, s in enumerate(np.atleast_2d(sigma)):
        if is_singular(s, limit):
            raise fault(i, s)
    return sigma


def certified_solve(mats: np.ndarray, rhs: np.ndarray, fault, limit: float) -> np.ndarray:
    """LU solution X of ``M X = rhs`` for a stack, ``rhs`` ending in the identity.
    X's last n columns, the LU inverses, certify a nonempty M where ||M||_F ||X||_F
    is at most ``CERTIFIED_MARGIN`` times ``limit``; the others face :func:`singular_gate`,
    ``fault`` naming their stack index; a stack the LU solve rejects faces it whole, then raises."""
    try:
        x = np.linalg.solve(mats, rhs)
    except np.linalg.LinAlgError:
        singular_gate(mats, fault, limit)
        raise
    inverses = x[..., x.shape[-1] - mats.shape[-1]:]
    norms = np.linalg.norm(mats, axis=(-2, -1)) * np.linalg.norm(inverses, axis=(-2, -1))
    rest = np.flatnonzero(~((norms <= limit * CERTIFIED_MARGIN) & (mats.shape[-1] > 0)))
    if rest.size:
        singular_gate(mats[rest], lambda i, s: fault(int(rest[i]), s), limit)
    return x


def tolerance_from_sigma(sigma: np.ndarray, shape: tuple, factor: float = 8.0) -> float:
    """Rank tolerance max(rows, cols) * sigma_max * eps * factor of a matrix of
    ``shape`` from its singular values already computed (0.0 when there are none)."""
    if sigma.size == 0:
        return 0.0
    return max(shape) * float(sigma[0]) * EPS * factor


def numerical_rank(sigma: np.ndarray, tol: float) -> int:
    """Count singular values above ``tol``.

    Raises :class:`RankAmbiguous` when any nonzero singular value sits inside
    the band ``[tol/10, tol*10]`` -- integer-valued conclusions (kernel
    dimensions, indices) must not be guessed there.
    """
    sigma = np.asarray(sigma, dtype=float)
    if tol > 0.0:
        ambiguous = (sigma >= tol / 10.0) & (sigma <= tol * 10.0)
        if np.any(ambiguous):
            raise RankAmbiguous(
                f"singular value(s) {sigma[ambiguous]} within 10x of tolerance {tol:.3e}"
            )
    return int(np.count_nonzero(sigma > tol))


@dataclass(frozen=True)
class SvdResult:
    """Full SVD ``A = left @ diag(singular) @ right_h`` with unitary factors."""

    left: np.ndarray
    singular: np.ndarray
    right_h: np.ndarray

    def reconstruct(self) -> np.ndarray:
        k = self.singular.size
        return (self.left[:, :k] * self.singular) @ self.right_h[:k, :]


@dataclass(frozen=True)
class SolveResult:
    solution: np.ndarray
    condition: float


def svd(a) -> SvdResult:
    return _svd(as_cmatrix(a))


def _svd(a: np.ndarray) -> SvdResult:
    """Full SVD of a checked matrix (:class:`ConvergenceFailure` where LAPACK fails)."""
    try:
        u, s, vh = np.linalg.svd(a, full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc
    return SvdResult(u, s, vh)


def solve_linear(a, b, tol_factor: float = 8.0) -> SolveResult:
    """Solve ``A X = B`` by LU with one step of iterative refinement.

    Raises :class:`SingularMatrix` when sigma_min falls at or below the rank
    tolerance.  The returned condition number is sigma_max/sigma_min.
    """
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs has {b.shape[0]} rows, matrix has {a.shape[0]}")
    def fault(_, s):
        tol = tolerance_from_sigma(s, a.shape, tol_factor)
        return SingularMatrix(f"sigma_min={0.0 if s.size == 0 else s[-1]:.3e} <= tol={tol:.3e}")

    s = singular_gate(a, fault, rank_limit(a.shape, tol_factor))
    return SolveResult(refined_solve(a, b), condition_from_sigma(s))


def refined_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """LU solve of ``A X = B`` and one :func:`refine` step, for an ``A`` already decided invertible."""
    return refine(a, b, np.linalg.solve(a, b))


def refine(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """One step of iterative refinement of an LU solution ``x`` of ``A X = B``."""
    return x + np.linalg.solve(a, b - a @ x)


def eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square matrix (LAPACK geev: balancing + shifted QR)."""
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {a.shape}")
    if a.shape[0] == 0:
        return np.zeros(0, dtype=np.complex128)
    try:
        return np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(str(exc)) from exc


@dataclass(frozen=True)
class Contour:
    """A closed curve in the complex plane with a starting quadrature resolution.

    Two parametrizations are supported: a circle (finite center, finite
    radius > 0) and a closed polyline through a list of finite vertices (the
    closing edge back to the first vertex is implicit).  ``nodes`` is the
    initial node count for the doubling quadrature, per edge on a polyline; it
    must be at least 8.
    """

    kind: str
    center: complex = 0j
    radius: float = 0.0
    points: tuple = ()
    nodes: int = 64

    def __post_init__(self):
        if self.kind not in ("circle", "polyline"):
            raise ValueError(f"unknown contour kind {self.kind!r}")
        if not isinstance(self.nodes, (int, np.integer)):
            raise ValueError(f"node count {self.nodes!r} is not an integer")
        if self.nodes < 8:
            raise ValueError("node count must be >= 8")
        if self.kind == "circle" and not np.all(np.isfinite([self.center, self.radius])):
            raise ValueError(f"circle center {self.center} and radius {self.radius} must be finite")
        if self.kind == "polyline" and not np.all(np.isfinite(self.points)):
            raise ValueError(f"polyline vertices {self.points} must be finite")
        if self.kind == "circle" and not self.radius > 0.0:
            raise ValueError("circle radius must be positive")
        if self.kind == "polyline" and len(self.points) < 3:
            raise ValueError("polyline needs at least 3 vertices")

    @staticmethod
    def circle(center: complex, radius: float, nodes: int = 64) -> "Contour":
        return Contour("circle", center=complex(center), radius=float(radius), nodes=nodes)

    @staticmethod
    def polyline(points: Sequence[complex]) -> "Contour":
        return Contour("polyline", points=tuple(complex(p) for p in points))

    def quadrature(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes ``z_k`` and weights ``w_k`` so that ``sum f(z_k) w_k ~ closed integral``.

        A circle gets ``n`` trapezoid nodes.  A polyline gets ``n`` nodes per
        edge: its start vertex and the Clenshaw-Curtis points
        ``(1 - cos(pi k / n)) / 2``, 0 < k < n, along it; a vertex weight takes
        its share from both of its edges.  The nodes of ``quadrature(n)`` are
        those of ``quadrature(2 n)`` at even indices.
        """
        if self.kind == "circle":
            t = 2.0 * np.pi * np.arange(n) / n
            phase = np.exp(1j * t)
            z = self.center + self.radius * phase
            w = (2.0 * np.pi / n) * 1j * self.radius * phase
            return z, w
        verts = np.asarray(self.points, dtype=np.complex128)
        edges = (np.roll(verts, -1) - verts)[:, None]
        s, w = _clenshaw_curtis(n)
        weights = w[:-1] * edges
        weights[:, 0] += w[-1] * np.roll(edges[:, 0], 1)
        return (verts[:, None] + s[:-1] * edges).ravel(), weights.ravel()

    def contains(self, z: complex) -> bool:
        """Point-in-region test for the enclosed open set."""
        if self.kind == "circle":
            return abs(z - self.center) < self.radius
        verts = np.asarray(self.points, dtype=np.complex128)
        angles = np.angle((np.roll(verts, -1) - z) / (verts - z))
        return abs(angles.sum()) > np.pi

    def scale(self) -> float:
        """Characteristic length used for difference steps."""
        if self.kind == "circle":
            return self.radius
        verts = np.asarray(self.points, dtype=np.complex128)
        return float(np.abs(verts - verts.mean()).max())


def _clenshaw_curtis(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Clenshaw-Curtis points ``(1 - cos(pi k / n)) / 2``, k = 0..n, and weights
    on [0, 1], from one FFT of the Chebyshev moments (Waldvogel, BIT 46, 2006)."""
    k = np.arange(n + 1)
    moments = np.zeros(n + 1)
    moments[::2] = 1.0 / (1.0 - k[::2] ** 2)
    w = np.fft.rfft(np.concatenate([moments, moments[-2:0:-1]])).real / n
    w[[0, -1]] /= 2.0
    return (1.0 - np.cos(np.pi * k / n)) / 2.0, w


def contour_integrate(
    f: Callable[[complex], complex],
    contour: Contour,
    tol: float = 1e-10,
    node_cap: int = NODE_CAP,
) -> complex:
    """Closed-contour integral of a scalar integrand, with node doubling.

    Doubles the node count until two successive estimates differ by less than
    ``tol * (1 + |estimate|)`` or the cap is reached (:class:`NonConvergent`,
    which carries the last two estimates).  See :func:`integrate_nodes`.
    """
    return integrate_nodes(lambda z: [f(zk) for zk in z], contour, tol, node_cap)


def integrate_nodes(
    f: Callable[[np.ndarray], np.ndarray],
    contour: Contour,
    tol: float = 1e-10,
    node_cap: int = NODE_CAP,
):
    """Closed-contour integrals of a node-array integrand, with node doubling.

    ``f`` maps at most ``STACK_NODES`` nodes to values of shape ``(nodes,)``,
    or ``(m, nodes)`` for m integrals on the same nodes.  On a polyline the
    starting node count ``contour.nodes`` is per edge, while ``node_cap``
    bounds the total, as on a circle.
    """
    return doubling_quadrature(f, contour.quadrature, contour.nodes, tol, node_cap)


def periodic_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Trapezoidal nodes and weights for the integral over one period [0, 2 pi)."""
    return 2.0 * np.pi * np.arange(n) / n, np.full(n, 2.0 * np.pi / n)


def doubling_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    rule: Callable[[int], tuple[np.ndarray, np.ndarray]],
    n: int,
    tol: float,
    cap: int,
):
    """Sum the values of ``f`` at the nodes of ``rule(n)`` against its weights,
    doubling ``n`` until two successive estimates differ by at most
    ``tol * (1 + |estimate|)`` in every integral; :class:`NonConvergent`,
    carrying the last two estimates, once the rule's node count reaches ``cap``,
    and ``ValueError``, before ``f`` is called, when ``rule(n)`` already does.

    The nodes of ``rule(2n)`` at even indices must be those of ``rule(n)``:
    each doubling evaluates ``f`` at the odd ones only.
    """
    nodes, weights = rule(n)
    if nodes.size >= cap:
        raise ValueError(f"node_cap must exceed the {nodes.size} starting nodes")
    values = _evaluate(f, nodes)
    estimates = [_weighted_sum(values, weights)]
    while nodes.size < cap:
        n *= 2
        nodes, weights = rule(n)
        merged = np.empty(values.shape[:-1] + nodes.shape, dtype=np.complex128)
        merged[..., 0::2] = values
        merged[..., 1::2] = _evaluate(f, nodes[1::2])
        values = merged
        estimates = [estimates[-1], _weighted_sum(values, weights)]
        if np.all(np.abs(estimates[1] - estimates[0]) <= tol * (1.0 + np.abs(estimates[1]))):
            return estimates[1]
    raise NonConvergent(f"no convergence at {nodes.size} nodes", *estimates)


def as_integer(raw: complex) -> int:
    """The integer within 1e-6 of a counting integral (:class:`NonInteger` if none)."""
    nearest = int(round(raw.real))
    if abs(raw - nearest) >= 1e-6:
        raise NonInteger(f"counting integral {raw} is {abs(raw - nearest):.2e} from an integer")
    return nearest


def _evaluate(f, nodes: np.ndarray) -> np.ndarray:
    """Values of a node-array integrand, ``STACK_NODES`` nodes per call."""
    chunks = [f(nodes[i : i + STACK_NODES]) for i in range(0, len(nodes), STACK_NODES)]
    values = np.concatenate([np.asarray(c, dtype=np.complex128) for c in chunks], axis=-1)
    if not np.all(np.isfinite(values)):
        raise ValueError("integrand is not finite at a quadrature node")
    return values


def _weighted_sum(values: np.ndarray, weights: np.ndarray):
    total = np.sum(values * weights, axis=-1)
    return complex(total) if total.ndim == 0 else total
