"""Contour trace formulas.

Eigenvalue counting through the logarithmic derivative of a holomorphic
family, the same count through the effective Hamiltonian of a bordered
problem with constant finite-rank borders, weighted versions of both, the
closed-loop trace identity for families of bordered systems, a numerical
proof of the lattice summation formula through the circle monodromy factor,
and the self-adjoint border obstruction of the circle problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .core import BorderedSystem, assemble, effective_traces
from .errors import (
    ContractionCertificateFails,
    DimensionMismatch,
    IllPosedInside,
    IllPosedOnContour,
    NonConvergent,
    OnContourSingular,
    SingularAtNode,
)
from .linops import (
    EPS,
    WELL_POSED_LIMIT,
    Contour,
    as_cmatrix,
    as_integer,
    certified_inverse,
    doubling_quadrature,
    integrate_nodes,
    periodic_rule,
    rank_limit,
    singular_gate,
    spectral_norm,
)

TWO_PI_I = 2j * np.pi


@dataclass(frozen=True)
class HolomorphicFamily:
    """A matrix family z -> P(z) and its derivative, each mapping a 1-D array
    of k nodes to the (k, n, n) node stack, as :class:`LoopFamily` does."""

    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]

    @staticmethod
    def pencil(a) -> "HolomorphicFamily":
        """The family z*I - A."""
        a = as_cmatrix(a)
        ident = np.eye(a.shape[0], dtype=np.complex128)
        stack = lambda z: np.broadcast_to(ident, (len(z),) + a.shape)
        return HolomorphicFamily(lambda z: z[:, None, None] * ident - a, stack)

    def check_consistency(self, probes: np.ndarray, scale: float = 1.0) -> tuple[int, ...]:
        """Central-difference check of the derivative at a 1-D array of probes, to a
        relative 1e-6; returns the shape of P there (:class:`DimensionMismatch`
        unless the family returns one matrix per probe)."""
        step = EPS ** (1.0 / 3.0) * scale
        upper, lower, dv = self.value(probes + step), self.value(probes - step), self.derivative(probes)
        shape = np.shape(upper)
        if len(shape) != 3 or shape[0] != len(probes) or not shape == np.shape(lower) == np.shape(dv):
            raise DimensionMismatch(f"P and P' have shapes {shape}, {np.shape(dv)} at {len(probes)} "
                                    "probe points, not one matrix per node")
        fd = (upper - lower) / (2.0 * step)
        for z, f, d in zip(probes, fd, dv):
            if spectral_norm(f - d) > 1e-6 * max(spectral_norm(d), 1.0):
                raise ValueError(f"derivative inconsistent with finite differences at z={z}")
        return shape[1:]


def _probe_points(contour: Contour) -> np.ndarray:
    z, _ = contour.quadrature(8)  # on a polyline, 8 nodes per edge
    return z[[0, 3 * z.size // 8, 5 * z.size // 8]]


def count_direct(family: HolomorphicFamily, contour: Contour) -> int:
    """Number of spectral points inside the contour, counted with multiplicity:

        (1 / 2 pi i) * closed integral of tr( P'(z) P(z)^{-1} ) dz .

    The family must be invertible at every quadrature node
    (:class:`OnContourSingular` otherwise); the integral, to the default
    tolerance of :func:`linops.integrate_nodes`, must land on an integer
    within 1e-6.
    """
    (direct,) = _trace_integrals(family, contour)
    return as_integer(direct)


def _weighted(values: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
    # scalar products: numpy's vectorized complex multiply may round differently
    return values if weights is None else np.array([v * w for v, w in zip(values, weights)])


def _trace_integrals(
    family: HolomorphicFamily,
    contour: Contour,
    weight=None,
    borders: tuple | None = None,
    direct: bool = True,
) -> list[complex]:
    """(1 / 2 pi i) * closed integrals, in one doubling pass at the default
    tolerance of :func:`linops.integrate_nodes` that makes one ``value``, one
    ``derivative`` and one ``weight`` call per node stack:
    tr( P' P^{-1} ) when ``direct``, then, with ``borders`` (R-, R+),
    tr( E_-+' E_-+^{-1} ); each times the weight.

    The probe-point derivative check comes first; the family must return one
    square, nonempty P per probe there (:class:`DimensionMismatch`).  M(z) is
    the borders' :func:`_bordered_template` with P(z) as its P, M'(z) with P'(z) and zero borders
    (:func:`core.effective_traces`).  The effective integral counts the zeros of det P inside minus
    those of det M, so the same pass also integrates tr( M^{-1} M' ) = d/dz log det M and raises
    :class:`IllPosedInside` when det M has zeros inside.  A node where P is
    singular raises :class:`OnContourSingular`, one where M is ill posed
    :class:`IllPosedOnContour`; the first failing node stack decides.
    """
    shape = family.check_consistency(_probe_points(contour), scale=max(contour.scale(), 1.0))
    if not shape[0] == shape[1] > 0:
        raise DimensionMismatch(f"P(z) has shape {shape} at the probe points, not square and nonempty")
    template = None if borders is None else _bordered_template(*borders, shape)
    if template is not None:
        zero_borders = replace(template, rminus=np.zeros_like(template.rminus), rplus=np.zeros_like(template.rplus))

    def integrand(nodes: np.ndarray) -> np.ndarray:
        p, dp = family.value(nodes), family.derivative(nodes)
        weights = None if weight is None else weight(nodes)
        if weights is not None and np.shape(weights) != nodes.shape:
            raise DimensionMismatch(f"weight has shape {np.shape(weights)} at nodes of shape {nodes.shape}, "
                                    "not one value per node")
        at = lambda error, what: lambda i, _: error(f"{what} at node z={nodes[i]}", complex(nodes[i]))
        rows = []
        if direct:
            rows.append(_weighted(_log_derivative_trace(p, dp, at(OnContourSingular, "P(z) singular")), weights))
        if template is not None:
            effective, log_det = effective_traces(replace(template, p=p), replace(zero_borders, p=dp),
                                                  at(IllPosedOnContour, "bordered problem ill posed"),
                                                  at(OnContourSingular, "E_-+(z) singular"))
            rows += [_weighted(effective, weights), log_det]
        return np.array(rows)

    values = [complex(v) / TWO_PI_I for v in integrate_nodes(integrand, contour)]
    if template is not None:
        zeros = as_integer(values.pop())
        if zeros != 0:
            raise IllPosedInside(
                f"bordered matrix singular inside the contour: det M has {zeros} zero(s) there", zeros
            )
    return values


def _log_derivative_trace(p: np.ndarray, dp: np.ndarray, fault) -> np.ndarray:
    """tr( P^{-1} P' ) over a stack; raises ``fault(i, sigma)`` at the first node
    ``i`` where P is singular at the rank tolerance.

    One solve of P X = I gives X = P^{-1}, and the trace is the sum of the
    row sums of X * P'^T, elementwise; for a pencil's P' = I that sum adds
    exactly the diagonal of X.  A node whose inverse certifies cond(P) below
    1/(8 n eps), where the rank tolerance would flag P, needs no SVD
    (:func:`linops.certified_inverse`).
    """
    x = certified_inverse(p, fault, rank_limit(p.shape[-2:]))
    return (x * np.swapaxes(dp, -1, -2)).sum(axis=-1).sum(axis=-1)


def borders_from_base_point(
    family: HolomorphicFamily, z_base: complex, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Constant borders from the singular directions of the family at a base point.

    The left/right singular vectors of ``P(z_base)`` with singular value below
    ``tol`` give maximal-rank borders transversal to the range and kernel,
    which is exactly what a counting problem near that point needs.
    """
    from .pseudoinverse import canonical_borders

    cb = canonical_borders(family.value(np.array([z_base], dtype=np.complex128))[0], tol)
    return cb.rminus, cb.rplus


def invariant_subspace_borders(a, contour: Contour) -> tuple[np.ndarray, np.ndarray]:
    """Borders spanning the right/left invariant subspaces for the eigenvalues
    of ``a`` inside the contour.

    For the pencil z*I - A these borders keep the bordered problem invertible
    throughout the enclosed region (the matrix decouples along the invariant
    splitting), which is the standing hypothesis of the counting identity when
    the contour encloses several eigenvalues.  Assumes semisimple enclosed
    eigenvalues.
    """
    a = as_cmatrix(a)
    n = a.shape[0]
    vals, vecs = np.linalg.eig(a)
    inside = np.array([contour.contains(v) for v in vals])
    if not np.any(inside):
        return np.zeros((n, 0), complex), np.zeros((0, n), complex)
    right = np.linalg.qr(vecs[:, inside])[0]
    vals_l, vecs_l = np.linalg.eig(a.conj().T)
    inside_l = np.array([contour.contains(np.conj(v)) for v in vals_l])
    left = np.linalg.qr(vecs_l[:, inside_l])[0]
    if left.shape[1] != right.shape[1]:
        raise DimensionMismatch("left/right enclosed multiplicities disagree")
    return right, left.conj().T


def count_effective(
    family: HolomorphicFamily,
    rminus,
    rplus,
    contour: Contour,
) -> int:
    """The same count through the effective Hamiltonian:

        (1 / 2 pi i) * closed integral of tr( E_-+'(z) E_-+(z)^{-1} ) dz ,

    with constant borders, where E_-+' = -e_minus P' e_plus.  The bordered
    problem must be well posed at the contour's node set (:class:`IllPosedOnContour`
    otherwise) and inside it (:class:`IllPosedInside`, see :func:`_trace_integrals`),
    and E_-+ invertible at the nodes (:class:`OnContourSingular` otherwise).
    """
    (effective,) = _trace_integrals(family, contour, None, (rminus, rplus), direct=False)
    return as_integer(effective)


def _bordered_template(rminus, rplus, shape: tuple[int, int]) -> BorderedSystem:
    """The bordered system [[0, R-], [R+, 0]] with a zero P of the square
    ``shape``; :class:`DimensionMismatch` unless the borders fit P with
    k- = k+, so that one-sided borders never pass."""
    template = assemble(np.zeros(shape), rminus, rplus)
    if template.k_plus != template.k_minus:
        raise DimensionMismatch(f"borders {np.shape(rminus)}, {np.shape(rplus)} do not square P {shape}")
    return template


@dataclass(frozen=True)
class WeightedTrace:
    direct: complex
    effective: complex

    @property
    def difference(self) -> float:
        return abs(self.direct - self.effective)


def weighted_trace(
    family: HolomorphicFamily,
    rminus,
    rplus,
    contour: Contour,
    weight: Callable[[np.ndarray], np.ndarray],
) -> WeightedTrace:
    """Both weighted counting integrals (they agree for holomorphic weights;
    with weight z the result is the sum of the enclosed spectral points), in
    one pass over the nodes (:func:`_trace_integrals`).  ``weight`` maps a node
    array to one value per node (:class:`DimensionMismatch` at the first node
    stack where it does not)."""
    return WeightedTrace(*_trace_integrals(family, contour, weight, (rminus, rplus)))


# ---------------------------------------------------------------------------
# closed loops of bordered systems


def _fourier_sum(coeffs: Mapping[int, np.ndarray], factor: Callable[[int], complex]) -> np.ndarray:
    """sum_m factor(m) * C_m over {m: C_m} in their order; factor arrays add a leading node axis."""
    total = None
    for m, c in coeffs.items():
        term = np.multiply.outer(factor(m), c)
        total = term if total is None else total + term
    return total


@dataclass(frozen=True)
class LoopFamily:
    """A closed C^1 loop of bordered systems with trigonometric-polynomial blocks.

    Each block is given by its Fourier coefficients {m: C_m}, meaning
    sum_m C_m e^{i m t}; the frequencies m are integers, so the loop closes up
    exactly.  The corner block may be nonzero along the loop.  Construction
    checks every frequency and coefficient once: integer frequencies, finite
    coefficients of one shape within their block, and blocks that fit together.
    """

    p_coeffs: dict
    rminus_coeffs: dict
    rplus_coeffs: dict
    corner_coeffs: dict

    def __post_init__(self):
        leading = []
        for name in ("p_coeffs", "rminus_coeffs", "rplus_coeffs", "corner_coeffs"):
            if not all(isinstance(m, (int, np.integer)) for m in getattr(self, name)):
                raise ValueError(f"{name} frequencies {list(getattr(self, name))} are not all integers")
            coeffs = {m: as_cmatrix(c) for m, c in getattr(self, name).items()}
            shapes = sorted({c.shape for c in coeffs.values()})
            if len(shapes) != 1:
                raise DimensionMismatch(f"{name} mix shapes {shapes}" if shapes else f"{name} is empty")
            object.__setattr__(self, name, coeffs)
            leading.append(next(iter(coeffs.values())))
        BorderedSystem(*leading).assembled()

    @staticmethod
    def from_blocks(p, rminus, rplus, corner=None) -> "LoopFamily":
        def norm(block, absent=None):
            terms = {0: absent}.items() if block is None else block.items()
            return {m: as_cmatrix(c) for m, c in terms}

        size = lambda block, axis: max((c.shape[axis] for c in block.values()), default=0)  # 0 when empty
        p = norm(p)
        rminus = norm(rminus, np.zeros((size(p, 0), 0)))
        rplus = norm(rplus, np.zeros((0, size(p, 1))))
        corner = norm(corner, np.zeros((size(rplus, 0), size(rminus, 1))))
        return LoopFamily(p, rminus, rplus, corner)

    def _blocks(self, factor: Callable[[int], complex]) -> list[np.ndarray]:
        coeffs = (self.p_coeffs, self.rminus_coeffs, self.rplus_coeffs, self.corner_coeffs)
        return [_fourier_sum(c, factor) for c in coeffs]

    def system(self, t: float | np.ndarray) -> BorderedSystem:
        """The system at t, or at an array of t as one node stack."""
        return BorderedSystem(*self._blocks(lambda m: np.exp(1j * m * t)))

    def derivative(self, t: float | np.ndarray) -> BorderedSystem:
        return BorderedSystem(*self._blocks(lambda m: np.exp(1j * m * t) * (1j * m)))

    def disc_system(self, t: np.ndarray, s: np.ndarray) -> BorderedSystem:
        """The harmonic extension to the closed unit disc, e^{imt} -> s^{|m|} e^{imt},
        at the points s e^{it} of two equal-shape arrays, as one node stack."""
        return BorderedSystem(*self._blocks(lambda m: s ** abs(m) * np.exp(1j * m * t)))


@dataclass(frozen=True)
class LoopTraceResult:
    trace_p: complex
    trace_effective: complex

    @property
    def difference(self) -> float:
        return abs(self.trace_p - self.trace_effective)


def loop_trace_identity(loop: LoopFamily) -> LoopTraceResult:
    """Check tr of the loop integrals of P^{-1} dP and E_-+^{-1} dE_-+.

    The contraction certificate, the harmonic extension of the loop to the
    unit disc (:meth:`LoopFamily.disc_system`), is one node stack of 17 angles t
    by 9 radii s, s outer; its first matrix beyond ``WELL_POSED_LIMIT`` raises
    :class:`ContractionCertificateFails`.  Both traces come from one
    doubling trapezoidal quadrature in t, which evaluates M(t) and its
    derivative once per node stack (P and P' are their P blocks) and stops when
    both settle to 1e-9 (:func:`core.effective_traces` gives the second); each is 2 pi i times
    a winding integer for these finite-dimensional loops.  P(t) and M(t) must be square, P(t)
    nonempty (:class:`DimensionMismatch`, before the certificate).  A node where P(t) is singular raises
    :class:`SingularAtNode` before one where M(t) is, then E_-+(t), within the first failing node stack.
    """
    angles = np.tile(2.0 * np.pi * np.arange(17) / 17, 9)
    radii = np.repeat(np.linspace(0.0, 1.0, 9), 17)
    disc = loop.disc_system(angles, radii)
    if not (disc.n_rows == disc.n_cols > 0 and disc.k_plus == disc.k_minus):
        raise DimensionMismatch(f"P(t) and M(t) have shapes {disc.p.shape[1:]}, {disc.assembled().shape[1:]}, "
                                "not square and nonempty")
    fault = lambda i, _: ContractionCertificateFails(
        f"certificate matrix singular at t={angles[i]:.3f}, s={radii[i]:.3f}"
    )
    singular_gate(disc.assembled(), fault, WELL_POSED_LIMIT)

    def integrand(ts: np.ndarray) -> np.ndarray:
        system, derivative = loop.system(ts), loop.derivative(ts)
        at = lambda what: lambda i, _: SingularAtNode(f"{what} at t={ts[i]:.4f}", float(ts[i]))
        trace_p = _log_derivative_trace(system.p, derivative.p, at("P(t) singular"))
        trace_eff, _ = effective_traces(system, derivative, at("bordered matrix singular"), at("E_-+(t) singular"))
        return np.array([trace_p, trace_eff])

    # periodic trapezoid rule in t from 64 nodes, doubling up to 2^16
    trace_p, trace_eff = doubling_quadrature(integrand, periodic_rule, 64, 1e-9, 2**16)
    return LoopTraceResult(complex(trace_p), complex(trace_eff))


# ---------------------------------------------------------------------------
# lattice summation through the circle monodromy factor


POISSON_TOL = 1e-10  # the tolerance of the lattice-sum routes; every stated tail is at most a hundredth of it


@dataclass(frozen=True)
class TestFunction:
    """A test function, its transform, and the truncations that the three
    lattice-sum routes of :func:`poisson_verify` read.

    ``value`` and ``transform`` must accept numpy arrays.  The transform
    convention is  fhat(xi) = integral f(x) exp(-i x xi) dx.  The lattice sum
    runs over |n| <= ``lattice_truncation``, and the samples beyond it sum to
    at most ``lattice_tail``; the transform sum runs over fhat(2 pi m), |m| <=
    ``transform_truncation``, with ``transform_tail`` likewise.  fhat is
    negligible beyond 2 pi ``band``.  The monodromy route integrates over
    [-2 ``window``, 2 ``window``], and with ``extrapolate`` compares that with
    [-``window``, ``window``] to remove the 1/W term of the truncation.
    """

    value: Callable[[np.ndarray], np.ndarray]
    transform: Callable[[np.ndarray], np.ndarray]
    lattice_truncation: int
    lattice_tail: float
    transform_truncation: int
    transform_tail: float
    band: int
    window: int
    extrapolate: bool


def sinc_squared() -> TestFunction:
    """f(x) = (sin(pi x) / (pi x))^2, transform = unit triangle on [-2 pi, 2 pi].

    No truncation needs a search.  The lattice samples beyond the origin
    vanish (sin(pi n) = 0), which the lattice tail states as 1e-30; fhat
    vanishes from |xi| = 2 pi on, so the transform tail is 0.  The window
    follows from |f(x)| <= 1 / (pi x)^2: the extrapolation over integer
    windows removes its 1/W term and leaves O(1/W^2), so a cube-root window
    is enough.
    """

    def value(x):
        x = np.asarray(x, dtype=float)
        out = np.ones_like(x)
        nz = x != 0.0
        out[nz] = (np.sin(np.pi * x[nz]) / (np.pi * x[nz])) ** 2
        return out

    def transform(xi):
        xi = np.asarray(xi, dtype=float)
        return np.maximum(0.0, 1.0 - np.abs(xi) / (2.0 * np.pi))

    window = 4 * math.ceil((1.0 / np.pi**2 / POISSON_TOL) ** (1.0 / 3.0))
    return TestFunction(value, transform, 1, 1e-30, 1, 0.0, band=1, window=window, extrapolate=True)


def gaussian_test() -> TestFunction:
    """f(x) = exp(-pi x^2), transform = exp(-xi^2 / (4 pi)).

    The samples beyond |n| = t sum to at most 2 exp(-pi t^2), and since
    fhat(2 pi m) = exp(-pi m^2) = f(m), so do the transform samples beyond
    |m| = t: one truncation, the smallest t that brings that bound to
    ``POISSON_TOL`` / 100, serves both sums and the band.  f falls below
    ``POISSON_TOL`` / 100 inside the window, which keeps two units of margin
    and needs no extrapolation.
    """

    def value(x):
        return np.exp(-np.pi * np.asarray(x, dtype=float) ** 2)

    def transform(xi):
        return np.exp(-np.asarray(xi, dtype=float) ** 2 / (4.0 * np.pi))

    target = 0.01 * POISSON_TOL
    t = math.ceil(math.sqrt(math.log(2.0 / target) / np.pi))  # smallest t with 2 exp(-pi t^2) <= target
    tail = 2.0 * math.exp(-np.pi * t * t)
    window = math.ceil(math.sqrt(math.log(1.0 / target) / np.pi)) + 2
    return TestFunction(value, transform, t, tail, t, tail, band=t, window=window, extrapolate=False)


@dataclass(frozen=True)
class PoissonResult:
    lattice_sum: complex           # sum of f over the integers
    transform_sum: complex         # sum of fhat over 2 pi Z
    monodromy_sum: complex | None  # the finite-k contour-collapsed sum; None if skipped
    support_ok: bool
    lattice_truncation: int
    transform_truncation: int
    tail_bounds: dict

    def discrepancies(self) -> dict:
        out = {"lattice_vs_transform": abs(self.lattice_sum - self.transform_sum)}
        if self.monodromy_sum is not None:
            out["lattice_vs_monodromy"] = abs(self.lattice_sum - self.monodromy_sum)
            out["transform_vs_monodromy"] = abs(self.transform_sum - self.monodromy_sum)
        return out


def poisson_verify(tf: TestFunction, n_terms: int) -> PoissonResult:
    """Compare three computations of the lattice sum of ``tf``:

      1. direct:      sum_n f(n)
      2. transform:   sum_m fhat(2 pi m)
      3. monodromy:   (1/2 pi i) sum_{|k| <= N} integral f(z) M(z)^k M'(z) dz
                      with M(z) = exp(2 pi i z), by real-line quadrature.

    The two sums stop at the truncations ``tf`` states, and the result
    reports them with their tails.  The third route needs the transform
    supported inside (-2 pi N, 2 pi N): fhat must be at most 1e-12 at
    +-2 pi N and +-2.25 pi N.  When it is not, the route is skipped and
    ``monodromy_sum`` is None.
    """
    if n_terms < 1:
        raise ValueError("need at least one monodromy term")
    ns = np.arange(-tf.lattice_truncation, tf.lattice_truncation + 1)
    ms = 2.0 * np.pi * np.arange(-tf.transform_truncation, tf.transform_truncation + 1)
    edge = 2.0 * np.pi * n_terms
    support_ok = float(np.abs(tf.transform(np.array([-edge, edge, -1.125 * edge, 1.125 * edge]))).max()) <= 1e-12
    result = PoissonResult(complex(np.sum(tf.value(ns))), complex(np.sum(tf.transform(ms))), None, support_ok,
                           tf.lattice_truncation, tf.transform_truncation,
                           {"lattice": tf.lattice_tail, "transform": tf.transform_tail})
    if support_ok:
        return replace(result, monodromy_sum=_monodromy_route(tf, n_terms))
    return result


def _monodromy_route(tf: TestFunction, n_terms: int) -> complex:
    """Finite monodromy-power sum by composite trapezoid on [-2W, 2W], W =
    ``tf.window``, at the step 1 / (2 ceil(band + N + 1)).

    With ``tf.extrapolate`` the 1/W truncation term is removed by one
    window-doubling extrapolation on integer windows (the oscillatory
    remainder there is O(1/W^2)).
    """
    step = 1.0 / (2.0 * math.ceil(tf.band + n_terms + 1))
    per_unit = int(round(1.0 / step))
    half = tf.window * per_unit
    xs = step * np.arange(-2 * half, 2 * half + 1)
    fvals = np.asarray(tf.value(xs), dtype=np.complex128)
    mono = np.exp(TWO_PI_I * xs)          # M(z) on the real line
    mono_prime = TWO_PI_I * mono

    def windowed(values: np.ndarray, half_nodes: int) -> complex:
        mid = 2 * half
        lo, hi = mid - half_nodes, mid + half_nodes
        total = values[lo : hi + 1].sum() - 0.5 * (values[lo] + values[hi])
        return complex(step * total)

    total_w = 0.0j
    total_2w = 0.0j
    power = mono ** (-n_terms)            # M^k for k = -N
    for k in range(-n_terms, n_terms + 1):
        integrand = fvals * power * mono_prime / TWO_PI_I
        total_w += windowed(integrand, half)
        total_2w += windowed(integrand, 2 * half)
        power = power * mono
    return 2.0 * total_2w - total_w if tf.extrapolate else total_2w


# ---------------------------------------------------------------------------
# self-adjoint border obstruction for the circle problem


OBSTRUCTION_TOL = 1e-8  # A and B settle to this, relative to max(1, |A|)
OBSTRUCTION_NODE_CAP = 2**21  # the doubling from 512 nodes stops here


@dataclass(frozen=True)
class ObstructionReport:
    ordered_pairing: complex      # A = double integral over y < x of conj(f(x)) f(y)
    mean_value: complex           # B = integral of f
    identity_residual: float      # | |B|^2 - 2 Re A |
    crossings: np.ndarray         # real z where Re(A e^{-i pi z / h}) changes sign
    quadrature_delta: float


def selfadjoint_obstruction(
    profile: Callable[[float], complex],
    h: float,
    z_grid: Sequence[float],
) -> ObstructionReport:
    """Evaluate the invertibility obstruction for equal borders on the circle.

    Computes A (the ordered double integral), B (the mean), checks the exact
    identity |B|^2 = 2 Re A, and locates the real shifts where
    Re(A e^{-i pi z / h}) changes sign -- the problem is never well posed for
    all real shifts once A is nonzero.  The nodes double from 512 until A and
    B settle to ``OBSTRUCTION_TOL``; :class:`NonConvergent`, carrying the last
    two (A, B) pairs, once they reach ``OBSTRUCTION_NODE_CAP``.  The grids nest
    bit for bit, so each doubling calls ``profile`` only at the new odd-index
    nodes; a value that is not finite raises ``ValueError`` after the pass that
    met it.  ``h`` must be positive and finite and ``z_grid`` finite, with at
    least two points (``ValueError`` before ``profile`` is called).
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    grid = np.asarray(z_grid, dtype=float)
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"z grid must be finite, got {grid[~np.isfinite(grid)][0]}")
    if grid.size < 2:
        raise ValueError(f"z grid needs at least 2 points to see a sign change, got {grid.size}")
    n = 512
    xs = np.linspace(0.0, 2.0 * np.pi, n + 1)
    f = np.asarray([profile(x) for x in xs], dtype=np.complex128)
    last = _obstruction_sums(xs, f)
    while n < OBSTRUCTION_NODE_CAP:
        n *= 2
        xs = np.linspace(0.0, 2.0 * np.pi, n + 1)
        f = np.insert(f, np.arange(1, f.size), [profile(x) for x in xs[1::2]])
        previous, last = last, _obstruction_sums(xs, f)
        delta = max(abs(last[0] - previous[0]), abs(last[1] - previous[1]))
        if delta <= OBSTRUCTION_TOL * max(1.0, abs(last[0])):
            break
    else:
        raise NonConvergent(f"no convergence at {n} nodes", previous, last)
    a_val, b_val = last
    residual = abs(abs(b_val) ** 2 - 2.0 * a_val.real)

    def sign_fn(z: float) -> float:
        return (a_val * np.exp(-1j * np.pi * z / h)).real

    crossings = []
    vals = np.array([sign_fn(z) for z in grid])
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            crossings.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if sign_fn(lo) * sign_fn(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
            crossings.append(0.5 * (lo + hi))
    return ObstructionReport(a_val, b_val, float(residual), np.asarray(crossings), float(delta))


def _obstruction_sums(xs: np.ndarray, f: np.ndarray) -> tuple[complex, complex]:
    if not np.all(np.isfinite(f)):
        raise ValueError("integrand is not finite at a quadrature node")
    dx = xs[1] - xs[0]
    inner = np.concatenate([[0.0], np.cumsum(0.5 * dx * (f[:-1] + f[1:]))])
    b_val = complex(inner[-1])
    integrand = np.conj(f) * inner
    a_val = complex(np.sum(0.5 * dx * (integrand[:-1] + integrand[1:])))
    return a_val, b_val
