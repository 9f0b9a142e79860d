"""Threshold-projector bordered problems and resolvent-norm estimation.

For a probe point ``lam`` and threshold ``h``, the orthogonal projectors onto
the singular subspaces of ``A - lam`` with singular values <= h define a
bordered problem whose effective Hamiltonian captures the near-singular
behaviour: the resolvent norm agrees with the norm of its inverse up to an
additive O(1/h) term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BorderedSystem, GrushinInverse, _ill_posed
from .errors import (
    DimensionMismatch,
    GrushinLabError,
    IllPosed,
    OnSpectrum,
    ThresholdOnSingularValue,
)
from .linops import (EPS, WELL_POSED_LIMIT, SvdResult, _sigma, _svd, as_cmatrix, certified_inverse, is_singular,
                     rank_limit, spectral_norm, tolerance_from_sigma)


@dataclass(frozen=True)
class ProjectorPair:
    """Orthogonal projectors onto the small-singular-value subspaces.

    ``pi_minus`` projects onto the span of left singular vectors with
    sigma <= h, ``pi_plus`` onto the matching right singular vectors;
    the two captured dimensions always agree.
    """

    pi_minus: np.ndarray
    pi_plus: np.ndarray
    h: float
    n_captured: int


@dataclass(frozen=True)
class PseudospectrumCell:
    lam: complex
    h: float
    n_captured: int
    norm_eff_inv: float
    sigma_min: float
    c_emp: float
    error: str | None = None


@dataclass(frozen=True)
class ProjectorGrushin:
    pair: ProjectorPair
    inverse: GrushinInverse
    block_norms: dict


def _square(a) -> np.ndarray:
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if a.size == 0:
        raise DimensionMismatch("matrix must be nonempty")
    return a


def _positive(what: str, value: float) -> float:
    """``value`` as a float; ``ValueError`` naming ``what`` unless it is finite and positive."""
    value = float(value)
    if not 0.0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value}")
    return value


def _shifted(a, lam: complex, h: float) -> np.ndarray:
    """``A - lam`` after the entry checks (finite square ``a``, finite ``lam``,
    finite ``h > 0``); the kernels below take checked arrays and never validate."""
    a = _square(a)
    _positive("threshold h", h)
    return as_cmatrix(a - lam * np.eye(a.shape[0]))


def _small_subspaces(shifted: np.ndarray, full: SvdResult, h: float):
    """The orthonormal bases of the singular subspaces of ``shifted`` with
    sigma <= h, read from its full SVD ``full``, after the threshold check."""
    window = 1e-8 * h + tolerance_from_sigma(full.singular, shifted.shape)
    close = np.abs(full.singular - h) < window
    if np.any(close):
        raise ThresholdOnSingularValue(
            f"singular value(s) {full.singular[close]} within {window:.3e} of h={h}"
        )
    small = full.singular <= h
    return full.left[:, small], full.right_h[small, :].conj().T


def _pair(u_small: np.ndarray, v_small: np.ndarray, h: float) -> ProjectorPair:
    return ProjectorPair(
        u_small @ u_small.conj().T, v_small @ v_small.conj().T, float(h), u_small.shape[1]
    )


def threshold_projectors(a, lam: complex, h: float) -> ProjectorPair:
    """Projectors onto the singular subspaces of ``A - lam`` below threshold ``h``.

    Raises :class:`ThresholdOnSingularValue` when a singular value sits within
    1e-8 h + the rank tolerance of h: the captured dimension would be ill defined.
    """
    shifted = _shifted(a, lam, h)
    return _pair(*_small_subspaces(shifted, _svd(shifted), h), h)


def projector_identities(a, lam: complex, pair: ProjectorPair) -> dict:
    """Residuals of the structural projector identities (all zero in exact arithmetic)."""
    a = _square(a)
    n = a.shape[0]
    shifted = a - lam * np.eye(n)
    pm, pp = pair.pi_minus, pair.pi_plus
    ident = np.eye(n)
    return {
        "idempotent_minus": spectral_norm(pm @ pm - pm),
        "idempotent_plus": spectral_norm(pp @ pp - pp),
        "hermitian_minus": spectral_norm(pm.conj().T - pm),
        "hermitian_plus": spectral_norm(pp.conj().T - pp),
        "map_zero_minus": spectral_norm(pm @ shifted @ (ident - pp)),
        "map_zero_plus": spectral_norm(pp @ shifted.conj().T @ (ident - pm)),
    }


def _sigma_bounds(product: np.ndarray, basis: np.ndarray, sigma: np.ndarray) -> tuple[float, float]:
    """Bounds (below sigma_min, above sigma_max) on the singular values of
    ``product`` = basis diag(sigma) + R, by Weyl: with the Gram defect
    d = ||basis^H basis - I||_F, the basis's singular values lie within
    sqrt(1 -+ d), so within 1 -+ d, and ||R||_F moves each by at most itself."""
    defect = float(np.linalg.norm(basis.conj().T @ basis - np.eye(basis.shape[1])))
    residual = float(np.linalg.norm(product - basis * sigma))
    return (1.0 - defect) * float(sigma.min()) - residual, (1.0 + defect) * float(sigma.max()) + residual


def _threshold_borders(shifted: np.ndarray, full: SvdResult, h: float):
    """Captured bases of a checked ``shifted`` = A - lam after the norm
    hypotheses, each decided from its full SVD ``full`` first: the bounds of
    :func:`_sigma_bounds` on the product the hypothesis names decide it where
    they clear the slack h (1 +- 1e-8) by 16 n^2 eps sigma_max (README,
    "Numerical conventions"); elsewhere the product's sigma-only SVD does."""
    u_small, v_small = _small_subspaces(shifted, full, h)
    slack, margin = 1.0 + 1e-8, 16 * shifted.shape[0] ** 2 * EPS * float(full.singular[0])
    small = full.singular <= h
    if u_small.shape[1]:
        for product, basis, message in ((shifted @ v_small, u_small, "||P pi_plus|| exceeds h"),
                                        (shifted.conj().T @ u_small, v_small, "||P* pi_minus|| exceeds h")):
            if _sigma_bounds(product, basis, full.singular[small])[1] + margin > h * slack \
                    and _sigma(product)[0] > h * slack:
                raise IllPosed(message)
    if not small.all():
        product = shifted @ full.right_h[~small, :].conj().T
        if _sigma_bounds(product, full.left[:, ~small], full.singular[~small])[0] - margin < h / slack \
                and _sigma(product)[-1] < h / slack:
            raise IllPosed("lower bound off the captured subspace fails")
    return u_small, v_small


def _threshold_inverse(shifted: np.ndarray, u_small: np.ndarray, v_small: np.ndarray) -> GrushinInverse:
    """Inverse blocks of the bordered problem [[A - lam, U_small], [V_small^H, 0]] of a checked
    ``shifted`` and its captured bases (:func:`_threshold_borders`), one unrefined LU inverse facing the SVD
    gate only where it does not certify itself (:func:`linops.certified_inverse`); ``condition`` is nan."""
    m = BorderedSystem(shifted, u_small, v_small.conj().T, np.zeros((u_small.shape[1],) * 2)).assembled()
    return GrushinInverse.from_full(certified_inverse(m[None], _ill_posed, WELL_POSED_LIMIT)[0], *shifted.shape)


def projector_grushin(a, lam: complex, h: float) -> ProjectorGrushin:
    """Bordered problem with the threshold singular subspaces as borders.

    The borders are the orthonormal bases of the captured subspaces, so the
    norm hypotheses (||P pi_+|| <= h, lower bounds off the captured space) are
    verified numerically before inversion.  The inverse is a pseudospectrum
    cell's (:func:`_threshold_inverse`), with ``condition`` nan; measured
    block norms are returned for scaling studies across an h-sequence.
    """
    shifted = _shifted(a, lam, h)
    u_small, v_small = _threshold_borders(shifted, _svd(shifted), h)
    inverse = _threshold_inverse(shifted, u_small, v_small)
    norms = {
        "e": spectral_norm(inverse.e),
        "e_plus": spectral_norm(inverse.e_plus),
        "e_minus": spectral_norm(inverse.e_minus),
        "e_minus_plus": spectral_norm(inverse.e_minus_plus),
    }
    return ProjectorGrushin(_pair(u_small, v_small, h), inverse, norms)


@dataclass(frozen=True)
class EstimateCheck:
    worst_ratio: float
    ratios: np.ndarray
    n_captured: int


def estimate_check(a, lam: complex, h: float, trials: int, seed: int = 0) -> EstimateCheck:
    """Empirical constant for the stability estimate

        h ||u|| + ||u_minus||  <=  C (||v|| + h ||v_plus||)

    over seeded random data; the worst observed ratio is the reported C.  With
    no subspace captured (``n_captured`` 0) the inverse is (A - lam)^{-1}, so
    every ratio is h ||u|| / ||v|| <= h / sigma_min < 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    shifted = _shifted(a, lam, h)
    inverse = _threshold_inverse(shifted, *_threshold_borders(shifted, _svd(shifted), h))
    n, k = inverse.e_plus.shape
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E5]))
    ratios = np.zeros(trials)
    for i in range(trials):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v_plus = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        u, u_minus = inverse.apply(v, v_plus)
        num = h * np.linalg.norm(u) + np.linalg.norm(u_minus)
        den = np.linalg.norm(v) + h * np.linalg.norm(v_plus)
        ratios[i] = num / den
    return EstimateCheck(float(ratios.max()), ratios, k)


def resolvent_bound(a, lam: complex, h: float) -> PseudospectrumCell:
    """One pseudospectrum cell: sigma_min of A - lam and ||E_-+^{-1}||.

    The empirical constant ``c_emp = h * |1/sigma_min - norm_eff_inv|``
    quantifies the additive O(1/h) discrepancy.  Raises :class:`OnSpectrum`
    when lam is an eigenvalue at rank tolerance.
    """
    shifted = _shifted(a, lam, h)
    return _resolvent_cell(shifted, _svd(shifted), lam, h)


def _resolvent_cell(shifted: np.ndarray, full: SvdResult, lam: complex, h: float) -> PseudospectrumCell:
    """:func:`resolvent_bound` given a checked ``shifted`` = A - lam and its full SVD
    ``full``, the one decomposition of A - lam: sigma_min, the rank gate, the threshold
    window, the borders and the norm hypotheses all read it; of the bordered inverse
    it reads only E_-+."""
    sigma_min = float(full.singular[-1])
    if is_singular(full.singular, rank_limit(shifted.shape)):
        raise OnSpectrum(f"sigma_min = {sigma_min:.3e} at tolerance")
    emp = _threshold_inverse(shifted, *_threshold_borders(shifted, full, h)).e_minus_plus
    norm_eff_inv = 1.0 / _sigma(emp)[-1] if emp.size else 0.0
    c_emp = abs(1.0 / sigma_min - norm_eff_inv) * h
    return PseudospectrumCell(
        complex(lam), float(h), emp.shape[0], float(norm_eff_inv), sigma_min, float(c_emp)
    )


@dataclass(frozen=True)
class PseudospectrumGrid:
    re_values: np.ndarray
    im_values: np.ndarray
    cells: tuple[PseudospectrumCell, ...]  # row-major: im outer, re inner

    def cell(self, i_im: int, j_re: int) -> PseudospectrumCell:
        return self.cells[i_im * self.re_values.size + j_re]


def pseudospectrum_grid(a, rectangle, resolution, h_rule) -> PseudospectrumGrid:
    """Evaluate resolvent bounds over a rectangular grid of probe points.

    ``rectangle`` is (re_min, re_max, im_min, im_max), finite, with
    max|A| + max|lam| finite in the real and in the imaginary part;
    ``resolution`` the integer number of probe points along each side, at
    least 2; ``h_rule`` either ("fixed", h) with h > 0 or ("sigma-scaled",
    factor) with factor > 0 and h = factor * sigma_min per cell, each finite.
    Input errors raise before any cell is computed; cell-level failures are
    recorded in the cell, never raised.
    """
    a = _square(a)
    bounds = [float(x) for x in rectangle]
    if not np.all(np.isfinite(bounds)):
        raise ValueError("rectangle bounds must be finite")
    re_min, re_max, im_min, im_max = bounds
    if not (re_min < re_max and im_min < im_max):
        raise DimensionMismatch("rectangle bounds must be strictly increasing")
    # max|A| + max|lam| bounds every entry of A - lam, per part: while it is
    # finite, no cell's shifted matrix overflows
    for part, low, high in ((a.real, re_min, re_max), (a.imag, im_min, im_max)):
        if not np.isfinite(float(np.abs(part).max(initial=0.0)) + max(abs(low), abs(high))):
            raise ValueError("A - lam overflows on the rectangle")
    if not isinstance(resolution, (int, np.integer)):
        raise ValueError(f"resolution {resolution!r} is not an integer")
    if resolution < 2:
        raise DimensionMismatch(f"resolution must be at least 2, got {resolution}")
    kind, value = h_rule
    if kind not in ("fixed", "sigma-scaled"):
        raise ValueError(f"unknown h rule {kind!r}")
    value = _positive("threshold h" if kind == "fixed" else "sigma-scaled factor", value)
    res = np.linspace(re_min, re_max, resolution)
    ims = np.linspace(im_min, im_max, resolution)
    eye = np.eye(a.shape[0])
    cells = []
    for im in ims:
        for re in res:
            lam = complex(re, im)
            shifted = a - lam * eye
            full = _svd(shifted)
            sigma_min = float(full.singular[-1])
            h = value if kind == "fixed" else value * sigma_min
            try:
                if h <= 0.0:
                    raise OnSpectrum("sigma_min vanished under sigma-scaled rule")
                cells.append(_resolvent_cell(shifted, full, lam, h))
            except GrushinLabError as exc:
                cells.append(
                    PseudospectrumCell(
                        lam, np.nan, -1, np.nan, sigma_min, np.nan,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    return PseudospectrumGrid(res, ims, tuple(cells))
