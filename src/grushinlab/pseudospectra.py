"""Threshold-projector bordered problems and resolvent-norm estimation.

For a probe point ``lam`` and threshold ``h``, the orthogonal projectors onto
the singular subspaces of ``A - lam`` with singular values <= h define a
bordered problem whose effective Hamiltonian captures the near-singular
behaviour: the resolvent norm agrees with the norm of its inverse up to an
additive O(1/h) term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GrushinInverse, assemble, invert_system
from .errors import (
    DimensionMismatch,
    GrushinLabError,
    IllPosed,
    OnSpectrum,
    ThresholdOnSingularValue,
)
from .linops import as_cmatrix, spectral_norm, svd, tolerance_from_sigma


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


def _small_subspaces(a, lam: complex, h: float):
    a = as_cmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch("matrix must be square")
    if h <= 0.0:
        raise ValueError("threshold h must be positive")
    shifted = a - lam * np.eye(a.shape[0])
    dec = svd(shifted)
    close = np.abs(dec.singular - h) < 1e-8
    if np.any(close):
        raise ThresholdOnSingularValue(
            f"singular value(s) {dec.singular[close]} within 1e-8 of h={h}"
        )
    small = dec.singular <= h
    u_small = dec.left[:, small]
    v_small = dec.right_h[small, :].conj().T
    return shifted, dec, u_small, v_small


def threshold_projectors(a, lam: complex, h: float) -> ProjectorPair:
    """Projectors onto the singular subspaces of ``A - lam`` below threshold ``h``.

    Raises :class:`ThresholdOnSingularValue` when a singular value sits within
    1e-8 of h: the captured dimension would not be well defined.
    """
    _, dec, u_small, v_small = _small_subspaces(a, lam, h)
    return ProjectorPair(
        pi_minus=u_small @ u_small.conj().T,
        pi_plus=v_small @ v_small.conj().T,
        h=float(h),
        n_captured=u_small.shape[1],
    )


def projector_identities(a, lam: complex, pair: ProjectorPair) -> dict:
    """Residuals of the structural projector identities (all zero in exact arithmetic)."""
    a = as_cmatrix(a)
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


def projector_grushin(a, lam: complex, h: float) -> ProjectorGrushin:
    """Bordered problem with the threshold singular subspaces as borders.

    The borders are the orthonormal bases of the captured subspaces, so the
    norm hypotheses (||P pi_+|| <= h, lower bounds off the captured space) are
    verified numerically before inversion; measured block norms are returned
    for scaling studies across an h-sequence.
    """
    shifted, dec, u_small, v_small = _small_subspaces(a, lam, h)
    slack = 1.0 + 1e-8
    if u_small.shape[1]:
        if spectral_norm(shifted @ v_small) > h * slack:
            raise IllPosed("||P pi_plus|| exceeds h")
        if spectral_norm(shifted.conj().T @ u_small) > h * slack:
            raise IllPosed("||P* pi_minus|| exceeds h")
    large = dec.singular > h
    v_large = dec.right_h[large, :].conj().T
    if v_large.shape[1]:
        smallest = np.linalg.svd(shifted @ v_large, compute_uv=False)[-1]
        if smallest < h / slack:
            raise IllPosed("lower bound off the captured subspace fails")
    inverse = invert_system(assemble(shifted, u_small, v_small.conj().T))
    norms = {
        "e": spectral_norm(inverse.e),
        "e_plus": spectral_norm(inverse.e_plus),
        "e_minus": spectral_norm(inverse.e_minus),
        "e_minus_plus": spectral_norm(inverse.e_minus_plus),
    }
    pair = ProjectorPair(
        u_small @ u_small.conj().T,
        v_small @ v_small.conj().T,
        float(h),
        u_small.shape[1],
    )
    return ProjectorGrushin(pair, inverse, norms)


@dataclass(frozen=True)
class EstimateCheck:
    worst_ratio: float
    ratios: np.ndarray


def estimate_check(a, lam: complex, h: float, trials: int, seed: int = 0) -> EstimateCheck:
    """Empirical constant for the stability estimate

        h ||u|| + ||u_minus||  <=  C (||v|| + h ||v_plus||)

    over seeded random data; the worst observed ratio is the reported C.
    """
    pg = projector_grushin(a, lam, h)
    n = pg.inverse.e.shape[0]
    k = pg.pair.n_captured
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5E5]))
    ratios = np.zeros(trials)
    for i in range(trials):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v_plus = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        u, u_minus = pg.inverse.apply(v, v_plus)
        num = h * np.linalg.norm(u) + np.linalg.norm(u_minus)
        den = np.linalg.norm(v) + h * np.linalg.norm(v_plus)
        ratios[i] = num / den
    return EstimateCheck(float(ratios.max()), ratios)


def resolvent_bound(a, lam: complex, h: float) -> PseudospectrumCell:
    """One pseudospectrum cell: sigma_min of A - lam and ||E_-+^{-1}||.

    The empirical constant ``c_emp = h * |1/sigma_min - norm_eff_inv|``
    quantifies the additive O(1/h) discrepancy.  Raises :class:`OnSpectrum`
    when lam is an eigenvalue at rank tolerance.
    """
    a = as_cmatrix(a)
    sigma = np.linalg.svd(a - lam * np.eye(a.shape[0]), compute_uv=False)
    return _resolvent_cell(a, lam, h, sigma)


def _resolvent_cell(
    a: np.ndarray, lam: complex, h: float, sigma: np.ndarray
) -> PseudospectrumCell:
    """:func:`resolvent_bound` given the singular values ``sigma`` of A - lam."""
    if sigma[-1] <= tolerance_from_sigma(sigma, a.shape):
        raise OnSpectrum(f"sigma_min = {sigma[-1]:.3e} at tolerance")
    pg = projector_grushin(a, lam, h)
    emp = pg.inverse.e_minus_plus
    if emp.size:
        norm_eff_inv = 1.0 / np.linalg.svd(emp, compute_uv=False)[-1]
    else:
        norm_eff_inv = 0.0
    sigma_min = float(sigma[-1])
    c_emp = abs(1.0 / sigma_min - norm_eff_inv) * h
    return PseudospectrumCell(
        complex(lam), float(h), pg.pair.n_captured, float(norm_eff_inv), sigma_min, float(c_emp)
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

    ``rectangle`` is (re_min, re_max, im_min, im_max); ``resolution`` a count
    or (n_re, n_im) pair, each at least 2; ``h_rule`` either ("fixed", h) or
    ("sigma-scaled", factor) with h = factor * sigma_min per cell.  Cell-level
    failures are recorded in the cell, never raised.
    """
    a = as_cmatrix(a)
    re_min, re_max, im_min, im_max = [float(x) for x in rectangle]
    if not (re_min < re_max and im_min < im_max):
        raise DimensionMismatch("rectangle bounds must be strictly increasing")
    if isinstance(resolution, int):
        n_re = n_im = resolution
    else:
        n_re, n_im = resolution
    if n_re < 2 or n_im < 2:
        raise DimensionMismatch("resolution must be at least 2x2")
    kind, value = h_rule
    if kind not in ("fixed", "sigma-scaled"):
        raise ValueError(f"unknown h rule {kind!r}")
    res = np.linspace(re_min, re_max, n_re)
    ims = np.linspace(im_min, im_max, n_im)
    cells = []
    for im in ims:
        for re in res:
            lam = complex(re, im)
            sigma = np.linalg.svd(a - lam * np.eye(a.shape[0]), compute_uv=False)
            try:
                if kind == "fixed":
                    h = float(value)
                else:
                    h = float(value) * float(sigma[-1])
                    if h <= 0.0:
                        raise OnSpectrum("sigma_min vanished under sigma-scaled rule")
                cells.append(_resolvent_cell(a, lam, h, sigma))
            except GrushinLabError as exc:
                cells.append(
                    PseudospectrumCell(
                        lam, np.nan, -1, np.nan, float(sigma[-1]), np.nan,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
    return PseudospectrumGrid(res, ims, tuple(cells))
