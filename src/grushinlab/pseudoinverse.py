"""Moore-Penrose pseudoinverse as the interior block of a canonical bordered system.

The canonical borders for ``P`` are an orthonormal basis of the orthogonal
complement of range(P) (as the column border) and an orthonormal spanning set
of ker(P) (as the row border).  With these borders the bordered system is
always well posed and its interior inverse block is the pseudoinverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import assemble, invert_system
from .errors import DimensionMismatch
from .linops import as_cmatrix, numerical_rank, spectral_norm, svd, tolerance_from_sigma


@dataclass(frozen=True)
class CanonicalBorders:
    """Borders built from the singular value decomposition of P.

    ``rminus`` has orthonormal columns spanning range(P)-perp; ``rplus`` has
    orthonormal rows spanning ker(P).
    """

    rminus: np.ndarray
    rplus: np.ndarray
    rank: int
    tol: float


def canonical_borders(p, tol: float | None = None) -> CanonicalBorders:
    """Extract the canonical borders of ``p`` at numerical rank tolerance ``tol``.

    Raises :class:`RankAmbiguous` if a singular value falls inside the
    tolerance band: the pseudoinverse is discontinuous in the rank, so no
    silent thresholding.
    """
    p = as_cmatrix(p)
    dec = svd(p)
    if tol is None:
        tol = tolerance_from_sigma(dec.singular, p.shape)
    r = numerical_rank(dec.singular, tol)
    rminus = dec.left[:, r:]
    rplus = dec.right_h[r:, :]
    return CanonicalBorders(rminus, rplus, r, tol)


def pseudo_inverse(p, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudoinverse of ``p`` via the canonical bordered system."""
    p = as_cmatrix(p)
    borders = canonical_borders(p, tol)
    inverse = invert_system(assemble(p, borders.rminus, borders.rplus))
    return inverse.e


def mp_residuals(p, pplus) -> tuple[float, float, float, float]:
    """Norms of the four Moore-Penrose defects of a candidate pseudoinverse:

    ``P X P - P``, ``X P X - X``, ``(P X)* - P X``, ``(X P)* - X P``.
    """
    p = as_cmatrix(p)
    x = as_cmatrix(pplus)
    if x.shape != (p.shape[1], p.shape[0]):
        raise DimensionMismatch(
            f"pseudoinverse candidate must be {p.shape[1]}x{p.shape[0]}, got {x.shape}"
        )
    px = p @ x
    xp = x @ p
    return (
        spectral_norm(px @ p - p),
        spectral_norm(xp @ x - x),
        spectral_norm(px.conj().T - px),
        spectral_norm(xp.conj().T - xp),
    )
