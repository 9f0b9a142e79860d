"""Bordered systems: assembly, inversion, Schur identities, index, transfer,
iteration, the Feshbach reduction, and the circulant demonstration problem.

A bordered system for ``P : C^n1 -> C^n2`` is the block operator

    [[P,       rminus],
     [rplus,   corner]]  :  C^n1 (+) C^k-  ->  C^n2 (+) C^k+ ,

and when it is invertible the inverse is written in blocks

    [[e,       e_plus],
     [e_minus, e_minus_plus]],

whose lower-right block is the effective Hamiltonian: ``P`` is invertible
exactly when ``e_minus_plus`` is, and the two inverses determine each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ComplementSingular,
    ConsistencyError,
    CornerSingular,
    DimensionMismatch,
    EffectiveSingular,
    IllPosed,
    InnerSingular,
    SingularMatrix,
    TransferSingular,
)
from .linops import (
    WELL_POSED_LIMIT,
    as_cmatrix,
    certified_inverse,
    condition_from_sigma,
    is_singular,
    numerical_rank,
    rank_limit,
    refine,
    refined_solve,
    singular_gate,
    singular_values,
    spectral_norm,
    tolerance_from_sigma,
)


@dataclass(frozen=True)
class BorderedSystem:
    """The block operator [[P, R-], [R+, corner]] with its dimension metadata."""

    p: np.ndarray
    rminus: np.ndarray
    rplus: np.ndarray
    corner: np.ndarray

    @property
    def n_rows(self) -> int:
        return self.p.shape[-2]

    @property
    def n_cols(self) -> int:
        return self.p.shape[-1]

    @property
    def k_minus(self) -> int:
        return self.rminus.shape[-1]

    @property
    def k_plus(self) -> int:
        return self.rplus.shape[-2]

    def assembled(self) -> np.ndarray:
        return _fill(self.p, self.rminus, self.rplus, self.corner)


def _fill(top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    """[[top_left, top_right], [bottom_left, bottom_right]] in one array; a leading
    node axis on ``top_left`` carries over, and blocks without it repeat along it.
    :class:`DimensionMismatch` when the last two axes of a block miss its slot."""
    rows, cols = top_left.shape[-2:]
    more_rows, more_cols = bottom_left.shape[-2], top_right.shape[-1]
    slots = ((rows, more_cols), (more_rows, cols), (more_rows, more_cols))
    for block, slot in zip((top_right, bottom_left, bottom_right), slots):
        if block.shape[-2:] != slot:
            raise DimensionMismatch(f"block of shape {block.shape[-2:]} in a slot of shape {slot}")
    shape = top_left.shape[:-2] + (rows + more_rows, cols + more_cols)
    out = np.empty(shape, np.result_type(top_left, top_right, bottom_left, bottom_right))
    out[..., :rows, :cols], out[..., :rows, cols:] = top_left, top_right
    out[..., rows:, :cols], out[..., rows:, cols:] = bottom_left, bottom_right
    return out


@dataclass(frozen=True)
class GrushinInverse:
    """The four blocks of the inverse of a well-posed bordered system.

    ``e_minus_plus`` is the effective Hamiltonian.  ``condition`` is the
    condition estimate (sigma_max/sigma_min of the assembled system, or a
    documented proxy for derived inverses), nan for :func:`invert_nodes`'s
    certified inverses, which make no estimate.
    """

    e: np.ndarray
    e_plus: np.ndarray
    e_minus: np.ndarray
    e_minus_plus: np.ndarray
    condition: float

    def assembled(self) -> np.ndarray:
        return _fill(self.e, self.e_plus, self.e_minus, self.e_minus_plus)

    @staticmethod
    def from_full(full: np.ndarray, n1: int, n2: int, condition: float = np.nan) -> "GrushinInverse":
        """The blocks of ``full`` (over its last two axes), the inverse of a bordered system with
        an n2 x n1 P; ``condition`` is nan where no estimate was made (a certified inverse)."""
        top, bottom = full[..., :n1, :], full[..., n1:, :]
        return GrushinInverse(top[..., :n2], top[..., n2:], bottom[..., :n2], bottom[..., n2:], condition)

    def apply(self, v, v_plus) -> tuple[np.ndarray, np.ndarray]:
        v = np.asarray(v, dtype=np.complex128)
        v_plus = np.asarray(v_plus, dtype=np.complex128)
        u = self.e @ v + self.e_plus @ v_plus
        u_minus = self.e_minus @ v + self.e_minus_plus @ v_plus
        return u, u_minus


@dataclass(frozen=True)
class Split:
    """Index set selecting the distinguished block of a square matrix."""

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) == 0:
            raise ValueError("split must be nonempty")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("split indices must be distinct")

    def complement(self, n: int) -> tuple[int, ...]:
        chosen = set(self.indices)
        if not chosen.issubset(range(n)) or len(chosen) >= n:
            raise ValueError(f"split must be a proper subset of range({n})")
        return tuple(i for i in range(n) if i not in chosen)


@dataclass(frozen=True)
class IndexReport:
    dim_kernel: int
    dim_cokernel: int
    index: int


def assemble(p, rminus, rplus, corner=None) -> BorderedSystem:
    """Build a bordered system, checking block compatibility only.  An empty
    border means no border, unless it is 2-D and already fits P (a P with no
    rows or no columns still borders on k- columns or k+ rows)."""
    p = as_cmatrix(p)
    if not (np.size(rminus) or np.ndim(rminus) == 2 and np.shape(rminus)[0] == p.shape[0]):
        rminus = np.zeros((p.shape[0], 0), complex)
    if not (np.size(rplus) or np.ndim(rplus) == 2 and np.shape(rplus)[1] == p.shape[1]):
        rplus = np.zeros((0, p.shape[1]), complex)
    rminus, rplus = as_cmatrix(rminus), as_cmatrix(rplus)
    if rminus.shape[0] != p.shape[0]:
        raise DimensionMismatch(
            f"rminus has {rminus.shape[0]} rows, P has {p.shape[0]}"
        )
    if rplus.shape[1] != p.shape[1]:
        raise DimensionMismatch(
            f"rplus has {rplus.shape[1]} columns, P has {p.shape[1]}"
        )
    k_plus, k_minus = rplus.shape[0], rminus.shape[1]
    if corner is None:
        corner = np.zeros((k_plus, k_minus), dtype=np.complex128)
    else:
        corner = as_cmatrix(corner) if np.size(corner) else np.zeros((k_plus, k_minus), complex)
        if corner.shape != (k_plus, k_minus):
            raise DimensionMismatch(
                f"corner shape {corner.shape} != ({k_plus}, {k_minus})"
            )
    return BorderedSystem(p, rminus, rplus, corner)


def invert_system(system: BorderedSystem) -> GrushinInverse:
    """Invert a bordered system and report its condition estimate.

    Well-posedness means the condition estimate sigma_max/sigma_min, from one
    sigma-only SVD, stays below ``WELL_POSED_LIMIT``; otherwise
    :class:`IllPosed` carries the estimate.  The empty system is well posed
    with condition 1.0.  The inverse is one LU solve plus one refinement step.
    """
    mat = system.assembled()
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"assembled system is {mat.shape}, not square")
    cond = condition_from_sigma(singular_gate(mat, _ill_posed, WELL_POSED_LIMIT)) if mat.size else 1.0
    full = refined_solve(mat, np.eye(len(mat), dtype=complex))
    return GrushinInverse.from_full(full, system.n_cols, system.n_rows, cond)


def invert_nodes(system: BorderedSystem) -> GrushinInverse:
    """One unrefined LU inverse of a bordered system, or of a node stack of them (a leading
    node axis on P), split into blocks; ``condition`` is nan.  It faces :func:`invert_system`'s
    gate through :func:`linops.certified_inverse`: a matrix its inverse certifies needs no SVD,
    and :class:`IllPosed` carries the estimate and the stack index of the first matrix beyond
    the limit.  Shapes and finiteness are the caller's to check."""
    mats = system.assembled()
    stack = mats.reshape(-1, *mats.shape[-2:])
    full = certified_inverse(stack, _ill_posed, WELL_POSED_LIMIT)
    return GrushinInverse.from_full(full.reshape(mats.shape), system.n_cols, system.n_rows)


def _ill_posed(index: int, sigma: np.ndarray) -> IllPosed:
    cond = condition_from_sigma(sigma)
    return IllPosed(f"condition estimate {cond:.3e} beyond well-posed limit", cond, index)


@dataclass(frozen=True)
class RecoveredResolvent:
    matrix: np.ndarray
    residual: float


def recover_resolvent(
    system: BorderedSystem, inverse: GrushinInverse, tol: float | None = None
) -> RecoveredResolvent:
    """P^{-1} = e - e_plus @ e_minus_plus^{-1} @ e_minus, with its residual.

    ``tol``, an absolute bound on sigma_min, overrides the rank rule that decides
    whether the effective Hamiltonian is invertible (:class:`EffectiveSingular`
    otherwise -- the probe point sits in the spectrum).
    """
    emp = inverse.e_minus_plus
    if emp.shape[0] != emp.shape[1]:
        raise DimensionMismatch("effective Hamiltonian must be square to invert")
    if emp.size:
        s = singular_values(emp)
        if (is_singular(s, rank_limit(emp.shape)) if tol is None else not s[-1] > tol):
            raise EffectiveSingular(f"effective Hamiltonian singular (sigma_min={s[-1]:.3e})")
        pinv = inverse.e - inverse.e_plus @ np.linalg.solve(emp, inverse.e_minus)
    else:
        pinv = inverse.e
    resid = spectral_norm(system.p @ pinv - np.eye(system.n_rows))
    return RecoveredResolvent(pinv, resid)


def schur_check(a, b, head: int) -> float:
    """Residual ||B11^{-1} - (A11 - A12 A22^{-1} A21)|| for B = A^{-1}.

    ``head`` is the size of the leading block.  Raises
    :class:`CornerSingular` when A22 fails the rank tolerance, and
    :class:`SingularMatrix` when B11 does, also where its LU solve succeeds:
    the LU inverse of B11 certifies it without an SVD, or it gets one
    (:func:`linops.certified_inverse`); one refinement step then polishes that inverse.
    """
    a = as_cmatrix(a)
    b = as_cmatrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise DimensionMismatch("A and B must be square and of equal shape")
    if not 0 < head < a.shape[0]:
        raise DimensionMismatch(f"invalid split {head} of size {a.shape[0]}")
    a11, a12 = a[:head, :head], a[:head, head:]
    a21, a22 = a[head:, :head], a[head:, head:]
    singular_gate(a22, lambda _, s: CornerSingular(f"A22 singular at tolerance (sigma_min={s[-1]:.3e})"),
                  rank_limit(a22.shape))
    complement = a11 - a12 @ np.linalg.solve(a22, a21)
    b11 = b[None, :head, :head]
    fault = lambda _, s: SingularMatrix(f"B11 singular at tolerance (sigma_min={s[-1]:.3e})")
    ident = np.eye(head, dtype=complex)
    b11_inverse = refine(b11, ident, certified_inverse(b11, fault, rank_limit(b11.shape[-2:])))[0]
    return float(spectral_norm(b11_inverse - complement))


def effective_index(
    system: BorderedSystem,
    inverse: GrushinInverse,
    tol: float | None = None,
) -> IndexReport:
    """Kernel/cokernel dimensions of P read off either side of the reduction.

    Checks that the dimensions computed from P agree with those computed from
    the effective Hamiltonian, so that the index is k_plus - k_minus.
    """

    def rank(mat: np.ndarray) -> int:
        sigma = singular_values(mat)
        return numerical_rank(sigma, tolerance_from_sigma(sigma, mat.shape) if tol is None else tol)

    rank_p, rank_e = rank(system.p), rank(inverse.e_minus_plus)
    dim_ker = system.n_cols - rank_p
    dim_coker = system.n_rows - rank_p
    ker_e = system.k_plus - rank_e
    coker_e = system.k_minus - rank_e
    if (dim_ker, dim_coker) != (ker_e, coker_e):
        raise ConsistencyError(
            f"kernel/cokernel mismatch: P gives ({dim_ker}, {dim_coker}), "
            f"effective Hamiltonian gives ({ker_e}, {coker_e})"
        )
    return IndexReport(dim_ker, dim_coker, dim_ker - dim_coker)


def transfer(inverse: GrushinInverse, rminus_new, rplus_new) -> GrushinInverse:
    """Re-border a solved problem without touching P.

    Builds the transfer system

        G = [[-R+' e R-',  R+' e_plus],
             [-e_minus R-',  e_minus_plus]],

    inverts it (:func:`invert_system`), and reads the new inverse blocks from
    it.  Raises :class:`TransferSingular` when G is singular or beyond the
    well-posed limit (the re-bordered problem is ill posed), also where the
    Frobenius norms ||R+'|| ||e|| ||R-'|| + ||R+'|| ||e_plus|| + ||e_minus|| ||R-'||
    + ||e_minus_plus|| of its blocks times ||G^{-1}|| reach ``WELL_POSED_LIMIT``.
    """
    e, ep, em, emp = inverse.e, inverse.e_plus, inverse.e_minus, inverse.e_minus_plus
    borders = assemble(np.zeros(e.shape[::-1]), rminus_new, rplus_new)  # P is n2 x n1, e is n1 x n2
    rm, rp = borders.rminus, borders.rplus
    if rp.shape[0] + emp.shape[0] != rm.shape[1] + emp.shape[1]:
        raise DimensionMismatch("transfer system is not square; borders incompatible")
    if rp.shape[0] + emp.shape[0] == 0:
        # empty borders on both sides: the re-bordered inverse is P^{-1} = e
        return GrushinInverse.from_full(e, *e.shape, inverse.condition)
    try:
        w = invert_system(assemble(-rp @ e @ rm, rp @ ep, -em @ rm, emp))
    except IllPosed as exc:
        raise TransferSingular(f"transfer system condition {exc.condition:.3e}", exc.condition) from exc
    # sigma_max/sigma_min misses a G that is zero up to rounding; its blocks' scale does not
    n_rp, n_e, n_rm, n_ep, n_em, n_emp = (np.linalg.norm(x) for x in (rp, e, rm, ep, em, emp))
    estimate = float((n_rp * n_e * n_rm + n_rp * n_ep + n_em * n_rm + n_emp) * np.linalg.norm(w.assembled()))
    if not estimate < WELL_POSED_LIMIT:
        raise TransferSingular(f"transfer system condition {estimate:.3e}", estimate)
    new_e = (
        e
        + e @ rm @ w.e @ rp @ e
        + e @ rm @ w.e_plus @ em
        - ep @ w.e_minus @ rp @ e
        - ep @ w.e_minus_plus @ em
    )
    new_ep = -e @ rm @ w.e + ep @ w.e_minus
    new_em = -w.e @ rp @ e - w.e_plus @ em
    return GrushinInverse(new_e, new_ep, new_em, w.e, w.condition * inverse.condition)


def iterate(inverse: GrushinInverse, nminus, nplus) -> GrushinInverse:
    """Compose the bordered problem with inner borders N-/N+.

    The result equals the inverse of the problem bordered by
    ``rminus @ nminus`` and ``nplus @ rplus``.  Raises
    :class:`InnerSingular` when [[e_minus_plus, N-], [N+, 0]] is not
    invertible (:func:`invert_system`).
    """
    nm = as_cmatrix(nminus)
    np_ = as_cmatrix(nplus)
    emp = inverse.e_minus_plus
    if nm.shape[0] != emp.shape[0]:
        raise DimensionMismatch("nminus rows must match k_minus")
    if np_.shape[1] != emp.shape[1]:
        raise DimensionMismatch("nplus columns must match k_plus")
    if emp.shape[0] + np_.shape[0] != emp.shape[1] + nm.shape[1]:
        raise DimensionMismatch("inner system is not square")
    try:
        f = invert_system(assemble(emp, nm, np_))
    except IllPosed as exc:
        raise InnerSingular(f"inner system condition {exc.condition:.3e}", exc.condition) from exc
    e, ep, em = inverse.e, inverse.e_plus, inverse.e_minus
    return GrushinInverse(
        e - ep @ f.e @ em,
        ep @ f.e_plus,
        f.e_minus @ em,
        -f.e_minus_plus,
        f.condition * inverse.condition,
    )


def feshbach_effective(h, split: Split, z: complex, cross_check: bool = True) -> np.ndarray:
    """The resonance function of the distinguished block:

        G_v(z) = z - H^vv - H^vw (z - H^ww)^{-1} H^wv ,

    where w is the complementary index set.  When ``cross_check`` is on, the
    same quantity is recomputed as minus the effective Hamiltonian of the
    bordered problem for z - H with inclusion/projection borders, and the two
    must agree to 1e-10 scale.
    """
    h = as_cmatrix(h)
    n = h.shape[0]
    if h.shape[0] != h.shape[1]:
        raise DimensionMismatch("H must be square")
    v = list(split.indices)
    w = list(split.complement(n))
    hvv = h[np.ix_(v, v)]
    hvw = h[np.ix_(v, w)]
    hwv = h[np.ix_(w, v)]
    hww = h[np.ix_(w, w)]
    zw = as_cmatrix(z * np.eye(len(w)) - hww)
    singular_gate(zw, lambda _, s: ComplementSingular(f"z within spectrum of the complementary block "
                                                      f"(sigma_min={s[-1]:.3e})"),
                  min(rank_limit(zw.shape), WELL_POSED_LIMIT))
    g_v = z * np.eye(len(v)) - hvv - hvw @ np.linalg.solve(zw, hwv)
    if cross_check:
        residual, bound = _feshbach_residual(h, split, z, g_v)
        if residual > bound:
            raise ConsistencyError("bordered effective Hamiltonian disagrees with -G_v")
    return g_v


def _feshbach_residual(h, split: Split, z: complex, g_v: np.ndarray) -> tuple[float, float]:
    """||E_-+ + G_v|| for z - H bordered by inclusion and projection on the split,
    and its bound 1e-10 max(1, ||G_v||) cond, cond being that problem's estimate."""
    v = list(split.indices)
    n = len(h)
    rminus = np.zeros((n, len(v)), dtype=np.complex128)
    rminus[v, range(len(v))] = 1.0
    ginv = invert_system(assemble(z * np.eye(n) - h, rminus, rminus.T))
    return spectral_norm(ginv.e_minus_plus + g_v), 1e-10 * max(1.0, spectral_norm(g_v)) * ginv.condition


def dft_matrix(n: int) -> np.ndarray:
    """Forward DFT, negative exponent, unnormalized (the module-wide convention)."""
    j = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(j, j) / n)


def circulant_matrix(kernel) -> np.ndarray:
    """Circular convolution by ``kernel`` on Z_N: row i holds kernel[(i-j) mod N]."""
    k = np.asarray(kernel, dtype=np.complex128).ravel()
    n = k.size
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    return k[idx]


def circulant_effective(kernel) -> tuple[BorderedSystem, GrushinInverse]:
    """Bordered problem for circular convolution with DFT borders.

    The borders are the forward DFT and minus the inverse DFT, so the problem
    is well posed for every kernel and the effective Hamiltonian is the
    diagonal matrix of the kernel's DFT.
    """
    k = np.asarray(kernel, dtype=np.complex128).ravel()
    if k.size < 2:
        raise DimensionMismatch("kernel must have length >= 2")
    n = k.size
    f = dft_matrix(n)
    f_inv = np.conj(f).T / n
    system = assemble(circulant_matrix(k), -f_inv, f)
    return system, invert_system(system)
