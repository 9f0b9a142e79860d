"""Perturbation machinery around nilpotent blocks.

Covers the bordered problem for a perturbed Jordan block and its effective
Hamiltonian series, eigenvalue-cloud experiments, the projection-based
approximation scheme with its Neumann series, and the leading-order
eigenvalue asymptotics for a two-large-one-small block matrix under generic
perturbation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import GrushinInverse, assemble, invert_system
from .errors import (
    BasisNotOrthonormal,
    ContractionViolated,
    DegenerateLeadingMatrix,
    DimensionMismatch,
    OutsideConvergenceRegime,
)
from .linops import as_cmatrix, condition_from_sigma, eigenvalues, singular_values, spectral_norm


def jordan_block(n: int) -> np.ndarray:
    """Upper-triangular nilpotent Jordan block."""
    j = np.zeros((n, n), dtype=np.complex128)
    j[np.arange(n - 1), np.arange(1, n)] = 1.0
    return j


def jordan_vectors(n: int, lam: complex) -> tuple[np.ndarray, np.ndarray]:
    """The kernel/cokernel profile vectors (1, lam, ..., lam^(n-1)) and its reversal."""
    if n < 1:
        raise DimensionMismatch("block size must be >= 1")
    powers = np.power(complex(lam), np.arange(n))
    return powers.copy(), powers[::-1].copy()


def rank_one_coupling(n: int) -> np.ndarray:
    """The rank-one perturbation sending the first basis vector to the last."""
    q = np.zeros((n, n), dtype=np.complex128)
    q[n - 1, 0] = 1.0
    return q


def gaussian_matrix(n: int, seed: int, m: int | None = None) -> np.ndarray:
    """Complex matrix with independent standard Gaussian real and imaginary parts."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


@dataclass(frozen=True)
class JordanSpec:
    """A perturbed-Jordan experiment: J_n + epsilon*Q probed at ``lam``.

    The series regime needs |lam| < 1; construction enforces it.
    """

    n: int
    lam: complex
    epsilon: float
    q: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("block size must be >= 1")
        if abs(self.lam) >= 1.0:
            raise OutsideConvergenceRegime(f"|lambda| = {abs(self.lam):.3f} >= 1")
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")
        object.__setattr__(self, "q", as_cmatrix(self.q, self.n, self.n))

    @staticmethod
    def with_rank_one(n: int, lam: complex, epsilon: float) -> "JordanSpec":
        return JordanSpec(n, lam, epsilon, rank_one_coupling(n))

    @staticmethod
    def with_gaussian(n: int, lam: complex, epsilon: float, seed: int) -> "JordanSpec":
        return JordanSpec(n, lam, epsilon, gaussian_matrix(n, seed))


def _jordan_border_system(n: int, lam: complex, epsilon: float, q) -> GrushinInverse:
    e_plus0 = np.zeros((n, 1), dtype=np.complex128)
    e_plus0[0, 0] = 1.0
    e_minus0 = np.zeros((1, n), dtype=np.complex128)
    e_minus0[0, n - 1] = 1.0
    p = jordan_block(n) - lam * np.eye(n)
    if epsilon:
        p = p + epsilon * as_cmatrix(q, n, n)
    return invert_system(assemble(p, e_minus0.T, e_plus0.T))


def jordan_effective_exact(spec: JordanSpec) -> complex:
    """Effective Hamiltonian of J + eps*Q - lam by direct bordered inversion."""
    inverse = _jordan_border_system(spec.n, spec.lam, spec.epsilon, spec.q)
    return complex(inverse.e_minus_plus[0, 0])


@dataclass(frozen=True)
class SeriesResult:
    value: complex
    terms: tuple[complex, ...]
    contraction: float


THETA_MAX = 0.9
CONTRACTION_MAX = 0.5


def jordan_effective_series(spec: JordanSpec, order: int) -> SeriesResult:
    """Partial sum of the perturbation series for the effective Hamiltonian:

        lam^n + sum_{k=1..K} (-1)^k eps^k  e_minus Q (e Q)^(k-1) e_plus ,

    where the blocks belong to the unperturbed problem at ``lam``.  Valid for
    |lam| <= 0.9 and eps * ||e(lam) Q|| <= 0.5; outside that regime raises
    :class:`OutsideConvergenceRegime`.
    """
    if order < 0:
        raise ValueError("order must be >= 0")
    if abs(spec.lam) > THETA_MAX:
        raise OutsideConvergenceRegime(f"|lambda| = {abs(spec.lam):.3f} > {THETA_MAX}")
    base = _jordan_border_system(spec.n, spec.lam, 0.0, spec.q)
    eq = base.e @ spec.q
    contraction = spec.epsilon * spectral_norm(eq)
    if contraction > CONTRACTION_MAX:
        raise OutsideConvergenceRegime(
            f"eps * ||e(lam) Q|| = {contraction:.3f} > {CONTRACTION_MAX}"
        )
    value = complex(base.e_minus_plus[0, 0])
    terms = [value]
    left = base.e_minus @ spec.q          # 1 x n, evolves as e_minus Q (e Q)^(k-1)
    for k in range(1, order + 1):
        term = complex(((-spec.epsilon) ** k) * (left @ base.e_plus)[0, 0])
        terms.append(term)
        value += term
        left = left @ eq
    return SeriesResult(value, tuple(terms), contraction)


@dataclass(frozen=True)
class CloudResult:
    eigenvalues: np.ndarray
    q_norm: float
    coupling: complex  # <Q e_+, e_-> of the unperturbed profile vectors


def jordan_cloud(n: int, epsilon: float, q_kind: str = "gaussian", seed: int = 0) -> CloudResult:
    """Eigenvalues of J_n + epsilon * Q for a rank-one or seeded Gaussian Q."""
    if n < 2:
        raise DimensionMismatch("cloud needs n >= 2")
    if q_kind == "rank-one":
        q = rank_one_coupling(n)
    elif q_kind == "gaussian":
        q = gaussian_matrix(n, seed)
    else:
        raise ValueError(f"unknown q kind {q_kind!r}")
    vals = eigenvalues(jordan_block(n) + epsilon * q)
    e_plus, e_minus = jordan_vectors(n, 0.0)
    coupling = complex(np.conj(e_minus) @ q @ e_plus)
    return CloudResult(vals, spectral_norm(q), coupling)


def projected_inverse_blocks(t, basis) -> GrushinInverse:
    """Closed-form inverse of the bordered problem for I - pi*T.

    With ``pi`` the orthogonal projection on the span of the orthonormal
    ``basis`` columns and borders given by that basis, the inverse is

        [[1 - pi,            basis          ],
         [basis* (I + T(1-pi)),  basis* T basis - 1]].
    """
    t = as_cmatrix(t)
    b = as_cmatrix(basis)
    n = t.shape[0]
    if t.shape[0] != t.shape[1] or b.shape[0] != n:
        raise DimensionMismatch("T must be square and basis rows must match it")
    gram = b.conj().T @ b
    if spectral_norm(gram - np.eye(b.shape[1])) > 1e-12:
        raise BasisNotOrthonormal("basis columns are not orthonormal to 1e-12")
    pi = b @ b.conj().T
    one_minus_pi = np.eye(n) - pi
    e = one_minus_pi
    e_plus = b
    e_minus = b.conj().T @ (np.eye(n) + t @ one_minus_pi)
    e_minus_plus = b.conj().T @ t @ b - np.eye(b.shape[1])
    mat = assemble(np.eye(n) - pi @ t, b, b.conj().T).assembled()
    cond = condition_from_sigma(singular_values(mat)) if mat.size else 1.0
    return GrushinInverse(e, e_plus, e_minus, e_minus_plus, cond)


@dataclass(frozen=True)
class NeumannSeriesResult:
    value: np.ndarray
    tail_bound: float
    contraction: float
    order: int


def neumann_effective(t, basis, order: int) -> NeumannSeriesResult:
    """Effective-Hamiltonian series for I - T with projection borders:

        E0 + sum_{k=1..K} basis* T ((1-pi) T)^k basis ,

    valid when delta = ||(1-pi)T|| < 1; the reported tail bound is
    delta^(K+1) ||T|| / (1 - delta).
    """
    t = as_cmatrix(t)
    b = as_cmatrix(basis)
    base = projected_inverse_blocks(t, b)
    pi = b @ b.conj().T
    contract = (np.eye(t.shape[0]) - pi) @ t
    delta = spectral_norm(contract)
    if delta >= 1.0:
        raise ContractionViolated(f"||(1-pi)T|| = {delta:.3f} >= 1")
    value = base.e_minus_plus.copy()
    power = contract.copy()
    for _ in range(1, order + 1):
        value = value + b.conj().T @ t @ power @ b
        power = power @ contract
    tail = delta ** (order + 1) * spectral_norm(t) / (1.0 - delta)
    return NeumannSeriesResult(value, tail, delta, order)


@dataclass(frozen=True)
class BlockJordanSpec:
    """Two Jordan blocks of size n plus one of size k < n, perturbed by eps*Q."""

    n: int
    k: int
    epsilon: float
    q: np.ndarray

    def __post_init__(self):
        if not 1 <= self.k < self.n:
            raise DimensionMismatch("need 1 <= k < n")
        object.__setattr__(
            self, "q", as_cmatrix(self.q, 2 * self.n + self.k, 2 * self.n + self.k)
        )

    @staticmethod
    def with_gaussian(n: int, k: int, epsilon: float, seed: int) -> "BlockJordanSpec":
        return BlockJordanSpec(n, k, epsilon, gaussian_matrix(2 * n + k, seed))

    def matrix(self) -> np.ndarray:
        dim = 2 * self.n + self.k
        a = np.zeros((dim, dim), dtype=np.complex128)
        a[: self.n, : self.n] = jordan_block(self.n)
        a[self.n : 2 * self.n, self.n : 2 * self.n] = jordan_block(self.n)
        a[2 * self.n :, 2 * self.n :] = jordan_block(self.k)
        return a

    def leading_matrix(self) -> np.ndarray:
        """The 2x2 matrix of corner entries of the large-block couplings."""
        n = self.n
        rows = [n - 1, 2 * n - 1]
        cols = [0, n]
        return self.q[np.ix_(rows, cols)]


def lidskii_predict(spec: BlockJordanSpec) -> np.ndarray:
    """Leading-order predictions for the 2n largest-modulus eigenvalues:

        eps^(1/n) |q_j|^(1/n) exp(i (2 pi l + arg q_j) / n),  l = 1..n, j = 1, 2,

    where q_1, q_2 are the eigenvalues of the corner coupling matrix (they
    must be distinct: more than 1e-8 apart relative to max(|q_1|, |q_2|, 1)).
    """
    q_eigs = eigenvalues(spec.leading_matrix())
    q1, q2 = q_eigs[0], q_eigs[1]
    scale = max(abs(q1), abs(q2), 1.0)
    if abs(q1 - q2) <= 1e-8 * scale:
        raise DegenerateLeadingMatrix(f"leading eigenvalues coincide: {q1} ~ {q2}")
    preds = []
    for qj in (q1, q2):
        if spec.epsilon == 0.0 or qj == 0.0:
            preds.extend([0.0j] * spec.n)
            continue
        modulus = (spec.epsilon * abs(qj)) ** (1.0 / spec.n)
        for ell in range(1, spec.n + 1):
            angle = (2.0 * np.pi * ell + np.angle(qj)) / spec.n
            preds.append(modulus * np.exp(1j * angle))
    return np.asarray(preds, dtype=np.complex128)


@dataclass(frozen=True)
class LidskiiRecord:
    epsilon: float
    max_modulus_rel_error: float
    max_position_rel_error: float
    mean_log_modulus: float


@dataclass(frozen=True)
class LidskiiComparison:
    records: tuple[LidskiiRecord, ...]
    fitted_exponent: float
    expected_exponent: float


def _greedy_match(predicted: np.ndarray, actual: np.ndarray) -> np.ndarray:
    """Pair each prediction (modulus-descending) with the nearest unused actual value."""
    order = np.argsort(-np.abs(predicted))
    remaining = list(range(actual.size))
    matched = np.zeros_like(predicted)
    for idx in order:
        dists = [abs(actual[j] - predicted[idx]) for j in remaining]
        pick = remaining.pop(int(np.argmin(dists)))
        matched[idx] = actual[pick]
    return matched


def lidskii_compare(spec: BlockJordanSpec, eps_values: Sequence[float]) -> LidskiiComparison:
    """Match predictions to computed spectra over an epsilon sweep.

    For each epsilon the 2n largest-modulus eigenvalues of A + eps*Q are
    paired with the predictions by greedy nearest matching; the comparison
    reports per-epsilon relative errors together with the log-log slope of
    the leading moduli (expected 1/n), fitted over at least two nonzero epsilons.
    """
    a = spec.matrix()
    records = []
    for eps in eps_values:
        probe = BlockJordanSpec(spec.n, spec.k, float(eps), spec.q)
        preds = lidskii_predict(probe)
        vals = eigenvalues(a + eps * spec.q)
        leading = vals[np.argsort(-np.abs(vals))][: 2 * spec.n]
        matched = _greedy_match(preds, leading)
        mod_err = np.max(np.abs(np.abs(matched) - np.abs(preds)) / np.abs(preds)) if eps else 0.0
        pos_err = np.max(np.abs(matched - preds) / np.abs(preds)) if eps else 0.0
        records.append(
            LidskiiRecord(
                float(eps),
                float(mod_err),
                float(pos_err),
                float(np.mean(np.log(np.abs(leading)))) if eps else -np.inf,
            )
        )
    usable = [r for r in records if np.isfinite(r.mean_log_modulus)]
    if len(usable) < 2:
        raise ValueError(f"fitting a slope needs at least two nonzero epsilons, got {len(usable)}")
    xs, ys = np.log([r.epsilon for r in usable]), np.array([r.mean_log_modulus for r in usable])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return LidskiiComparison(tuple(records), slope, 1.0 / spec.n)
