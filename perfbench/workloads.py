"""The benchmark's three workloads.

A workload is built from a seed with numpy alone: it draws its inputs and
computes every reference the checks need, before grushinlab is imported.
``setup(lib)`` then builds the library's objects from those inputs and makes
one warm-up call per layer, and ``operations(lib)`` returns one round: a list
of ``(label, call, check)``, where ``call()`` runs library code and
``check(output)`` returns ``None`` or a description of a wrong output.

Every call looks the library function up on its module when it runs, so the
traced run sees the wrappers it installs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import checkers as chk


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def complex_gaussian(rng, shape, scale: float = 1.0) -> np.ndarray:
    """Entries with independent N(0, 1/2) real and imaginary parts, times ``scale``."""
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


# --- contour-count ------------------------------------------------------------


@dataclass(frozen=True)
class Circle:
    matrix: int          # index into ContourCount.matrices
    center: complex
    radius: float
    base_point: complex | None  # None: invariant-subspace borders
    weighted: bool
    count: int           # reference eigenvalues inside


def border_poles(a, lam: complex) -> np.ndarray:
    """Points z where the pencil z I - A, bordered by the singular directions of
    lam I - A for its smallest singular value, is singular.

    There the effective Hamiltonian has a pole, and a circle around one would
    count eigenvalues minus poles.  With U1, V1 the other singular vectors,
    they are the eigenvalues of the pencil z U1* V1 - U1* A V1.
    """
    u, _, vh = np.linalg.svd(lam * np.eye(a.shape[0]) - a)
    u1, v1 = u[:, :-1], vh[:-1, :].conj().T
    return np.linalg.eigvals(np.linalg.solve(u1.conj().T @ v1, u1.conj().T @ a @ v1))


def _isolated_circle(rng, a, eigs, ratio: float):
    """A circle around one seeded eigenvalue whose radius is ``ratio`` times the
    distance to the nearest other eigenvalue or border pole, so base-point
    borders stay valid inside and the trapezoid error falls like ratio**N."""
    lam = eigs[rng.integers(eigs.size)]
    nearest = min(np.sort(np.abs(eigs - lam))[1], np.abs(border_poles(a, lam) - lam).min())
    radius = ratio * float(nearest)
    center = lam + 0.02 * radius * np.exp(2j * np.pi * rng.random())
    return complex(center), radius, complex(lam)


def _multi_circle(rng, eigs, ratio: float):
    """A circle centred on a seeded eigenvalue enclosing its k nearest (k = 2..6).

    With d_1 <= d_2 <= ... the distances from the centre, the radius is
    d_(k-1) / ``ratio``: the farthest enclosed eigenvalue sits at ``ratio``
    times the radius and the nearest outer one, d_k, no nearer than the radius
    over ``ratio``, so the trapezoid error falls like ratio**N.  The circle is
    drawn among those with d_(k-1) / d_k <= ratio**2.  If there is none, it
    encloses the centre alone, with radius ``ratio`` * d_1.
    """
    candidates, singles = [], []
    for lam in eigs:
        dist = np.sort(np.abs(eigs - lam))
        singles.append((complex(lam), float(ratio * dist[1])))
        for k in range(2, 7):
            if dist[k - 1] <= ratio**2 * dist[k]:
                candidates.append((complex(lam), float(dist[k - 1] / ratio)))
    candidates = candidates or singles
    return candidates[rng.integers(len(candidates))]


def _loop_blocks(rng, n: int, winds: bool) -> dict:
    """Fourier blocks of a closed loop of bordered systems.

    Winding loop: P(t) = e^{it} D + A0 with ||A0|| = 0.3 < min D, so det P
    winds n times; unitary borders keep the bordered matrix invertible on the
    whole disc.  Non-winding loop: P(t) = A0 + s (A1 e^{it} + A1* e^{-it})
    with A0 = diag(>= 2) and s small enough that P stays within 1 of A0 and
    the oscillation stays below 0.4 of the smallest singular value of the
    constant bordered matrix, so det P never winds and the harmonic extension
    to the disc stays invertible.
    """
    if winds:
        d = np.diag(1.0 + 0.2 * rng.random(n)).astype(complex)
        a0 = complex_gaussian(rng, (n, n))
        a0 *= 0.3 / np.linalg.norm(a0, 2)
        q = np.linalg.qr(complex_gaussian(rng, (n, n)))[0]
        return {"p": {0: a0, 1: d}, "rminus": {0: q}, "rplus": {0: q.conj().T}, "corner": None}
    a0 = np.diag(2.0 + rng.random(n)).astype(complex)
    a1 = complex_gaussian(rng, (n, n), 0.2)
    col = np.linalg.qr(complex_gaussian(rng, (n, 2)))[0]
    row = np.linalg.qr(complex_gaussian(rng, (n, 2)))[0].conj().T
    c0 = complex_gaussian(rng, (2, 2), 0.1)
    c1 = complex_gaussian(rng, (2, 2), 0.05)
    base = np.block([[a0, col], [row, c0]])
    swing = 2.0 * max(np.linalg.norm(a1, 2), np.linalg.norm(c1, 2))
    scale = min(1.0, 0.4 * np.linalg.svd(base, compute_uv=False)[-1] / swing,
                0.5 / np.linalg.norm(a1, 2))
    return {
        "p": {0: a0, 1: scale * a1, -1: scale * a1.conj().T},
        "rminus": {0: col},
        "rplus": {0: row},
        "corner": {0: c0, 1: scale * c1, -1: scale * c1.conj().T},
    }


class ContourCount:
    """Eigenvalue counts and weighted traces of dense pencils z I - A, and loops.

    Per round: five Gaussian pencils (n = 8..24), each with two circles around
    one eigenvalue (base-point borders) and one around several (invariant-
    subspace borders, which keep the bordered problem invertible inside).
    Each circle runs count_direct and count_effective, and eight of the
    fifteen also weighted_trace with weight z.  The radii are set from the
    gaps to other eigenvalues and border poles, so that the trapezoid error
    falls like rho**N with rho = 0.65, 0.78 or 0.884.  Node doubling stops at
    the first N with rho**(N/2) below the library's 1e-10 tolerance; each rho
    lies well inside its band (rho <= 0.706 for N = 128, 0.706..0.840 for
    256, 0.840..0.917 for 512), so the node count hardly depends on the seed.
    Four loops, two winding.
    """

    name = "contour-count"
    SIZES = (8, 12, 16, 20, 24)
    RATIOS = (0.65, 0.78, 0.884)
    LOOPS = ((3, True), (4, False), (6, True), (8, False))
    BASE_TOL = 1e-8

    def __init__(self, seed: int):
        rng = _rng(seed, 1)
        self.matrices, self.eigs, self.circles = [], [], []
        for i, n in enumerate(self.SIZES):
            a = complex_gaussian(rng, (n, n), 1.0 / np.sqrt(n))
            eigs = np.linalg.eigvals(a)
            self.matrices.append(a)
            self.eigs.append(eigs)
            shapes = [
                _isolated_circle(rng, a, eigs, self.RATIOS[(i + j) % 3]) for j in range(2)
            ]
            shapes.append(_multi_circle(rng, eigs, self.RATIOS[(i + 1) % 3]) + (None,))
            for j, (center, radius, base) in enumerate(shapes):
                weighted = j == 0 or (j == 2 and i % 2 == 0)
                count = int(np.count_nonzero(chk.inside_circle(eigs, center, radius)))
                self.circles.append(Circle(i, center, radius, base, weighted, count))
        self.loops = [(_loop_blocks(rng, n, winds), n if winds else 0) for n, winds in self.LOOPS]

    def setup(self, lib) -> None:
        traces, linops = lib.traces, lib.linops
        self.families = [traces.HolomorphicFamily.pencil(a) for a in self.matrices]
        self.contours = [linops.Contour.circle(c.center, c.radius) for c in self.circles]
        self.loop_families = [traces.LoopFamily.from_blocks(**blocks) for blocks, _ in self.loops]
        # one warm-up call per layer on small inputs of the same kinds
        a = np.diag([0.1, 0.5, 0.9, -0.5]).astype(complex)
        family = traces.HolomorphicFamily.pencil(a)
        contour = linops.Contour.circle(0.1, 0.2)
        rm, rp = traces.invariant_subspace_borders(a, contour)
        traces.count_direct(family, contour)
        traces.count_effective(family, rm, rp, contour)
        traces.weighted_trace(family, rm, rp, contour, lambda z: z)
        traces.borders_from_base_point(family, 0.1, self.BASE_TOL)
        one = np.ones((1, 1), dtype=complex)
        traces.loop_trace_identity(traces.LoopFamily.from_blocks({1: one}, {0: one}, {0: one}))

    def instrument(self, lib, tracer) -> None:
        """Count the z points the library asks of each family."""
        self.families = [
            lib.traces.HolomorphicFamily(
                tracer.counted("traces.family_value_evals", f.value),
                tracer.counted("traces.family_derivative_evals", f.derivative),
            )
            for f in self.families
        ]

    def operations(self, lib) -> list:
        traces = lib.traces
        ops = []
        for circle, contour in zip(self.circles, self.contours):
            family = self.families[circle.matrix]
            a = self.matrices[circle.matrix]
            eigs = self.eigs[circle.matrix]

            def call(circle=circle, contour=contour, family=family, a=a):
                if circle.base_point is None:
                    rm, rp = traces.invariant_subspace_borders(a, contour)
                else:
                    rm, rp = traces.borders_from_base_point(family, circle.base_point, self.BASE_TOL)
                direct = traces.count_direct(family, contour)
                effective = traces.count_effective(family, rm, rp, contour)
                weighted = None
                if circle.weighted:
                    weighted = traces.weighted_trace(family, rm, rp, contour, lambda z: z)
                return direct, effective, weighted

            def check(out, circle=circle, eigs=eigs):
                direct, effective, weighted = out
                for name, count in (("count_direct", direct), ("count_effective", effective)):
                    problem = chk.check_count(count, eigs, circle.center, circle.radius)
                    if problem:
                        return f"{name}: {problem}"
                if weighted is None:
                    return None
                return chk.check_weighted(
                    weighted.direct, weighted.effective, eigs, circle.center, circle.radius
                )

            ops.append((f"circle n={a.shape[0]} k={circle.count}", call, check))
        for loop, (_, winding) in zip(self.loop_families, self.loops):
            ops.append((
                f"loop winding={winding}",
                lambda loop=loop: traces.loop_trace_identity(loop),
                lambda out, w=winding: chk.check_loop(out.trace_p, out.trace_effective, w),
            ))
        return ops


# --- bvp-boundary ---------------------------------------------------------------


def _zero(x: float) -> float:
    return 0.0


def _harmonic(x: float) -> float:
    return (x - 0.5 * np.pi) ** 2


def _well(x: float) -> float:
    return -5.0 if abs(x - 0.5 * np.pi) <= np.pi / 6.0 else 0.0


#: The library's named potentials on [0, pi], written out here.
POTENTIALS = {"zero": _zero, "harmonic": _harmonic, "well": _well}


def _grid(a: float, b: float, m: int) -> tuple[np.ndarray, float]:
    step = (b - a) / (m + 1)
    return a + step * np.arange(m + 2), step


def _clusters(neumann, dirichlet, count: int) -> np.ndarray:
    """The lowest ``count`` + 1 distinct values of both spectra (merged within 1e-6)."""
    values = np.sort(np.concatenate([neumann, dirichlet]))
    keep = [values[0]]
    for v in values[1:]:
        if v - keep[-1] > 1e-6 * (1.0 + abs(v)):
            keep.append(v)
    return np.asarray(keep[: count + 1])


class BvpBoundary:
    """The 1-D boundary reduction on [0, pi].

    Per round: dn_trace_identity for the zero, harmonic and well potentials at
    m = 120 and for one seeded potential at m = 160; then n2d_map and
    bvp_grushin at m = 160 for each potential at one real z (a seeded spectral
    gap's midpoint) and one complex z; and one n2d_map on [0, 1] with V = 0,
    z = -1 against the continuum map.  Each circle sits on a seeded spectral
    value with half the distance to the nearest other one as radius, so every
    identity converges at 128 nodes whatever the seed.
    """

    name = "bvp-boundary"
    M_SMALL = 120
    M_LARGE = 160
    WINDOWS = 6

    def __init__(self, seed: int):
        rng = _rng(seed, 2)
        large = list(POTENTIALS)[rng.integers(len(POTENTIALS))]
        self.identities = []  # (potential, m, center, radius, tally)
        for potential, m in [(p, self.M_SMALL) for p in POTENTIALS] + [(large, self.M_LARGE)]:
            neumann, dirichlet = self._spectra(potential, m)
            values = _clusters(neumann, dirichlet, self.WINDOWS)
            i = rng.integers(self.WINDOWS)
            gaps = np.diff(values)
            radius = 0.5 * float(gaps[i] if i == 0 else min(gaps[i - 1], gaps[i]))
            center = float(values[i])
            tally = chk.dn_tally(neumann, dirichlet, center, radius)
            self.identities.append((potential, m, center, radius, tally))
        self.sweep = []  # (potential, z, reference map)
        for potential in POTENTIALS:
            neumann, dirichlet = self._spectra(potential, self.M_LARGE)
            values = _clusters(neumann, dirichlet, self.WINDOWS)
            i = rng.integers(self.WINDOWS)
            z_real = 0.5 * (values[i] + values[i + 1])
            z_complex = complex(rng.uniform(-2.0, 20.0), rng.uniform(0.3, 1.5))
            x, h = _grid(0.0, np.pi, self.M_LARGE)
            v = [POTENTIALS[potential](xj) for xj in x]
            for z in (z_real, z_complex):
                self.sweep.append((potential, z, chk.neumann_to_dirichlet(v, h, z)))
        _, self.unit_step = _grid(0.0, 1.0, self.M_LARGE)
        self.unit_reference = chk.neumann_to_dirichlet(
            np.zeros(self.M_LARGE + 2), self.unit_step, -1.0
        )

    @staticmethod
    def _spectra(potential: str, m: int):
        if potential == "zero":
            return chk.zero_potential_spectra(m, np.pi)
        x, h = _grid(0.0, np.pi, m)
        return chk.grid_spectra([POTENTIALS[potential](xj) for xj in x], h)

    def setup(self, lib) -> None:
        bvp1d, linops = lib.bvp1d, lib.linops
        self.grids = {
            (p, m): bvp1d.Discretization(0.0, np.pi, m, POTENTIALS[p])
            for p in POTENTIALS for m in (self.M_SMALL, self.M_LARGE)
        }
        self.grids["unit"] = bvp1d.Discretization(0.0, 1.0, self.M_LARGE, _zero)
        self.contours = [linops.Contour.circle(c, r) for _, _, c, r, _ in self.identities]
        # one warm-up call per layer on a small grid
        d = bvp1d.Discretization(0.0, np.pi, 16, _harmonic)
        bvp1d.dn_trace_identity(d, linops.Contour.circle(0.7, 0.5))
        bvp1d.n2d_map(d, -1.0)
        bvp1d.bvp_grushin(d, -1.0 + 0.5j)

    def instrument(self, lib, tracer) -> None:
        """Count the calls of the benchmark's potentials."""
        self.grids = {
            key: lib.bvp1d.Discretization(d.a, d.b, d.m, tracer.counted("bvp1d.potential_evals", d.v))
            for key, d in self.grids.items()
        }

    def operations(self, lib) -> list:
        bvp1d = lib.bvp1d
        ops = []
        for (potential, m, _, _, tally), contour in zip(self.identities, self.contours):
            d = self.grids[(potential, m)]
            ops.append((
                f"dn_trace_identity {potential} m={m}",
                lambda d=d, contour=contour: bvp1d.dn_trace_identity(d, contour),
                lambda out, tally=tally: chk.check_dn(out, tally),
            ))
        for potential, z, reference in self.sweep:
            d = self.grids[(potential, self.M_LARGE)]
            ops.append((
                f"n2d_map {potential} z={z:.3f}",
                lambda d=d, z=z: bvp1d.n2d_map(d, z),
                lambda out, ref=reference: chk.check_n2d(out, ref),
            ))
            ops.append((
                f"bvp_grushin {potential} z={z:.3f}",
                lambda d=d, z=z: bvp1d.bvp_grushin(d, z),
                lambda out, ref=reference: chk.check_n2d(out.e_minus_plus, ref),
            ))
        unit = self.grids["unit"]
        ops.append((
            "n2d_map unit interval z=-1",
            lambda: bvp1d.n2d_map(unit, -1.0),
            lambda out: chk.check_n2d_continuum(out, self.unit_step)
            or chk.check_n2d(out, self.unit_reference),
        ))
        return ops


# --- pseudospectrum-grid ----------------------------------------------------------


@dataclass(frozen=True)
class GridSpec:
    matrix: str           # key into PseudospectrumGrid.matrices
    rectangle: tuple
    resolution: int
    rule: tuple           # ("fixed", h) or ("sigma-scaled", factor)


class PseudospectrumGrid:
    """Threshold-projector pseudospectrum grids.

    Per round: Gaussian matrices with n = 60 and n = 48 over a seeded 2 x 2
    square, 12 x 12 cells each with the fixed (h = 0.1) and the sigma-scaled
    (h = 3 sigma_min) rules; jordan_block(20) over 20 x 20 cells of a seeded
    0.5 x 0.5 rectangle with |lam| >= 0.3 and h = 1e-2; and estimate_check at
    three h on the n = 48 matrix.
    """

    name = "pseudospectrum-grid"
    ESTIMATE_H = (0.3, 0.1, 0.03)
    TRIALS = 32

    def __init__(self, seed: int):
        rng = _rng(seed, 3)
        self.matrices = {
            "gauss60": complex_gaussian(rng, (60, 60), 1.0 / np.sqrt(60)),
            "gauss48": complex_gaussian(rng, (48, 48), 1.0 / np.sqrt(48)),
            "jordan20": np.eye(20, k=1, dtype=complex),
        }
        self.grids = []
        for key in ("gauss60", "gauss48"):
            c = complex(rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3))
            rect = (c.real - 1.0, c.real + 1.0, c.imag - 1.0, c.imag + 1.0)
            self.grids.append(GridSpec(key, rect, 12, ("fixed", 0.1)))
            self.grids.append(GridSpec(key, rect, 12, ("sigma-scaled", 3.0)))
        re_min, im_mid = rng.uniform(0.3, 0.35), rng.uniform(-0.02, 0.02)
        self.grids.append(
            GridSpec("jordan20", (re_min, re_min + 0.5, im_mid - 0.25, im_mid + 0.25), 20,
                     ("fixed", 1e-2))
        )
        # singular values of A - lam at every cell, in the grid's row-major order
        self.sigmas = [self._cell_sigmas(spec) for spec in self.grids]
        self.estimate_lam = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))

    def _cell_sigmas(self, spec: GridSpec) -> list:
        a = self.matrices[spec.matrix]
        re_min, re_max, im_min, im_max = spec.rectangle
        res = np.linspace(re_min, re_max, spec.resolution)
        ims = np.linspace(im_min, im_max, spec.resolution)
        eye = np.eye(a.shape[0])
        return [np.linalg.svd(a - complex(re, im) * eye, compute_uv=False)
                for im in ims for re in res]

    def setup(self, lib) -> None:
        pseudospectra = lib.pseudospectra
        jordan = lib.perturbation.jordan_block(20)
        if not np.array_equal(jordan, self.matrices["jordan20"]):
            raise RuntimeError("jordan_block(20) differs from the benchmark's Jordan block")
        self.inputs = dict(self.matrices, jordan20=jordan)
        # one warm-up call per layer on a small matrix
        a = np.diag(np.arange(6.0)).astype(complex) + np.eye(6, k=1)
        pseudospectra.pseudospectrum_grid(a, (0.2, 0.8, 0.1, 0.4), 2, ("fixed", 0.1))
        pseudospectra.estimate_check(a, 0.5 + 0.2j, 0.1, 4)

    def instrument(self, lib, tracer) -> None:
        pass

    def operations(self, lib) -> list:
        pseudospectra = lib.pseudospectra
        ops = []
        for spec, sigmas in zip(self.grids, self.sigmas):
            a = self.inputs[spec.matrix]
            ops.append((
                f"pseudospectrum_grid {spec.matrix} {spec.rule[0]}",
                lambda a=a, spec=spec: pseudospectra.pseudospectrum_grid(
                    a, spec.rectangle, spec.resolution, spec.rule),
                lambda out, spec=spec, sigmas=sigmas: self._check_grid(out, spec, sigmas),
            ))
        a = self.inputs["gauss48"]
        for h in self.ESTIMATE_H:
            ops.append((
                f"estimate_check h={h}",
                lambda a=a, h=h: pseudospectra.estimate_check(a, self.estimate_lam, h, self.TRIALS),
                _check_estimate,
            ))
        return ops

    @staticmethod
    def _check_grid(grid, spec: GridSpec, sigmas) -> str | None:
        if len(grid.cells) != len(sigmas):
            return f"{len(grid.cells)} cells, expected {len(sigmas)}"
        kind, value = spec.rule
        for cell, sigma in zip(grid.cells, sigmas):
            if kind == "fixed":
                h, h_tol = value, 0.0
            else:
                h = value * float(sigma[-1])
                h_tol = value * (1e-9 * sigma[-1] + 8.0 * sigma.size * chk.EPS * sigma[0])
            problem = chk.check_cell(cell, sigma, h, h_tol)
            if problem:
                return problem
        return None


def _check_estimate(out) -> str | None:
    """The stability estimate's empirical constant is the largest finite, positive ratio."""
    ratios = np.asarray(out.ratios)
    if ratios.size != PseudospectrumGrid.TRIALS or not np.all(np.isfinite(ratios) & (ratios > 0)):
        return "estimate_check ratios are not finite and positive"
    if out.worst_ratio != ratios.max():
        return f"worst ratio {out.worst_ratio} != max ratio {ratios.max()}"
    return None


WORKLOADS = {w.name: w for w in (ContourCount, BvpBoundary, PseudospectrumGrid)}
