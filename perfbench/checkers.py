"""Reference results and output checks for the benchmark workloads.

Nothing here imports grushinlab: every reference is computed from the
benchmark's own inputs with plain numpy, or is a property the method must
have.  Each ``check_*`` function returns ``None`` when the output is right
and a one-line description of the defect otherwise.
"""

from __future__ import annotations

import numpy as np

EPS = float(np.finfo(np.float64).eps)

#: Distance (as a share of the radius) that every reference eigenvalue keeps
#: from a circle, so that "inside" is never decided by roundoff.
CIRCLE_MARGIN = 0.05


def inside_circle(values, center: complex, radius: float) -> np.ndarray:
    """Mask of ``values`` strictly inside the circle; raises if one is near it."""
    dist = np.abs(np.asarray(values) - center)
    if np.any(np.abs(dist - radius) < CIRCLE_MARGIN * radius):
        raise ValueError("a reference eigenvalue lies too close to the circle")
    return dist < radius


def check_count(got: int, eigs, center: complex, radius: float) -> str | None:
    """A contour count must equal the number of reference eigenvalues inside."""
    want = int(np.count_nonzero(inside_circle(eigs, center, radius)))
    if got != want:
        return f"count {got} != {want} eigenvalues inside"
    return None


def check_weighted(direct: complex, effective: complex, eigs, center: complex,
                   radius: float, rtol: float = 1e-7) -> str | None:
    """Both weight-z traces must equal the sum of the enclosed eigenvalues."""
    eigs = np.asarray(eigs)
    want = complex(eigs[inside_circle(eigs, center, radius)].sum())
    scale = 1.0 + float(np.abs(eigs).max())
    for label, got in (("direct", direct), ("effective", effective)):
        if abs(got - want) > rtol * scale:
            return f"weighted trace ({label}) {got} != eigenvalue sum {want}"
    return None


def check_loop(trace_p: complex, trace_effective: complex, winding: int,
               tol: float = 1e-8) -> str | None:
    """trace_p / 2 pi i is the winding built into the loop, and both traces agree."""
    turns = trace_p / (2j * np.pi)
    if abs(turns - winding) > tol:
        return f"loop trace_p / 2 pi i = {turns} != winding {winding}"
    if abs(trace_effective - trace_p) > tol * (1.0 + abs(trace_p)):
        return f"loop trace_effective {trace_effective} != trace_p {trace_p}"
    return None


# --- 1-D boundary problem --------------------------------------------------


def zero_potential_spectra(m: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form Neumann (ghost point) and Dirichlet spectra of -u'' on a grid
    with m interior nodes: (4/h^2) sin^2(j pi / (2(m+1))), j = 0..m+1 and 1..m."""
    h = length / (m + 1)
    j = np.arange(m + 2)
    neumann = (4.0 / h**2) * np.sin(j * np.pi / (2.0 * (m + 1))) ** 2
    return neumann, neumann[1:-1]


def grid_spectra(v_nodes, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Neumann and Dirichlet spectra of -u'' + V u from matrices built here.

    ``v_nodes`` holds V at all m + 2 grid nodes.  The ghost-point Neumann
    matrix is symmetrized with the weights (1/2, 1, ..., 1, 1/2), so both
    spectra come from a symmetric eigensolver.
    """
    v = np.asarray(v_nodes, dtype=float)
    n = v.size
    off = -np.ones(n - 1) / h**2
    neumann = np.diag(2.0 / h**2 + v) + np.diag(off, 1) + np.diag(off, -1)
    neumann[0, 1] = neumann[-1, -2] = -np.sqrt(2.0) / h**2
    neumann[1, 0] = neumann[-2, -1] = -np.sqrt(2.0) / h**2
    dirichlet = np.diag(2.0 / h**2 + v[1:-1]) + np.diag(off[1:-1], 1) + np.diag(off[1:-1], -1)
    return np.linalg.eigvalsh(neumann), np.linalg.eigvalsh(dirichlet)


def dn_tally(neumann, dirichlet, center: complex, radius: float) -> int:
    """Neumann minus Dirichlet eigenvalues inside the circle."""
    return int(np.count_nonzero(inside_circle(neumann, center, radius))) - int(
        np.count_nonzero(inside_circle(dirichlet, center, radius))
    )


def check_dn(counts: tuple[int, int], tally: int) -> str | None:
    """Both counts of the boundary trace identity must equal the eigenvalue tally."""
    if tuple(counts) != (tally, tally):
        return f"dn_trace_identity counts {tuple(counts)} != tally {tally}"
    return None


def neumann_to_dirichlet(v_nodes, h: float, z: complex) -> np.ndarray:
    """The ghost-point boundary map from the benchmark's own Neumann matrix."""
    v = np.asarray(v_nodes, dtype=float)
    n = v.size
    mat = np.diag((2.0 / h**2 + v - z).astype(complex))
    mat += np.diag(-np.ones(n - 1) / h**2, 1) + np.diag(-np.ones(n - 1) / h**2, -1)
    mat[0, 1] = mat[-1, -2] = -2.0 / h**2
    rhs = np.zeros((n, 2), dtype=complex)
    rhs[0, 0] = rhs[-1, 1] = 2.0 / h
    sol = np.linalg.solve(mat, rhs)
    return sol[[0, -1], :]


def check_n2d(got, reference, rtol: float = 1e-8) -> str | None:
    """An N2D map must be symmetric and match the reference map."""
    got = np.asarray(got)
    scale = max(1.0, float(np.abs(reference).max()))
    if abs(got[0, 1] - got[1, 0]) > 1e-9 * scale:
        return f"N2D map not symmetric: {got[0, 1]} vs {got[1, 0]}"
    if float(np.abs(got - reference).max()) > rtol * scale:
        return f"N2D map differs from the reference by {np.abs(got - reference).max():.3e}"
    return None


def continuum_n2d_unit_interval() -> np.ndarray:
    """N2D map of -u'' + u on [0, 1] (V = 0, z = -1): [[coth 1, csch 1], [csch 1, coth 1]]."""
    coth, csch = 1.0 / np.tanh(1.0), 1.0 / np.sinh(1.0)
    return np.array([[coth, csch], [csch, coth]])


def check_n2d_continuum(got, h: float, constant: float = 0.25) -> str | None:
    """The grid map on [0, 1] at z = -1 is within constant * h^2 of the continuum
    map (the second-order error constant measures 0.134)."""
    err = float(np.abs(np.asarray(got) - continuum_n2d_unit_interval()).max())
    if err > constant * h**2:
        return f"N2D map {err:.3e} from the continuum map, above {constant} h^2"
    return None


# --- pseudospectrum cells ----------------------------------------------------


def check_cell(cell, sigma, h: float, h_tol: float = 0.0, rtol: float = 1e-9) -> str | None:
    """One pseudospectrum cell against the singular values of A - lam.

    ``sigma`` holds all singular values of A - lam (descending), computed by
    the benchmark; ``h`` is the threshold the cell must have used, to within
    ``h_tol``.  sigma_min may differ from the reference by backward-stable SVD
    roundoff, 8 n eps sigma_max, plus ``rtol`` relative.
    """
    if cell.error is not None:
        return f"cell at {cell.lam} failed: {cell.error}"
    sigma = np.asarray(sigma)
    n = sigma.size
    floor = 8.0 * n * EPS * float(sigma[0])
    if abs(cell.sigma_min - sigma[-1]) > rtol * sigma[-1] + floor:
        return f"sigma_min {cell.sigma_min!r} != reference {sigma[-1]!r} at {cell.lam}"
    if abs(cell.h - h) > h_tol + 1e-12 * h:
        return f"threshold {cell.h!r} != {h!r} at {cell.lam}"
    captured = int(np.count_nonzero(sigma <= h))
    if cell.n_captured != captured:
        return f"n_captured {cell.n_captured} != {captured} singular values <= h at {cell.lam}"
    if captured == 0:
        if not cell.sigma_min > h:
            return f"no singular value captured but sigma_min {cell.sigma_min} <= h {h}"
    else:
        # ||E_-+^{-1}|| = 1/sigma_min up to the roundoff of sigma_min itself
        tol = 1e-9 + 64.0 * n * EPS * float(sigma[0]) / float(sigma[-1])
        if abs(cell.norm_eff_inv * cell.sigma_min - 1.0) > tol:
            return f"||E_-+^-1|| sigma_min = {cell.norm_eff_inv * cell.sigma_min!r} != 1 at {cell.lam}"
    return None
