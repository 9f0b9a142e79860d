"""Each rank or well-posedness decision costs one SVD of the matrix in question."""

import numpy as np

from grushinlab.bvp1d import Discretization, bvp_grushin, n2d_map, potential_from_name
from grushinlab.perturbation import jordan_block
from grushinlab.pseudospectra import resolvent_bound


def _record_svds(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        calls.append((np.array(a), kwargs.get("compute_uv", True)))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    return calls


def _grid(m):
    return Discretization(0.0, np.pi, m, potential_from_name("harmonic", 0.0, np.pi))


def test_boundary_map_checks_neumann_matrix_once(monkeypatch):
    d = _grid(20)
    calls = _record_svds(monkeypatch)
    n2d_map(d, -1.0 + 0.5j)
    assert len(calls) == 1


def test_bvp_grushin_builds_reference_from_checked_matrix(monkeypatch):
    m = 20
    d = _grid(m)
    calls = _record_svds(monkeypatch)
    bvp_grushin(d, -1.0 + 0.5j)
    # the Neumann check (m + 2) and invert_system (m + 4); the rest are 2x2 norms
    assert sum(min(a.shape) >= m + 2 for a, _ in calls) == 2


def test_resolvent_cell_decomposes_shifted_matrix_once(monkeypatch):
    a = jordan_block(10)
    lam = 0.5 + 0.1j
    shifted = a - lam * np.eye(10)
    calls = _record_svds(monkeypatch)
    resolvent_bound(a, lam, 1e-2)
    assert sum(np.array_equal(x, shifted) and not uv for x, uv in calls) == 1
