"""Each output check accepts a right output and rejects a slightly wrong one."""

from types import SimpleNamespace

import numpy as np
import pytest

import checkers as chk


def test_count_off_by_one_is_rejected():
    eigs = np.array([0.1 + 0.1j, 0.4 - 0.2j, 2.0 + 0.0j])
    assert chk.check_count(2, eigs, 0.0, 1.0) is None
    assert chk.check_count(3, eigs, 0.0, 1.0) is not None
    assert chk.check_count(1, eigs, 0.0, 1.0) is not None


def test_eigenvalue_near_the_circle_is_refused_as_a_reference():
    with pytest.raises(ValueError):
        chk.check_count(1, np.array([0.99]), 0.0, 1.0)


def test_weighted_trace_must_sum_the_enclosed_eigenvalues():
    eigs = np.array([0.1 + 0.1j, 0.4 - 0.2j, 2.0 + 0.0j])
    total = 0.5 - 0.1j
    assert chk.check_weighted(total, total, eigs, 0.0, 1.0) is None
    assert chk.check_weighted(total, total + 2.0, eigs, 0.0, 1.0) is not None
    assert chk.check_weighted(total + 1e-5, total, eigs, 0.0, 1.0) is not None


def test_loop_winding_off_by_one_is_rejected():
    trace = 2j * np.pi * 3
    assert chk.check_loop(trace, trace, 3) is None
    assert chk.check_loop(trace + 2j * np.pi, trace + 2j * np.pi, 3) is not None
    assert chk.check_loop(trace, trace, 2) is not None
    assert chk.check_loop(trace, trace + 1e-6, 3) is not None


def _grid(m, length=np.pi):
    h = length / (m + 1)
    return h * np.arange(m + 2), h


def test_grid_spectra_agree_with_the_closed_form_for_zero_potential():
    x, h = _grid(30)
    neumann, dirichlet = chk.grid_spectra(np.zeros_like(x), h)
    closed_n, closed_d = chk.zero_potential_spectra(30, np.pi)
    assert np.allclose(np.sort(neumann), np.sort(closed_n), atol=1e-9 * closed_n.max())
    assert np.allclose(np.sort(dirichlet), np.sort(closed_d), atol=1e-9 * closed_n.max())


def test_dn_count_off_by_one_is_rejected():
    neumann, dirichlet = chk.zero_potential_spectra(30, np.pi)
    tally = chk.dn_tally(neumann, dirichlet, 0.0, 0.5)
    assert tally == 1
    assert chk.check_dn((1, 1), tally) is None
    assert chk.check_dn((1, 2), tally) is not None
    assert chk.check_dn((0, 0), tally) is not None


def test_n2d_map_with_unequal_off_diagonals_is_rejected():
    x, h = _grid(40, 1.0)
    good = chk.neumann_to_dirichlet(np.zeros_like(x), h, -1.0)
    assert chk.check_n2d(good, good) is None
    assert chk.check_n2d_continuum(good, h) is None
    bad = good.copy()
    bad[0, 1], bad[1, 0] = good[0, 1] * (1 + 1e-6), good[0, 1] * (1 - 1e-6)
    assert chk.check_n2d(bad, good) is not None


def test_n2d_map_far_from_the_continuum_is_rejected():
    x, h = _grid(40, 1.0)
    good = chk.neumann_to_dirichlet(np.zeros_like(x), h, -1.0)
    assert chk.check_n2d_continuum(good + 0.5 * h**2, h) is not None


def _cell(a, lam, h):
    sigma = np.linalg.svd(a - lam * np.eye(a.shape[0]), compute_uv=False)
    captured = int(np.count_nonzero(sigma <= h))
    cell = SimpleNamespace(lam=lam, h=h, n_captured=captured, sigma_min=float(sigma[-1]),
                           norm_eff_inv=1.0 / float(sigma[-1]) if captured else 0.0, error=None)
    return cell, sigma


@pytest.mark.parametrize("h", [0.05, 1.0])
def test_sigma_min_off_by_1e6_relative_is_rejected(h):
    a = np.random.default_rng(5).standard_normal((12, 12)) / np.sqrt(12)
    cell, sigma = _cell(a, 0.3 + 0.2j, h)
    assert chk.check_cell(cell, sigma, h) is None
    off = SimpleNamespace(**dict(vars(cell), sigma_min=cell.sigma_min * (1 + 1e-6)))
    assert chk.check_cell(off, sigma, h) is not None


def test_cell_with_wrong_capture_or_effective_norm_is_rejected():
    a = np.random.default_rng(6).standard_normal((12, 12)) / np.sqrt(12)
    cell, sigma = _cell(a, 0.1, 1.0)
    assert cell.n_captured >= 1
    assert chk.check_cell(SimpleNamespace(**dict(vars(cell), n_captured=cell.n_captured + 1)),
                          sigma, 1.0) is not None
    assert chk.check_cell(SimpleNamespace(**dict(vars(cell), norm_eff_inv=cell.norm_eff_inv * 1.01)),
                          sigma, 1.0) is not None
    assert chk.check_cell(SimpleNamespace(**dict(vars(cell), error="OnSpectrum: x")),
                          sigma, 1.0) is not None


def test_border_poles_are_where_the_bordered_pencil_is_singular():
    from workloads import border_poles

    rng = np.random.default_rng(7)
    a = (rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))) / np.sqrt(12)
    lam = np.linalg.eigvals(a)[0]
    u, _, vh = np.linalg.svd(lam * np.eye(6) - a)
    for z in border_poles(a, lam):
        bordered = np.block([[z * np.eye(6) - a, u[:, -1:]], [vh[-1:, :], np.zeros((1, 1))]])
        sigma = np.linalg.svd(bordered, compute_uv=False)
        assert sigma[-1] < 1e-10 * sigma[0]
