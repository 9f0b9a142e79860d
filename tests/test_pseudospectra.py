import re

import numpy as np
import pytest

from grushinlab import pseudospectra
from grushinlab.errors import (
    DimensionMismatch,
    IllPosed,
    OnSpectrum,
    ThresholdOnSingularValue,
)
from grushinlab.linops import SvdResult, spectral_norm
from grushinlab.perturbation import gaussian_matrix, jordan_block
from grushinlab.pseudospectra import (
    estimate_check,
    projector_grushin,
    projector_identities,
    pseudospectrum_grid,
    resolvent_bound,
    threshold_projectors,
)


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _seeded_nonnormal(n, seed, coupling=1e-12):
    return jordan_block(n) + coupling * gaussian_matrix(n, seed)


def test_projectors_far_from_spectrum_capture_nothing():
    a = np.diag([0.0, 1.0]).astype(complex)
    pair = threshold_projectors(a, 5.0, 0.5)
    assert pair.n_captured == 0
    assert spectral_norm(pair.pi_plus) <= 1e-14


def test_projectors_jordan_single_capture():
    pair = threshold_projectors(jordan_block(10), 0.5, 1e-2)
    assert pair.n_captured == 1


def test_projectors_diagonal_by_hand():
    a = np.diag([0.0, 1.0]).astype(complex)
    pair = threshold_projectors(a, 0.0, 0.5)
    target = np.zeros((2, 2))
    target[0, 0] = 1.0
    assert spectral_norm(pair.pi_minus - target) <= 1e-12
    assert spectral_norm(pair.pi_plus - target) <= 1e-12


def test_projectors_threshold_collision():
    a = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(ThresholdOnSingularValue):
        threshold_projectors(a, 0.0, 1.0)


def test_threshold_window_scales_with_h_and_the_rank_tolerance():
    # the window is 1e-8 h plus the rank tolerance, not an absolute 1e-8
    pair = threshold_projectors(np.diag([1e-15, 1.0]), 0.0, 1e-12)
    assert pair.n_captured == 1
    cell = resolvent_bound(np.diag([1e-9, 1.0]), 0.0, 5e-9)
    assert (cell.n_captured, cell.sigma_min) == (1, 1e-9)
    with pytest.raises(ThresholdOnSingularValue):
        threshold_projectors(np.diag([1e-12 * (1.0 + 1e-9), 1.0]), 0.0, 1e-12)


def test_structural_identities_random():
    for seed in range(10):
        a = gaussian_matrix(8, seed) / np.sqrt(8)
        lam = 0.2 + 0.1j
        try:
            pair = threshold_projectors(a, lam, 0.3)
        except ThresholdOnSingularValue:
            continue
        ids = projector_identities(a, lam, pair)
        assert max(ids.values()) <= 1e-10


def test_projector_inequalities():
    rng = _rng(5)
    a = _seeded_nonnormal(12, 3)
    lam, h = 0.4, 1e-2
    pair = threshold_projectors(a, lam, h)
    shifted = a - lam * np.eye(12)
    assert spectral_norm(shifted @ pair.pi_plus) <= h * (1 + 1e-10)
    assert spectral_norm(shifted.conj().T @ pair.pi_minus) <= h * (1 + 1e-10)
    ident = np.eye(12)
    for _ in range(100):
        u = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        off = (ident - pair.pi_plus) @ u
        assert np.linalg.norm(shifted @ off) >= h * np.linalg.norm(off) * (1 - 1e-10)
        off_m = (ident - pair.pi_minus) @ u
        assert np.linalg.norm(shifted.conj().T @ off_m) >= h * np.linalg.norm(off_m) * (1 - 1e-10)


def test_captured_dimensions_match_and_monotone():
    a = _seeded_nonnormal(10, 1)
    lam = 0.3
    previous = -1
    for h in (1e-6, 1e-3, 1e-1, 0.9):
        try:
            pair = threshold_projectors(a, lam, h)
        except ThresholdOnSingularValue:
            continue
        rank_minus = int(round(np.trace(pair.pi_minus).real))
        rank_plus = int(round(np.trace(pair.pi_plus).real))
        assert rank_minus == rank_plus == pair.n_captured
        assert pair.n_captured >= previous
        previous = pair.n_captured


def test_projector_grushin_jordan_effective_value():
    pg = projector_grushin(jordan_block(10), 0.5, 1e-2)
    assert pg.pair.n_captured == 1
    value = abs(pg.inverse.e_minus_plus[0, 0])
    assert 0.5 * 0.5**10 <= value <= 2.0 * 0.5**10


def test_projector_grushin_empty_border_is_resolvent():
    a = np.diag([0.0, 1.0]).astype(complex)
    pg = projector_grushin(a, 5.0, 0.5)
    assert pg.pair.n_captured == 0
    assert pg.inverse.e_minus_plus.size == 0
    shifted = a - 5.0 * np.eye(2)
    assert spectral_norm(pg.inverse.e - np.linalg.inv(shifted)) <= 1e-12


def test_projector_grushin_block_scaling():
    a = _seeded_nonnormal(30, 9)
    lam = 0.5
    e_scale, emp_scale = [], []
    for h in (1e-2, 1e-3, 1e-4):
        pg = projector_grushin(a, lam, h)
        assert pg.pair.n_captured >= 1
        e_scale.append(pg.block_norms["e"] * h)
        emp_scale.append(pg.block_norms["e_minus_plus"] / h)
    # ||e|| = O(1/h) and ||e_minus_plus|| = O(h): the scaled quantities stay bounded
    assert max(e_scale) <= 10.0 * max(min(e_scale), 1e-12) or max(e_scale) <= 10.0
    assert max(emp_scale) <= 1e3


def test_estimate_check_normal_far():
    a = np.diag([0.0, 1.0]).astype(complex)
    lam, h = 5.0, 0.5
    res = estimate_check(a, lam, h, trials=64, seed=0)
    sigma_min = 4.0
    assert res.worst_ratio <= 10.0 * (h / sigma_min + 1.0)


def test_estimate_check_jordan_stability():
    a = jordan_block(10)
    constants = []
    for i, h in enumerate((1e-1, 1e-2, 1e-3)):
        constants.append(estimate_check(a, 0.5, h, trials=48, seed=i).worst_ratio)
    assert max(constants) / min(constants) < 10.0


def test_resolvent_bound_jordan():
    cell = resolvent_bound(jordan_block(10), 0.5, 1e-2)
    assert cell.n_captured == 1
    assert 512.0 <= cell.norm_eff_inv <= 2048.0
    assert 0.5 <= cell.norm_eff_inv * cell.sigma_min <= 2.0


def test_resolvent_bound_normal_exact():
    a = np.diag([0.0, 1.0, 3.0]).astype(complex)
    cell = resolvent_bound(a, 0.2, 0.5)
    assert cell.n_captured == 1
    assert cell.norm_eff_inv == pytest.approx(1.0 / cell.sigma_min, rel=1e-10)


def test_resolvent_bound_on_spectrum():
    with pytest.raises(OnSpectrum):
        resolvent_bound(np.diag([0.0, 1.0]).astype(complex), 1.0, 0.1)


def test_resolvent_bound_nonnormal_grid():
    a = gaussian_matrix(40, 17) / np.sqrt(40)
    h = 5e-2
    for re in (-0.3, 0.0, 0.4):
        for im in (-0.2, 0.1, 0.3):
            lam = complex(re, im) * 3.0  # keep distance from the unit-disk bulk
            try:
                cell = resolvent_bound(a, lam, h)
            except (OnSpectrum, ThresholdOnSingularValue):
                continue
            assert abs(1.0 / cell.sigma_min - cell.norm_eff_inv) <= cell.c_emp / h + 1e-9


def test_grid_normal_matrix_sigma_pattern():
    a = np.diag([0.0, 1.0]).astype(complex)
    grid = pseudospectrum_grid(a, (-0.5, 1.5, -0.5, 0.5), 3, ("fixed", 1e-3))
    for cell in grid.cells:
        if cell.error is not None:
            continue
        expected = min(abs(cell.lam), abs(cell.lam - 1.0))
        assert cell.sigma_min == pytest.approx(expected, rel=1e-10)


def test_grid_jordan_levels_follow_sigma():
    a = jordan_block(20)
    grid = pseudospectrum_grid(a, (-0.6, 0.6, -0.6, 0.6), 4, ("fixed", 1e-2))
    for cell in grid.cells:
        if cell.error is not None or cell.n_captured == 0:
            continue
        assert abs(1.0 / cell.sigma_min - cell.norm_eff_inv) <= cell.c_emp / cell.h + 1e-9


def test_grid_row_major_order_and_cell_errors():
    a = np.diag([0.0, 1.0]).astype(complex)
    grid = pseudospectrum_grid(a, (-1.0, 1.0, -1.0, 1.0), 3, ("fixed", 1e-3))
    assert grid.cell(0, 0).lam == complex(-1.0, -1.0)
    assert grid.cell(0, 2).lam == complex(1.0, -1.0)
    assert grid.cell(2, 0).lam == complex(-1.0, 1.0)
    mid = grid.cell(1, 1)  # lam = 0 sits on the spectrum: recorded, not raised
    assert mid.error is not None


def test_grid_requires_proper_rectangle():
    a = np.eye(2, dtype=complex)
    with pytest.raises(DimensionMismatch):
        pseudospectrum_grid(a, (1.0, 1.0, 0.0, 1.0), 3, ("fixed", 0.1))
    with pytest.raises(DimensionMismatch):
        pseudospectrum_grid(a, (0.0, 1.0, 0.0, 1.0), 1, ("fixed", 0.1))


def test_grid_sigma_scaled_rule():
    a = jordan_block(8)
    grid = pseudospectrum_grid(a, (0.2, 0.6, -0.2, 0.2), 2, ("sigma-scaled", 2.0))
    for cell in grid.cells:
        if cell.error is None:
            assert cell.n_captured >= 1


def test_grid_sigma_scaled_rule_records_a_vanishing_sigma_min():
    grid = pseudospectrum_grid(np.diag([0.0, 1.0]), (0.0, 1.0, 0.0, 1.0), 2, ("sigma-scaled", 2.0))
    assert grid.cells[0].lam == 0.0
    assert grid.cells[0].error == "OnSpectrum: sigma_min vanished under sigma-scaled rule"


def test_empty_matrix_is_a_dimension_mismatch():
    empty = np.zeros((0, 0))
    for call in (lambda: resolvent_bound(empty, 0.5, 0.1),
                 lambda: pseudospectrum_grid(empty, (0.0, 1.0, 0.0, 1.0), 2, ("fixed", 0.1)),
                 lambda: estimate_check(empty, 0.5, 0.1, 4),
                 lambda: threshold_projectors(empty, 0.5, 0.1)):
        with pytest.raises(DimensionMismatch, match="matrix must be nonempty"):
            call()


def test_non_square_matrix_is_a_dimension_mismatch():
    a = np.ones((3, 4), dtype=complex)
    with pytest.raises(DimensionMismatch, match="matrix must be square"):
        resolvent_bound(a, 0.5, 0.1)
    with pytest.raises(DimensionMismatch, match="matrix must be square"):
        pseudospectrum_grid(a, (0.0, 1.0, 0.0, 1.0), 3, ("fixed", 0.1))
    with pytest.raises(DimensionMismatch, match="matrix must be square"):
        projector_identities(a, 0.5, threshold_projectors(np.eye(3), 0.5, 0.1))


def test_grid_rejects_non_positive_h_before_any_cell(monkeypatch):
    calls = []
    real_svd = np.linalg.svd

    def recording_svd(*args, **kwargs):
        calls.append(args[0])
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    a = jordan_block(6)
    for rule, message in (
        (("fixed", 0.0), "threshold h must be positive"),
        (("fixed", -1e-2), "threshold h must be positive"),
        (("sigma-scaled", 0.0), "sigma-scaled factor must be positive"),
        (("sigma-scaled", -3.0), "sigma-scaled factor must be positive"),
        (("fixed", np.nan), "threshold h must be positive and finite, got nan"),
        (("fixed", np.inf), "threshold h must be positive and finite, got inf"),
        (("sigma-scaled", np.nan), "sigma-scaled factor must be positive and finite, got nan"),
    ):
        with pytest.raises(ValueError, match=message):
            pseudospectrum_grid(a, (0.2, 0.6, -0.2, 0.2), 3, rule)
    assert calls == []


def test_grid_accepts_numpy_integer_resolution():
    a = jordan_block(6)
    rect, rule = (0.2, 0.6, -0.2, 0.2), ("fixed", 1e-2)
    grid = pseudospectrum_grid(a, rect, np.int64(3), rule)
    assert repr(grid.cells) == repr(pseudospectrum_grid(a, rect, 3, rule).cells)


def test_non_finite_probe_points_are_rejected():
    a = jordan_block(6)
    # numpy's SVD fails on inf or nan entries ("SVD did not converge", or it never
    # returns), so both are caught at entry
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="entries must be finite"):
        resolvent_bound(a, complex(np.inf, 0.0), 0.1)
    with pytest.raises(ValueError, match="rectangle bounds must be finite"):
        pseudospectrum_grid(a, (0.0, np.inf, -0.2, 0.2), 3, ("fixed", 0.1))


def test_grid_rejects_overflowing_shift_before_any_svd(monkeypatch):
    # A - lam overflows to inf in the first cell; numpy's SVD does not always
    # return on such a matrix, so no SVD may be attempted
    def no_svd(*args, **kwargs):
        raise AssertionError("SVD attempted")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    big = np.diag([1e308, 1.0, 2.0]).astype(complex)
    with pytest.raises(ValueError, match="overflows"):
        pseudospectrum_grid(big, (-1e308, 0.0, 0.0, 1.0), 2, ("fixed", 0.1))
    with pytest.raises(ValueError, match="overflows"):
        pseudospectrum_grid(1j * big, (0.0, 1.0, -1e308, 0.0), 2, ("fixed", 0.1))



@pytest.mark.parametrize("factor, column, message", [
    ("right", -1, "||P pi_plus|| exceeds h"),
    ("left", -1, "||P* pi_minus|| exceeds h"),
    ("right", 0, "lower bound off the captured subspace fails"),
], ids=["captured-right", "captured-left", "off-captured"])
def test_norm_hypotheses_fall_back_to_the_svd(monkeypatch, factor, column, message):
    # jordan_block(10) at 0.5 + 0.1j with h = 1e-2 captures the last direction;
    # one singular vector of the full SVD turned a right angle onto the other
    # end leaves the residual bounds short of the slack, so the hypothesis
    # that reads it goes to its sigma-only SVD, which fails it
    a, lam, h = jordan_block(10), 0.5 + 0.1j, 1e-2
    assert resolvent_bound(a, lam, h).n_captured == 1
    real_svd = pseudospectra._svd
    sigma_calls = []
    real_sigma = pseudospectra._sigma

    def rotated(shifted):
        full = real_svd(shifted)
        left, right = full.left.copy(), full.right_h.conj().T
        turned = left if factor == "left" else right
        turned[:, column] = turned[:, -1 - column]
        return SvdResult(left, full.singular, right.conj().T)

    def recording(mats):
        sigma_calls.append(mats.shape)
        return real_sigma(mats)

    monkeypatch.setattr(pseudospectra, "_svd", rotated)
    monkeypatch.setattr(pseudospectra, "_sigma", recording)
    with pytest.raises(IllPosed, match=f"^{re.escape(message)}$"):
        resolvent_bound(a, lam, h)
    assert sigma_calls[-1] == ((10, 9) if column == 0 else (10, 1))
