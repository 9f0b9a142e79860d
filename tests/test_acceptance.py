"""Acceptance gates.

Each test evaluates one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them).  Ensembles are seeded and fixed; empirical gates are measured, never
assumed.
"""

import math
import time

import numpy as np
import pytest

from grushinlab.bvp1d import (
    Discretization,
    bvp_grushin,
    dirichlet_matrix,
    dn_trace_identity,
    n2d_map,
    neumann_matrix,
)
from grushinlab.cli import run as cli_run
from grushinlab.core import assemble, invert_system, recover_resolvent
from grushinlab.errors import EffectiveSingular, IllPosed
from grushinlab.linops import EPS, Contour, eigenvalues, spectral_norm
from grushinlab.perturbation import (
    BlockJordanSpec,
    JordanSpec,
    gaussian_matrix,
    jordan_block,
    jordan_cloud,
    jordan_effective_exact,
    lidskii_compare,
    lidskii_predict,
    neumann_effective,
)
from grushinlab.pseudoinverse import canonical_borders, mp_residuals, pseudo_inverse
from grushinlab.pseudospectra import (
    estimate_check,
    projector_grushin,
    projector_identities,
    resolvent_bound,
    threshold_projectors,
)
from grushinlab.traces import (
    HolomorphicFamily,
    borders_from_base_point,
    count_direct,
    count_effective,
    gaussian_test,
    invariant_subspace_borders,
    loop_trace_identity,
    poisson_verify,
    sinc_squared,
    weighted_trace,
)


def _verdict(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}", flush=True)
    assert ok, detail


def _rng(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def _complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _orth(rng, n, k):
    return np.linalg.qr(_complex(rng, (n, k)))[0]


# --------------------------------------------------------------------------


def test_criterion_01_schur_inversion_core():
    start = time.perf_counter()
    worst_two_sided = 0.0
    worst_recovery = 0.0
    exceptions = 0
    count = 0
    for seed in range(500):
        rng = _rng(90_000 + seed)
        n = int(rng.integers(2, 65))
        kind = seed % 4
        if kind in (0, 1):
            p = _complex(rng, (n, n))
            while np.linalg.cond(p) > 1e6:
                p = _complex(rng, (n, n))
            k = int(rng.integers(1, 4))
            rm = _orth(rng, n, k)
            rp = _orth(rng, n, k).conj().T
        else:
            r = n - int(rng.integers(1, 3))
            u = _orth(rng, n, n)
            vh = _orth(rng, n, n).conj().T
            sigma = np.zeros(n)
            sigma[:r] = rng.uniform(0.5, 2.0, r)
            p = (u * sigma) @ vh
            cb = canonical_borders(p, tol=1e-6)
            rm, rp = cb.rminus, cb.rplus
            k = rm.shape[1]
        corner = 0.1 * _complex(rng, (rp.shape[0], rm.shape[1])) if kind in (1, 3) else None
        system = assemble(p, rm, rp, corner)
        try:
            ginv = invert_system(system)
        except IllPosed:
            exceptions += 1
            continue
        count += 1
        dim = system.assembled().shape[0]
        a = system.assembled()
        e = ginv.assembled()
        res = max(
            spectral_norm(a @ e - np.eye(dim)), spectral_norm(e @ a - np.eye(dim))
        ) / ginv.condition
        worst_two_sided = max(worst_two_sided, res)

        sigma_p = np.linalg.svd(p, compute_uv=False)
        p_invertible = sigma_p[-1] > 1e-8 * sigma_p[0]
        emp = ginv.e_minus_plus
        se = np.linalg.svd(emp, compute_uv=False) if emp.size else np.zeros(0)
        e_invertible = emp.size == 0 or se[-1] > 1e-8 * max(1.0, se[0])
        if p_invertible != e_invertible:
            exceptions += 1
        singular_tol = 1e-8 * max(1.0, float(se[0]) if se.size else 1.0)
        if p_invertible:
            rec = recover_resolvent(system, ginv, tol=singular_tol)
            worst_recovery = max(worst_recovery, rec.residual)
        else:
            with pytest.raises(EffectiveSingular):
                recover_resolvent(system, ginv, tol=singular_tol)
    elapsed = time.perf_counter() - start
    ok = (
        count == 500
        and exceptions == 0
        and worst_two_sided <= 1e-10
        and worst_recovery <= 1e-9
        and elapsed < 10.0
    )
    _verdict(
        1,
        ok,
        f"{count} systems, two-sided <= {worst_two_sided:.2e} (gate 1e-10*cond), "
        f"recovery <= {worst_recovery:.2e} (gate 1e-9), exceptions={exceptions}, "
        f"{elapsed:.1f}s (< 10s)",
    )


def test_criterion_02_effective_hamiltonian_exactness():
    worst = 0.0
    for n in (1, 2, 3, 5, 8, 13, 21, 30):
        for lam in (0.9, -0.9, 0.05, 0.3j, 0.6 + 0.65j, 0.89 * np.exp(2.1j)):
            spec = JordanSpec(n, lam, 0.0, np.zeros((n, n)))
            value = jordan_effective_exact(spec)
            worst = max(worst, abs(value - lam**n) / abs(lam**n))
    ok = worst <= 1e-12
    _verdict(2, ok, f"max relative error {worst:.2e} (gate 1e-12, n <= 30, |lam| <= 0.9)")


def test_criterion_03_rank_one_cloud():
    cloud4 = jordan_cloud(4, 1e-4, "rank-one")
    expected = 0.1 * np.array([1.0, 1j, -1.0, -1j])
    mod_err = float(np.max(np.abs(np.abs(cloud4.eigenvalues) - 0.1)))
    pos_err = max(float(np.min(np.abs(cloud4.eigenvalues - v))) for v in expected)
    cloud50 = jordan_cloud(50, 1e-10, "rank-one")
    target = 1e-10 ** (1.0 / 50.0)
    rel50 = float(np.max(np.abs(np.abs(cloud50.eigenvalues) - target) / target))
    ok = mod_err <= 1e-10 and pos_err <= 1e-9 * 0.1 + 1e-10 and rel50 <= 1e-6
    _verdict(
        3,
        ok,
        f"n=4 modulus err {mod_err:.2e} (1e-10), root positions {pos_err:.2e}, "
        f"n=50 relative {rel50:.2e} (1e-6)",
    )


def test_criterion_04_neumann_series():
    # ensemble with an exactly geometric tail: the off-projector contraction
    # acts as delta * identity on the complement, with a small feed from the
    # border space, so the truncation-error ratio equals delta
    deltas = (0.1, 0.3, 0.6, 0.9)
    bound_ok = True
    worst_ratio_dev = 0.0
    for i in range(100):
        delta = deltas[i % 4]
        rng = _rng(50_000 + i)
        n, nb = 10, 3
        basis = _orth(rng, n, nb)
        comp = np.linalg.qr(np.eye(n) - basis @ basis.conj().T)[0][:, : n - nb]
        s_vec = 1e-3 * delta * (comp @ _complex(rng, (n - nb, 1)))
        t = (
            delta * (comp @ comp.conj().T)
            + s_vec @ basis[:, :1].conj().T
            + basis @ _complex(rng, (nb, nb)) @ basis.conj().T
            + basis @ _complex(rng, (nb, n - nb)) @ comp.conj().T
        )
        direct = invert_system(assemble(np.eye(n) - t, basis, basis.conj().T))
        errors = []
        for order in (2, 4, 6):
            res = neumann_effective(t, basis, order)
            err = spectral_norm(res.value - direct.e_minus_plus)
            if err > res.tail_bound * (1.0 + 1e-9):
                bound_ok = False
            errors.append(err)
        measured = res.contraction
        for a, b in zip(errors[1:], errors):
            ratio = (a / b) ** 0.5  # two orders apart
            worst_ratio_dev = max(worst_ratio_dev, abs(ratio - measured) / measured)
    ok = bound_ok and worst_ratio_dev <= 0.05
    _verdict(
        4,
        ok,
        f"tail bound holds on 100 instances, ratio within {100 * worst_ratio_dev:.2f}% "
        f"of delta (gate 5%)",
    )


def test_criterion_05_moore_penrose():
    worst_diff = 0.0
    worst_res = 0.0
    worst_side = 0.0
    for seed in range(200):
        rng = _rng(60_000 + seed)
        m = int(rng.integers(3, 10))
        n = int(rng.integers(3, 10))
        r = int(rng.integers(1, min(m, n) + 1)) if seed % 2 else min(m, n)
        u = _orth(rng, m, m)
        vh = _orth(rng, n, n).conj().T
        sigma = np.zeros((m, n))
        sigma[np.arange(r), np.arange(r)] = rng.uniform(0.5, 2.0, r)
        p = u @ sigma @ vh
        tol = 1e-4
        plus = pseudo_inverse(p, tol=tol)
        u2, s2, vh2 = np.linalg.svd(p, full_matrices=False)
        inv = np.array([1.0 / x if x > tol else 0.0 for x in s2])
        oracle = (vh2.conj().T * inv) @ u2.conj().T
        worst_diff = max(worst_diff, spectral_norm(plus - oracle))
        worst_res = max(worst_res, max(mp_residuals(p, plus)))
        cb = canonical_borders(p, tol=tol)
        ginv = invert_system(assemble(p, cb.rminus, cb.rplus))
        side = spectral_norm(ginv.e_minus @ p)
        sym1 = cb.rminus @ ginv.e_minus
        sym2 = ginv.e_plus @ cb.rplus
        side = max(
            side,
            spectral_norm(sym1.conj().T - sym1),
            spectral_norm(sym2.conj().T - sym2),
        )
        worst_side = max(worst_side, side)
    ok = worst_diff <= 1e-10 and worst_res <= 1e-10 and worst_side <= 1e-10
    _verdict(
        5,
        ok,
        f"200 instances: |grushin - svd| <= {worst_diff:.2e}, residuals <= {worst_res:.2e}, "
        f"side conditions <= {worst_side:.2e} (gates 1e-10)",
    )


def test_criterion_06_pseudospectral_bound():
    # With exact singular-subspace borders the effective block is unitarily
    # equivalent to the captured singular values, so 1/sigma_min and
    # ||E_-+^{-1}|| agree to roundoff; the drift gate is applied to the
    # measured constants floored at the roundoff level of the comparison.
    families = [
        ("J10", jordan_block(10), 0.5, np.geomspace(2e-3, 2e-1, 5)),
        (
            "G40",
            gaussian_matrix(40, 17) / np.sqrt(40),
            0.2 + 0.1j,
            np.geomspace(5e-2, 5.0, 5),
        ),
    ]
    drift_ok = True
    agree_ok = True
    for name, a, lam, hs in families:
        constants = []
        for h in hs:
            cell = resolvent_bound(a, lam, h)
            inv_sigma = 1.0 / cell.sigma_min
            agree_ok &= abs(inv_sigma - cell.norm_eff_inv) <= cell.c_emp / h + 1e-9
            agree_ok &= abs(inv_sigma - cell.norm_eff_inv) <= 1e-8 * inv_sigma
            floor = 100.0 * EPS * inv_sigma * float(hs[-1])
            constants.append(max(cell.c_emp, floor))
        drift_ok &= max(constants) / min(constants) < 10.0
    j10 = resolvent_bound(jordan_block(10), 0.5, 1e-2)
    j10_ok = (
        j10.n_captured == 1
        and 512.0 <= j10.norm_eff_inv <= 2048.0
        and 0.5 <= j10.norm_eff_inv * j10.sigma_min <= 2.0
    )
    ok = drift_ok and agree_ok and j10_ok
    _verdict(
        6,
        ok,
        f"additive bound + floored C_emp drift < 10x on two families over two decades; "
        f"J10: captured={j10.n_captured}, ||eff^-1||={j10.norm_eff_inv:.1f} "
        f"(1024 within x2 of 1/sigma_min)",
    )


def test_criterion_07_stability_estimate():
    clustered = np.diag([0.0, 1e-3, 1e-2, 1e-1, 1.0]).astype(complex)
    seeded = jordan_block(30) + 1e-12 * gaussian_matrix(30, 9)
    families = [
        ("J10", jordan_block(10), 0.5, np.geomspace(2e-3, 2e-1, 5)),
        ("J20", jordan_block(20), 0.3, np.geomspace(2e-3, 2e-1, 5)),
        ("clustered-normal", clustered, 0.0, np.geomspace(3e-3, 3e-1, 5)),
        ("seeded-J30", seeded, 0.4, 0.35 * np.geomspace(1e-2, 1.0, 5)),
    ]
    worst_drift = 0.0
    worst_identity = 0.0
    for i, (name, a, lam, hs) in enumerate(families):
        constants = []
        for j, h in enumerate(hs):
            constants.append(estimate_check(a, lam, h, trials=32, seed=10 * i + j).worst_ratio)
            pair = threshold_projectors(a, lam, h)
            worst_identity = max(worst_identity, max(projector_identities(a, lam, pair).values()))
        worst_drift = max(worst_drift, max(constants) / min(constants))
    ok = worst_drift < 10.0 and worst_identity <= 1e-10
    _verdict(
        7,
        ok,
        f"empirical C drift <= {worst_drift:.2f} (< 10x across the h-sequences), "
        f"structural identities <= {worst_identity:.2e} (1e-10)",
    )


def _counting_families():
    """100 seeded counting instances: 60 single-eigenvalue contours with
    base-point borders, 40 multi-eigenvalue contours with invariant-subspace
    borders."""
    singles, multis = [], []
    seed = 0
    while len(singles) < 60 or len(multis) < 40:
        seed += 1
        rng = _rng(70_000 + seed)
        n = 8
        a = _complex(rng, (n, n)) / np.sqrt(n)
        vals = eigenvalues(a)
        if len(singles) < 60:
            probe = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
            target = vals[np.argmin(np.abs(vals - probe))]
            gaps = np.sort(np.abs(vals - target))
            if gaps[1] < 5e-2:
                continue
            singles.append((a, Contour.circle(complex(target), 0.45 * gaps[1], nodes=32), "base"))
            continue
        contour = Contour.circle(0.0, 0.75, nodes=32)
        dist = np.min(np.abs(np.abs(vals) - 0.75))
        inside = int(sum(contour.contains(v) for v in vals))
        if dist < 5e-2 or inside == 0:
            continue
        multis.append((a, contour, "riesz"))
    return singles + multis


def test_criterion_08_trace_counting():
    families = _counting_families()
    weighted_worst = 0.0
    mismatches = 0
    for idx, (a, contour, border_kind) in enumerate(families):
        fam = HolomorphicFamily.pencil(a)
        vals = eigenvalues(a)
        tally = int(sum(contour.contains(v) for v in vals))
        if border_kind == "base":
            rm, rp = borders_from_base_point(fam, contour.center, tol=1e-4)
        else:
            rm, rp = invariant_subspace_borders(a, contour)
        direct = count_direct(fam, contour)
        effective = count_effective(fam, rm, rp, contour)
        if not (direct == effective == tally):
            mismatches += 1
        if idx % 2 == 0:
            wt = weighted_trace(fam, rm, rp, contour, lambda z: z)
            target = complex(sum(v for v in vals if contour.contains(v)))
            weighted_worst = max(
                weighted_worst,
                abs(wt.direct - target),
                abs(wt.effective - target),
                wt.difference,
            )
    ok = mismatches == 0 and weighted_worst <= 1e-7
    _verdict(
        8,
        ok,
        f"{len(families)} families: integer counts agree with the eigenvalue tally "
        f"(mismatches={mismatches}); weighted traces within {weighted_worst:.2e} (1e-7)",
    )


def test_criterion_09_loop_identity():
    from grushinlab.cli import seeded_loop_family

    worst_diff = 0.0
    worst_integer = 0.0
    for i in range(50):
        loop = seeded_loop_family(4, 80_000 + i, winding=i % 2 == 1)
        result = loop_trace_identity(loop)
        worst_diff = max(worst_diff, result.difference)
        for value in (result.trace_p, result.trace_effective):
            winding = value / (2j * np.pi)
            worst_integer = max(worst_integer, abs(value - 2j * np.pi * round(winding.real)))
    ok = worst_diff <= 1e-8 and worst_integer <= 1e-8
    _verdict(
        9,
        ok,
        f"50 certified loops: |trace difference| <= {worst_diff:.2e} (1e-8), "
        f"distance to 2*pi*i*Z <= {worst_integer:.2e} (1e-8)",
    )


def test_criterion_10_poisson():
    start = time.perf_counter()
    sinc = poisson_verify(sinc_squared(), 2)
    gauss = poisson_verify(gaussian_test(), 2)
    elapsed = time.perf_counter() - start
    sinc_err = max(
        abs(sinc.lattice_sum - 1.0),
        abs(sinc.transform_sum - 1.0),
        abs(sinc.monodromy_sum - 1.0),
    )
    lattice_oracle = sum(math.exp(-math.pi * n * n) for n in range(-8, 9))
    gauss_err = max(
        abs(gauss.lattice_sum - gauss.transform_sum),
        abs(gauss.lattice_sum - lattice_oracle),
    )
    ok = sinc_err <= 1e-8 and gauss_err <= 1e-10 and elapsed < 5.0
    _verdict(
        10,
        ok,
        f"sinc^2 three-way error {sinc_err:.2e} (1e-8); gaussian two-way {gauss_err:.2e} "
        f"(1e-10); {elapsed:.2f}s (< 5s)",
    )


def test_criterion_11_boundary_value_problem():
    d400 = Discretization(0.0, 1.0, 400, lambda x: 0.0)
    inverse = bvp_grushin(d400, -1.0)
    n_resid = spectral_norm(inverse.e_minus_plus - n2d_map(d400, -1.0))

    coth = np.cosh(1.0) / np.sinh(1.0)
    csch = 1.0 / np.sinh(1.0)
    exact = np.array([[coth, csch], [csch, coth]])
    errors = []
    for m in (100, 200, 400):
        d = Discretization(0.0, 1.0, m, lambda x: 0.0)
        errors.append(spectral_norm(n2d_map(d, -1.0) - exact))
    slopes = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    slope_ok = all(abs(s - 2.0) <= 0.1 for s in slopes)

    d_pi = Discretization(0.0, np.pi, 100, lambda x: 0.0)
    vals_d = eigenvalues(dirichlet_matrix(d_pi, 0.0))
    vals_n = eigenvalues(neumann_matrix(d_pi, 0.0))
    contour_ok = True
    for contour in (
        Contour.circle(0.0, 0.5),
        Contour.circle(-3.0, 0.5),
        Contour.circle(1.0, 0.9),
    ):
        lhs, rhs = dn_trace_identity(d_pi, contour)
        tally = int(sum(contour.contains(v) for v in vals_n)) - int(
            sum(contour.contains(v) for v in vals_d)
        )
        contour_ok &= lhs == rhs == tally
    ok = n_resid <= 1e-9 and slope_ok and contour_ok
    _verdict(
        11,
        ok,
        f"effective = boundary map to {n_resid:.2e} (1e-9, m=400); convergence slopes "
        f"{slopes[0]:.3f}/{slopes[1]:.3f} (2.0 +- 0.1); 3 contour counts match tallies",
    )


def test_criterion_12_lidskii():
    exponent_ok = True
    predict_ok = True
    details = []
    for n, k in ((3, 1), (3, 2), (4, 1)):
        spec = BlockJordanSpec.with_gaussian(n, k, 1e-5, seed=11)
        comparison = lidskii_compare(spec, np.geomspace(1e-8, 1e-5, 7))
        deviation = abs(comparison.fitted_exponent * n - 1.0)
        exponent_ok &= deviation <= 0.02
        err_small = comparison.records[0].max_modulus_rel_error
        predict_ok &= err_small <= 0.05
        details.append(f"(n={n},k={k}): exp dev {100 * deviation:.3f}%, err@1e-8 {100 * err_small:.2f}%")
    ok = exponent_ok and predict_ok
    _verdict(12, ok, "; ".join(details) + " (gates 2% and 5%)")


ACCEPTANCE_CLI_RUNS = [
    ["jordan-cloud", "--n", "8", "--epsilon", "1e-8", "--q", "rank-one"],
    ["jordan-series", "--n", "5", "--epsilon", "1e-6", "--order", "4"],
    ["lidskii", "--n", "3", "--k", "1", "--count", "5"],
    ["pseudospectrum", "--n", "8", "--resolution", "3", "--re-min", "0.2",
     "--re-max", "0.6", "--im-min", "-0.2", "--im-max", "0.2", "--h", "1e-2"],
    ["estimate-check", "--n", "8", "--h-list", "1e-1,1e-2", "--trials", "8"],
    ["mp-check", "--rows", "5", "--cols", "3", "--rank", "2", "--count", "4"],
    ["trace-count", "--n", "8", "--radius", "0.6"],
    ["loop-identity", "--count", "2", "--n", "3"],
    ["poisson", "--f", "sinc2", "--N", "2"],
    ["bvp-n2d", "--m", "60", "--x1", "1.0", "--z-re", "-1.0"],
    ["bvp-trace", "--m", "60", "--radius", "0.4"],
    ["feshbach", "--n", "5", "--split-size", "2"],
    ["circulant", "--n", "6"],
    ["obstruction", "--profile", "const", "--h", "0.25"],
]


def test_criterion_13_cli_determinism(tmp_path):
    mismatched = []
    for argv in ACCEPTANCE_CLI_RUNS:
        name = argv[0]
        paths = [tmp_path / f"{name}-{i}.json" for i in (0, 1)]
        payloads = []
        for path in paths:
            code = cli_run(argv + ["--seed", "5", "--out", str(path)])
            assert code == 0, f"{name} exited {code}"
            payloads.append(path.read_bytes())
        if payloads[0] != payloads[1]:
            mismatched.append(name)
    ok = not mismatched
    _verdict(
        13,
        ok,
        f"all {len(ACCEPTANCE_CLI_RUNS)} subcommands byte-identical across reruns"
        + (f" (mismatched: {mismatched})" if mismatched else ""),
    )
