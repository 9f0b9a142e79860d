"""Command-line front end.

Every subcommand runs one reproducible experiment, writes a report (CSV or
JSON) and exits 0 when its numerical gates pass, 1 when a gate fails (the
report is still written), and 2 on usage or I/O errors.  A root seed (flag
``--seed`` or env GRUSHIN_SEED) is mixed with the subcommand name and a
record index, so identical configurations give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import tempfile
import zlib
from dataclasses import asdict
from typing import Callable

import numpy as np

from . import __version__
from .bvp1d import (
    Discretization,
    _n2d_residual,
    bvp_bordered_system,
    dirichlet_matrix,
    dn_trace_identity,
    load_potential_table,
    neumann_matrix,
    potential_from_name,
    tabulated_potential,
)
from .core import _feshbach_residual, assemble, circulant_effective, feshbach_effective, Split
from .errors import GrushinLabError, IoFailure
from .linops import Contour, eigenvalues, singular_values, spectral_norm
from .perturbation import (
    BlockJordanSpec,
    JordanSpec,
    gaussian_matrix,
    jordan_block,
    jordan_cloud,
    jordan_effective_exact,
    jordan_effective_series,
    lidskii_compare,
)
from .pseudoinverse import mp_residuals, pseudo_inverse
from .pseudospectra import estimate_check, pseudospectrum_grid
from .traces import (
    HolomorphicFamily,
    LoopFamily,
    count_direct,
    count_effective,
    gaussian_test,
    invariant_subspace_borders,
    loop_trace_identity,
    poisson_verify,
    selfadjoint_obstruction,
    sinc_squared,
)


def child_seed(root: int, label: str, index: int = 0) -> int:
    """Deterministic 64-bit stream seed for (root, subcommand, index)."""
    seq = np.random.SeedSequence([root & 0xFFFFFFFFFFFFFFFF, zlib.crc32(label.encode()), index])
    return int(seq.generate_state(1, np.uint64)[0])


# --- report plumbing ---------------------------------------------------------


def _json_default(value):
    """A complex number as {"im", "re"}, a numpy scalar or array as its Python value."""
    if isinstance(value, (complex, np.complexfloating)):
        return {"im": float(value.imag), "re": float(value.real)}
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def render_json(report: dict) -> str:
    return json.dumps(report, default=_json_default, sort_keys=True, indent=2) + "\n"


def _csv_cell(value) -> list[str]:
    if isinstance(value, (complex, np.complexfloating)):
        return [f"{float(value.real):.17g}", f"{float(value.imag):.17g}"]
    if isinstance(value, bool):
        return ["true" if value else "false"]
    if isinstance(value, (float, np.floating)):
        return [f"{float(value):.17g}"]
    if isinstance(value, (int, np.integer)):
        return [str(int(value))]
    if value is None:
        return [""]
    return [str(value)]


def render_csv(report: dict) -> str:
    records = report.get("records", [])
    if not records:
        return "\n"
    keys = list(records[0].keys())
    header = []
    for key in keys:
        sample = records[0][key]
        if isinstance(sample, (complex, np.complexfloating)):
            header.extend([f"{key}_re", f"{key}_im"])
        else:
            header.append(key)
    lines = [",".join(header)]
    for rec in records:
        cells = []
        for key in keys:
            cells.extend(_csv_cell(rec.get(key)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit(report: dict, fmt: str, path: str) -> None:
    """Serialize the report; the file appears atomically (temp file + rename)."""
    payload = render_csv(report) if fmt == "csv" else render_json(report)
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=".grushin-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


# --- subcommand handlers -----------------------------------------------------


def _cmd_jordan_cloud(args, seed: int):
    q_kind = "gaussian" if args.q == "random" else args.q
    cloud = jordan_cloud(args.n, args.epsilon, q_kind, child_seed(seed, "jordan-cloud"))
    records = [
        {"index": i, "value": complex(v), "modulus": abs(v)}
        for i, v in enumerate(cloud.eigenvalues)
    ]
    if args.q == "rank-one":
        expected = args.epsilon ** (1.0 / args.n) if args.epsilon else 0.0
        if expected:
            max_rel = max(abs(abs(v) - expected) / expected for v in cloud.eigenvalues)
        else:
            max_rel = max(abs(v) for v in cloud.eigenvalues)
        summary = {"expected_modulus": expected, "max_modulus_rel_error": max_rel,
                   "pass": bool(max_rel <= 1e-6)}
    else:
        # empirical gate, not a theorem: the leading balance puts the cloud
        # near radius (eps * ||Q||)^(1/n); thresholds 0.5/1.5/90% are observed
        radius = (args.epsilon * cloud.q_norm) ** (1.0 / args.n)
        moduli = np.abs(cloud.eigenvalues)
        frac = float(np.mean((moduli >= 0.5 * radius) & (moduli <= 1.5 * radius)))
        summary = {"annulus_radius": radius, "fraction_in_annulus": frac,
                   "pass": bool(frac >= 0.9)}
    summary["coupling"] = complex(cloud.coupling)
    return records, summary


def _cmd_jordan_series(args, seed: int):
    lam = complex(args.lam_re, args.lam_im)
    if args.q == "rank-one":
        spec = JordanSpec.with_rank_one(args.n, lam, args.epsilon)
    else:
        spec = JordanSpec.with_gaussian(args.n, lam, args.epsilon,
                                        child_seed(seed, "jordan-series"))
    exact = jordan_effective_exact(spec)
    result = jordan_effective_series(spec, args.order)
    records, errors = [], []
    for order, value in enumerate(itertools.accumulate(result.terms)):
        errors.append(abs(value - exact))
        records.append({"order": order, "partial_sum": value, "abs_error": errors[-1]})
    ratio_cap = result.contraction + 1e-3
    ok = all(
        errors[i + 1] <= ratio_cap * errors[i] + 1e-14
        for i in range(len(errors) - 1)
    )
    summary = {"exact": exact, "contraction": result.contraction,
               "ratio_cap": ratio_cap, "pass": bool(ok)}
    return records, summary


def _cmd_lidskii(args, seed: int):
    spec = BlockJordanSpec.with_gaussian(args.n, args.k, args.eps_max,
                                         child_seed(seed, "lidskii"))
    eps_values = np.geomspace(args.eps_min, args.eps_max, args.count)
    comparison = lidskii_compare(spec, eps_values)
    records = [asdict(r) for r in comparison.records]
    deviation = abs(comparison.fitted_exponent * args.n - 1.0)
    summary = {
        "fitted_exponent": comparison.fitted_exponent,
        "expected_exponent": comparison.expected_exponent,
        "relative_deviation": deviation,
        "pass": bool(deviation <= 0.02),
    }
    return records, summary


def _matrix_for(args, seed: int, label: str) -> np.ndarray:
    if args.matrix == "jordan":
        return jordan_block(args.n)
    return gaussian_matrix(args.n, child_seed(seed, label)) / np.sqrt(args.n)


def _cmd_pseudospectrum(args, seed: int):
    a = _matrix_for(args, seed, "pseudospectrum")
    grid = pseudospectrum_grid(
        a,
        (args.re_min, args.re_max, args.im_min, args.im_max),
        args.resolution,
        ("fixed", args.h),
    )
    records = [asdict(cell) for cell in grid.cells]
    clean = [c for c in grid.cells if c.error is None]
    summary = {
        "cells": len(grid.cells),
        "failed_cells": len(grid.cells) - len(clean),
        "max_c_emp": max((c.c_emp for c in clean), default=0.0),
        "pass": bool(len(clean) == len(grid.cells)),
    }
    return records, summary


def _cmd_estimate_check(args, seed: int):
    a = _matrix_for(args, seed, "estimate-check")
    lam = complex(args.lam_re, args.lam_im)
    records = []
    captured, uncaptured = [], []
    for i, h in enumerate(args.h_list):
        res = estimate_check(a, lam, h, args.trials, child_seed(seed, "estimate-check", i))
        (captured if res.n_captured else uncaptured).append(res.worst_ratio)
        records.append({"h": h, "empirical_constant": res.worst_ratio})
    # the drift compares the h that captured a subspace; without one the constant is below 1
    drift = max(captured) / min(captured) if len(captured) > 1 else 1.0
    summary = {"drift": drift, "pass": bool(drift < 10.0 and max(uncaptured, default=0.0) <= 1.0)}
    return records, summary


def _svd_pseudoinverse(p: np.ndarray) -> np.ndarray:
    u, s, vh = np.linalg.svd(p, full_matrices=False)
    cutoff = max(p.shape) * np.finfo(float).eps * (s[0] if s.size else 0.0) * 8
    inv = np.where(s > cutoff, 1.0 / np.where(s > cutoff, s, 1.0), 0.0)
    return (vh.conj().T * inv) @ u.conj().T


def _cmd_mp_check(args, seed: int):
    records = []
    worst = 0.0
    for i in range(args.count):
        left = gaussian_matrix(args.rows, child_seed(seed, "mp-check", 2 * i), args.rank)
        right = gaussian_matrix(args.rank, child_seed(seed, "mp-check", 2 * i + 1), args.cols)
        p = left @ right
        plus = pseudo_inverse(p)
        oracle = _svd_pseudoinverse(p)
        diff = spectral_norm(plus - oracle)
        res = mp_residuals(p, plus)
        scale = max(1.0, spectral_norm(plus))
        worst = max(worst, diff / scale, max(res) / scale)
        records.append(
            {"instance": i, "pinv_diff": diff,
             "res_pxp": res[0], "res_xpx": res[1], "res_px_h": res[2], "res_xp_h": res[3]}
        )
    summary = {"worst_scaled_residual": worst, "pass": bool(worst <= 1e-10)}
    return records, summary


def _cmd_trace_count(args, seed: int):
    a = gaussian_matrix(args.n, child_seed(seed, "trace-count")) / np.sqrt(args.n)
    contour = Contour.circle(complex(args.center_re, args.center_im), args.radius)
    family = HolomorphicFamily.pencil(a)
    oracle = int(sum(1 for v in eigenvalues(a) if contour.contains(v)))
    direct = count_direct(family, contour)
    rminus, rplus = invariant_subspace_borders(a, contour)
    effective = count_effective(family, rminus, rplus, contour)
    records = [{"direct": direct, "effective": effective, "oracle": oracle}]
    summary = {"pass": bool(direct == effective == oracle)}
    return records, summary


def seeded_loop_family(n: int, seed: int, winding: bool) -> LoopFamily:
    """Seeded trigonometric loop families used by the loop-identity experiments.

    ``winding=False``: oscillating parts rescaled until the constant assembled
    system dominates them on the whole closed disc (so the harmonic extension
    is invertible by a norm margin, not just at certificate samples); det P
    never winds.  ``winding=True``: P(t) = e^{it} D + small constant with full
    unitary borders and zero corner, which is invertible in the disc for any
    interior P; det P winds n times.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x100F]))

    def rand(shape, scale=1.0):
        return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))

    if winding:
        d = np.diag(1.0 + 0.2 * rng.random(n))
        a0 = 0.05 * rand((n, n))
        q = np.linalg.qr(rand((n, n)))[0]
        return LoopFamily.from_blocks(
            p={0: a0, 1: d.astype(complex)},
            rminus={0: q},
            rplus={0: q.conj().T},
            corner=None,
        )
    a0 = np.diag(2.0 + rng.random(n)).astype(complex)
    a1 = rand((n, n), 0.15)
    borders = np.linalg.qr(rand((n, 2)))[0]
    row = np.linalg.qr(rand((n, 2)))[0].conj().T
    c0 = rand((2, 2), 0.1)
    c1 = rand((2, 2), 0.05)
    osc = assemble(a1, np.zeros((n, 2)), np.zeros((2, n)), c1).assembled()
    margin = singular_values(assemble(a0, borders, row, c0).assembled())[-1]
    swing = spectral_norm(osc) + spectral_norm(osc.conj().T)
    scale = min(1.0, 0.4 * margin / swing)
    return LoopFamily.from_blocks(
        p={0: a0, 1: scale * a1, -1: scale * a1.conj().T},
        rminus={0: borders},
        rplus={0: row},
        corner={0: c0, 1: scale * c1, -1: scale * c1.conj().T},
    )


def _cmd_loop_identity(args, seed: int):
    records = []
    worst = 0.0
    integer_ok = True
    for i in range(args.count):
        loop = seeded_loop_family(args.n, child_seed(seed, "loop-identity", i), winding=i % 2 == 1)
        result = loop_trace_identity(loop)
        worst = max(worst, result.difference)
        span = result.trace_p / (2j * np.pi)
        integer_ok = integer_ok and abs(span - round(span.real)) <= 1e-8
        records.append(
            {"loop": i, "trace_p": result.trace_p, "trace_effective": result.trace_effective,
             "difference": result.difference}
        )
    summary = {"max_difference": worst, "pass": bool(worst <= 1e-8 and integer_ok)}
    return records, summary


def _cmd_poisson(args, seed: int):
    tf = sinc_squared() if args.f == "sinc2" else gaussian_test()
    result = poisson_verify(tf, args.n_terms)
    record = {
        "lattice_sum": result.lattice_sum,
        "transform_sum": result.transform_sum,
        "monodromy_sum": result.monodromy_sum if result.monodromy_sum is not None else "",
        "support_ok": result.support_ok,
    }
    disc = result.discrepancies()
    if result.support_ok:
        ok = max(disc.values()) <= 1e-8
    else:
        ok = disc["lattice_vs_transform"] <= 1e-10
    summary = {"discrepancies": disc, "pass": bool(ok)}
    return [record], summary


def _make_discretization(args) -> Discretization:
    if args.potential_file:
        table = load_potential_table(args.potential_file)
        v = tabulated_potential(args.x0, args.x1, args.m, table)
    else:
        v = potential_from_name(args.potential, args.x0, args.x1)
    return Discretization(args.x0, args.x1, args.m, v)


def _cmd_bvp_n2d(args, seed: int):
    d = _make_discretization(args)
    z = complex(args.z_re, args.z_im)
    n_map, _, residual, bound = _n2d_residual(d, z, bvp_bordered_system(d, z))
    entries = ("left_left", "left_right", "right_left", "right_right")
    records = [{"entry": e, "value": complex(v)} for e, v in zip(entries, n_map.ravel())]
    summary = {"consistency_residual": residual, "pass": bool(residual <= bound)}
    return records, summary


def _cmd_bvp_trace(args, seed: int):
    d = _make_discretization(args)
    contour = Contour.circle(complex(args.center_re, args.center_im), args.radius)
    lhs, rhs = dn_trace_identity(d, contour)
    neumann_eigs = eigenvalues(neumann_matrix(d, 0.0))
    dirichlet_eigs = eigenvalues(dirichlet_matrix(d, 0.0))
    tally = int(sum(1 for v in neumann_eigs if contour.contains(v))) - int(
        sum(1 for v in dirichlet_eigs if contour.contains(v))
    )
    records = [{"lhs_count": lhs, "rhs_count": rhs, "eigen_tally": tally}]
    summary = {"pass": bool(lhs == rhs == tally)}
    return records, summary


def _cmd_feshbach(args, seed: int):
    h = gaussian_matrix(args.n, child_seed(seed, "feshbach"))
    split = Split(tuple(range(args.split_size)))
    z = complex(args.z_re, args.z_im)
    g_v = feshbach_effective(h, split, z, cross_check=False)
    residual, bound = _feshbach_residual(h, split, z, g_v)
    records = [{"g_v_norm": spectral_norm(g_v), "bordered_residual": residual}]
    summary = {"pass": bool(residual <= bound)}
    return records, summary


def _cmd_circulant(args, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence([child_seed(seed, "circulant")]))
    kernel = rng.standard_normal(args.n) + 1j * rng.standard_normal(args.n)
    _, ginv = circulant_effective(kernel)
    oracle = np.fft.fft(kernel)
    eff = ginv.e_minus_plus
    diag = np.diag(eff)
    off = spectral_norm(eff - np.diag(diag))
    records = [
        {"mode": i, "effective": complex(diag[i]), "fft": complex(oracle[i]),
         "abs_error": abs(diag[i] - oracle[i])}
        for i in range(args.n)
    ]
    scale = max(1.0, float(np.abs(oracle).max()))
    worst = max(max(r["abs_error"] for r in records), off)
    summary = {"worst_error": worst, "off_diagonal_norm": off,
               "pass": bool(worst <= 1e-10 * scale)}
    return records, summary


OBSTRUCTION_PROFILES: dict[str, Callable[[float], complex]] = {
    "const": lambda x: 1.0,
    "half": lambda x: 1.0 if x < np.pi else (0.5 if x == np.pi else 0.0),
    "odd": lambda x: x - np.pi,
}


def _cmd_obstruction(args, seed: int):
    profile = OBSTRUCTION_PROFILES[args.profile]
    grid = np.linspace(args.z_min, args.z_max, args.z_count)
    report = selfadjoint_obstruction(profile, args.h, grid)
    records = [
        {
            "ordered_pairing": report.ordered_pairing,
            "mean_value": report.mean_value,
            "identity_residual": report.identity_residual,
            "crossing_count": int(report.crossings.size),
            "first_crossing": float(report.crossings[0]) if report.crossings.size else "",
        }
    ]
    scale = max(1.0, abs(report.ordered_pairing))
    summary = {"pass": bool(report.identity_residual <= 1e-8 * scale)}
    return records, summary


HANDLERS = {
    "jordan-cloud": _cmd_jordan_cloud,
    "jordan-series": _cmd_jordan_series,
    "lidskii": _cmd_lidskii,
    "pseudospectrum": _cmd_pseudospectrum,
    "estimate-check": _cmd_estimate_check,
    "mp-check": _cmd_mp_check,
    "trace-count": _cmd_trace_count,
    "loop-identity": _cmd_loop_identity,
    "poisson": _cmd_poisson,
    "bvp-n2d": _cmd_bvp_n2d,
    "bvp-trace": _cmd_bvp_trace,
    "feshbach": _cmd_feshbach,
    "circulant": _cmd_circulant,
    "obstruction": _cmd_obstruction,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises each refusal as a ValueError, where argparse prints usage and exits."""

    def error(self, message):
        raise ValueError(message)


class _Domain(argparse.Action):
    """Store a flag's value when it lies in the flag's ``domain``, a (phrase, predicate) pair."""

    def __init__(self, option_strings, dest, domain, **kwargs):
        super().__init__(option_strings, dest, **kwargs)
        self.says, self.holds = domain

    def __call__(self, parser, namespace, value, option_string):
        if not self.holds(value):
            parser.error(f"{option_string} must be {self.says}, got {value}")
        setattr(namespace, self.dest, value)


def _at_least(lo: int) -> tuple:
    return f"at least {lo}", lambda value: value >= lo


def _float_list(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of floats, got {text!r}") from None


FINITE = "finite", math.isfinite
NONNEGATIVE = "finite and at least 0", lambda value: 0 <= value < math.inf
POSITIVE = "finite and positive", lambda value: 0 < value < math.inf


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="grushin-lab")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="report.json")
        p.add_argument("--format", choices=("csv", "json"), default=None)

    p = sub.add_parser("jordan-cloud")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--epsilon", type=float, default=1e-10, action=_Domain, domain=NONNEGATIVE)
    p.add_argument("--q", choices=("rank-one", "random"), default="rank-one")
    common(p)

    p = sub.add_parser("jordan-series")
    p.add_argument("--n", type=int, default=6, action=_Domain, domain=_at_least(0))
    p.add_argument("--lam-re", type=float, default=0.2, action=_Domain, domain=FINITE)
    p.add_argument("--lam-im", type=float, default=0.0, action=_Domain, domain=FINITE)
    p.add_argument("--epsilon", type=float, default=1e-6, action=_Domain, domain=FINITE)
    p.add_argument("--order", type=int, default=6)
    p.add_argument("--q", choices=("rank-one", "random"), default="random")
    common(p)

    p = sub.add_parser("lidskii")
    p.add_argument("--n", type=int, default=3, action=_Domain, domain=_at_least(0))
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--eps-min", type=float, default=1e-8, action=_Domain, domain=POSITIVE)
    p.add_argument("--eps-max", type=float, default=1e-5, action=_Domain, domain=POSITIVE)
    p.add_argument("--count", type=int, default=7, action=_Domain, domain=_at_least(0))
    common(p)

    p = sub.add_parser("pseudospectrum")
    p.add_argument("--matrix", choices=("jordan", "gaussian"), default="jordan")
    p.add_argument("--n", type=int, default=20, action=_Domain, domain=_at_least(0))
    p.add_argument("--re-min", type=float, default=0.3)
    p.add_argument("--re-max", type=float, default=0.8)
    p.add_argument("--im-min", type=float, default=-0.25)
    p.add_argument("--im-max", type=float, default=0.25)
    p.add_argument("--resolution", type=int, default=5)
    p.add_argument("--h", type=float, default=1e-2)
    common(p)

    p = sub.add_parser("estimate-check")
    p.add_argument("--matrix", choices=("jordan", "gaussian"), default="jordan")
    p.add_argument("--n", type=int, default=10, action=_Domain, domain=_at_least(0))
    p.add_argument("--lam-re", type=float, default=0.5, action=_Domain, domain=FINITE)
    p.add_argument("--lam-im", type=float, default=0.0, action=_Domain, domain=FINITE)
    p.add_argument("--h-list", type=_float_list, default=[1e-1, 1e-2, 1e-3])
    p.add_argument("--trials", type=int, default=32)
    common(p)

    p = sub.add_parser("mp-check")
    p.add_argument("--rows", type=int, default=7, action=_Domain, domain=_at_least(1))
    p.add_argument("--cols", type=int, default=4, action=_Domain, domain=_at_least(1))
    p.add_argument("--rank", type=int, default=3, action=_Domain, domain=_at_least(0))
    p.add_argument("--count", type=int, default=20, action=_Domain, domain=_at_least(1))
    common(p)

    p = sub.add_parser("trace-count")
    p.add_argument("--family", choices=("shifted",), default="shifted")
    p.add_argument("--n", type=int, default=12, action=_Domain, domain=_at_least(0))
    p.add_argument("--center-re", type=float, default=0.0)
    p.add_argument("--center-im", type=float, default=0.0)
    p.add_argument("--radius", type=float, default=0.7)
    common(p)

    p = sub.add_parser("loop-identity")
    p.add_argument("--count", type=int, default=4, action=_Domain, domain=_at_least(1))
    p.add_argument("--n", type=int, default=5, action=_Domain, domain=_at_least(2))
    common(p)

    p = sub.add_parser("poisson")
    p.add_argument("--f", choices=("sinc2", "gaussian"), default="sinc2")
    p.add_argument("--N", dest="n_terms", type=int, default=2)
    common(p)

    def bvp_common(p):
        p.add_argument("--x0", type=float, default=0.0)
        p.add_argument("--x1", type=float, default=np.pi)
        p.add_argument("--m", type=int, default=120)
        p.add_argument("--potential", choices=("zero", "harmonic", "well"), default="zero")
        p.add_argument("--potential-file", default=None)

    p = sub.add_parser("bvp-n2d")
    bvp_common(p)
    p.add_argument("--z-re", type=float, default=-1.0, action=_Domain, domain=FINITE)
    p.add_argument("--z-im", type=float, default=0.0, action=_Domain, domain=FINITE)
    common(p)

    p = sub.add_parser("bvp-trace")
    bvp_common(p)
    p.add_argument("--center-re", type=float, default=0.0)
    p.add_argument("--center-im", type=float, default=0.0)
    p.add_argument("--radius", type=float, default=0.5)
    common(p)

    p = sub.add_parser("feshbach")
    p.add_argument("--n", type=int, default=6, action=_Domain, domain=_at_least(0))
    p.add_argument("--split-size", type=int, default=2)
    p.add_argument("--z-re", type=float, default=0.37, action=_Domain, domain=FINITE)
    p.add_argument("--z-im", type=float, default=0.21, action=_Domain, domain=FINITE)
    common(p)

    p = sub.add_parser("circulant")
    p.add_argument("--n", type=int, default=8)
    common(p)

    p = sub.add_parser("obstruction")
    p.add_argument("--profile", choices=OBSTRUCTION_PROFILES, default="const")
    p.add_argument("--h", type=float, default=0.1)
    p.add_argument("--z-min", type=float, default=-1.0, action=_Domain, domain=FINITE)
    p.add_argument("--z-max", type=float, default=1.0, action=_Domain, domain=FINITE)
    p.add_argument("--z-count", type=int, default=41, action=_Domain, domain=_at_least(2))
    common(p)

    return parser


def run(argv) -> int:
    """Parse, execute, emit.  Exit codes: 0 gates pass, 1 a gate failed, 2 input refused or I/O failed."""
    try:
        args = build_parser().parse_args(argv)
        try:
            seed = int(os.environ.get("GRUSHIN_SEED", args.seed))
        except ValueError:
            raise ValueError("GRUSHIN_SEED must be an integer") from None
        fmt = args.format
        if fmt is None:
            fmt = "csv" if str(args.out).endswith(".csv") else "json"
        records, summary = HANDLERS[args.command](args, seed)
        config = {
            k: v for k, v in sorted(vars(args).items()) if k not in ("out", "format")
        }
        config["seed"] = seed
        report = {
            "config": config,
            "records": records,
            "summary": summary,
            "version": __version__,
        }
        emit(report, fmt, args.out)
    except SystemExit:  # --help and --version: every refusal raises instead
        return 0
    except (GrushinLabError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if summary.get("pass", False) else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
