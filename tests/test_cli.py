import argparse
import functools
import json
import os
import runpy
import sys
import warnings

import numpy as np
import pytest

from grushinlab import cli, linops, traces
from grushinlab.cli import (
    build_parser,
    child_seed,
    render_csv,
    render_json,
    run,
)

ALL_COMMANDS = [
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


def _from_jsonable(value):
    """The parsed json report with every {"re", "im"} pair read back as a complex."""
    if isinstance(value, dict):
        if set(value.keys()) == {"re", "im"}:
            return complex(value["re"], value["im"])
        return {k: _from_jsonable(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_from_jsonable(v) for v in value]
    return value


def _parse_report(text: str) -> dict:
    return _from_jsonable(json.loads(text))


def _run(tmp_path, argv, name="out.json", fmt=None, seed=None):
    path = tmp_path / name
    full = argv + ["--out", str(path)]
    if fmt:
        full += ["--format", fmt]
    if seed is not None:
        full += ["--seed", str(seed)]
    code = run(full)
    return code, path.read_bytes() if path.exists() else b""


@pytest.mark.parametrize("argv", ALL_COMMANDS, ids=lambda a: a[0])
def test_subcommands_pass_and_are_deterministic(tmp_path, argv):
    code1, payload1 = _run(tmp_path, argv, name="first.json", seed=3)
    code2, payload2 = _run(tmp_path, argv, name="second.json", seed=3)
    assert code1 == 0, payload1[-400:]
    assert code2 == 0
    assert payload1 == payload2


@pytest.mark.parametrize("argv", [["--matrix", "gaussian"], ["--n", "1"], ["--n", "2"]],
                         ids=["gaussian", "n1", "n2"])
def test_estimate_check_drift_reads_only_captured_thresholds(tmp_path, argv):
    # sigma_min(A - 0.5) exceeds every default h, so no h captures a subspace:
    # each constant is h ||(A - 0.5)^{-1} v|| / ||v|| < 1 and there is no drift
    code, payload = _run(tmp_path, ["estimate-check", *argv])
    report = json.loads(payload)
    assert code == 0 and report["summary"] == {"drift": 1.0, "pass": True}
    assert all(record["empirical_constant"] < 1.0 for record in report["records"])


def test_unknown_subcommand_exits_2(capsys):
    assert run(["no-such-command"]) == 2
    assert capsys.readouterr().err.startswith("error: argument command: invalid choice: 'no-such-command'")


def test_module_runs_as_a_script(monkeypatch, capsys):
    # python -m grushinlab.cli: main() exits with run()'s code
    monkeypatch.setattr(sys, "argv", ["grushin-lab", "--version"])
    monkeypatch.delitem(sys.modules, "grushinlab.cli")
    with pytest.raises(SystemExit) as info:
        runpy.run_module("grushinlab.cli", run_name="__main__")
    assert info.value.code == 0
    assert capsys.readouterr().out == "0.1.0\n"


def test_unknown_flag_exits_2(capsys):
    assert run(["poisson", "--bogus", "1"]) == 2
    assert capsys.readouterr().err == "error: unrecognized arguments: --bogus 1\n"


def test_failed_allocation_exits_2_with_one_error_line(tmp_path, monkeypatch, capsys):
    def allocate(*args):
        raise MemoryError("Unable to allocate 23.4 TiB")

    monkeypatch.setattr(cli, "poisson_verify", allocate)
    assert _run(tmp_path, ["poisson", "--N", "100000000"]) == (2, b"")
    assert capsys.readouterr().err == "error: Unable to allocate 23.4 TiB\n"


def test_gate_failure_exits_1(tmp_path):
    # the grid includes the origin, which sits on the Jordan spectrum: the
    # per-cell error is recorded and the pass gate fails
    path = tmp_path / "grid.json"
    code = run([
        "pseudospectrum", "--n", "6", "--resolution", "3",
        "--re-min", "-0.1", "--re-max", "0.1", "--im-min", "-0.1", "--im-max", "0.1",
        "--h", "1e-3", "--out", str(path),
    ])
    assert code == 1
    report = _parse_report(path.read_text())
    assert report["summary"]["pass"] is False
    assert any(rec["error"] for rec in report["records"])


def test_quadrature_cap_prints_the_message(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(traces, "integrate_nodes", functools.partial(linops.integrate_nodes, node_cap=128))
    code, _ = _run(tmp_path, ["trace-count"])
    assert code == 2
    assert capsys.readouterr().err == "error: no convergence at 128 nodes\n"


def test_env_seed_override(tmp_path, monkeypatch):
    argv = ["jordan-series", "--n", "5", "--epsilon", "1e-6", "--order", "3", "--q", "random"]
    _, base = _run(tmp_path, argv, name="a.json", seed=1)
    monkeypatch.setenv("GRUSHIN_SEED", "99")
    _, overridden = _run(tmp_path, argv, name="b.json", seed=1)
    monkeypatch.delenv("GRUSHIN_SEED")
    _, direct = _run(tmp_path, argv, name="c.json", seed=99)
    assert overridden != base
    assert overridden == direct


def test_json_roundtrip(tmp_path):
    code, payload = _run(tmp_path, ["circulant", "--n", "5"], name="r.json", seed=7)
    assert code == 0
    report = _parse_report(payload.decode())
    assert report["version"]
    assert isinstance(report["records"][0]["effective"], complex)
    # canonical encoding round-trips byte-for-byte
    assert render_json(report).encode() == payload


def test_csv_complex_columns(tmp_path):
    code, payload = _run(tmp_path, ["jordan-cloud", "--n", "4", "--epsilon", "1e-4",
                                    "--q", "rank-one"], name="cloud.csv")
    assert code == 0
    lines = payload.decode().strip().splitlines()
    header = lines[0].split(",")
    assert "value_re" in header and "value_im" in header
    assert len(lines) == 5
    # moduli column reproduces the quartic-root radius
    idx = header.index("modulus")
    for line in lines[1:]:
        assert float(line.split(",")[idx]) == pytest.approx(0.1, rel=1e-6)


def test_csv_format_inferred_from_extension(tmp_path):
    _, payload = _run(tmp_path, ["circulant", "--n", "4"], name="data.csv")
    assert payload.splitlines()[0].decode().startswith("mode")


def test_empty_records_render():
    assert render_csv({"records": []}) == "\n"


def test_pass_summary_recomputable_from_records(tmp_path):
    # circulant: the gate is a function of the emitted per-mode errors alone
    code, payload = _run(tmp_path, ["circulant", "--n", "6"], name="c.json", seed=11)
    report = _parse_report(payload.decode())
    recomputed = max(rec["abs_error"] for rec in report["records"]) <= 1e-10 * max(
        1.0, max(abs(rec["fft"]) for rec in report["records"])
    )
    assert (code == 0) == report["summary"]["pass"]
    assert recomputed == report["summary"]["pass"]
    # mp-check: same property for the worst scaled residual
    code, payload = _run(tmp_path, ["mp-check", "--count", "3"], name="m.json", seed=11)
    report = _parse_report(payload.decode())
    worst = max(
        max(rec["pinv_diff"], rec["res_pxp"], rec["res_xpx"], rec["res_px_h"], rec["res_xp_h"])
        for rec in report["records"]
    )
    assert (worst <= report["summary"]["worst_scaled_residual"] * (1 + 1e-9)) or report[
        "summary"
    ]["pass"]


def test_child_seed_stability():
    assert child_seed(0, "jordan-cloud") == child_seed(0, "jordan-cloud")
    assert child_seed(0, "jordan-cloud") != child_seed(0, "lidskii")
    assert child_seed(0, "x", 0) != child_seed(0, "x", 1)


def test_io_failure_exit_code(tmp_path):
    code = run(["circulant", "--n", "4", "--out", str(tmp_path / "missing" / "out.json")])
    assert code == 2


def test_potential_file_flow(tmp_path):
    m = 40
    table = tmp_path / "v.txt"
    table.write_text("".join("0.0\n" for _ in range(m + 2)))
    path = tmp_path / "n2d.json"
    code = run([
        "bvp-n2d", "--m", str(m), "--x1", "1.0", "--z-re", "-1.0",
        "--potential-file", str(table), "--out", str(path),
    ])
    assert code == 0
    report = _parse_report(path.read_text())
    coth = np.cosh(1.0) / np.sinh(1.0)
    assert abs(report["records"][0]["value"] - coth) <= 1e-2


def test_bvp_n2d_failed_check_exits_1_with_its_report(tmp_path, monkeypatch):
    # a corner of 1e-6 moves E_-+ by about 1e-6, far beyond the gate 1e-9 max(1, ||N||) = 1.09e-9
    from dataclasses import replace

    from grushinlab import bvp1d

    invert = bvp1d.invert_system
    monkeypatch.setattr(bvp1d, "invert_system", lambda system: invert(replace(system, corner=system.corner + 1e-6)))
    code, payload = _run(tmp_path, ["bvp-n2d"])
    assert code == 1
    summary = _parse_report(payload.decode())["summary"]
    assert summary["pass"] is False and summary["consistency_residual"] > 1e-7


def test_bvp_n2d_gates_as_bvp_grushin_near_a_neumann_eigenvalue(tmp_path):
    # 1e-4 above the second discrete Neumann eigenvalue at m = 120, ||N|| = 1.27e4:
    # the residual (1.1e-6 to 1.8e-6, by BLAS thread count) is beyond 1e-9 but
    # within 1e-9 max(1, ||N||), which bvp_grushin passes too
    code, payload = _run(tmp_path, ["bvp-n2d", "--potential", "zero", "--z-re", "1.000043826"])
    assert code == 0
    summary = _parse_report(payload.decode())["summary"]
    assert summary["pass"] is True and 1e-9 < summary["consistency_residual"] <= 1.27e-5


@pytest.mark.parametrize("argv, code, says, env", [
    (["trace-count", "--n", "0"], 2, "P(z) has shape (0, 0)", {}),
    (["obstruction", "--h", "0"], 2, "h must be positive", {}),
    (["bvp-n2d", "--potential-file", "{tmp}/missing.txt"], 2, "No such file", {}),
    (["bvp-n2d", "--potential-file", "{tmp}"], 2, "Is a directory", {}),
    (["jordan-cloud", "--q", "random"], 0, None, {}),
    (["estimate-check", "--trials", "0"], 2, "trials must be at least 1, got 0", {}),
    (["lidskii", "--count", "1"], 2, "at least two nonzero epsilons, got 1", {}),
    (["poisson", "--N", "0"], 2, "need at least one monodromy term", {}),
    (["poisson"], 2, "GRUSHIN_SEED must be an integer", {"GRUSHIN_SEED": "abc"}),
    (["pseudospectrum", "--n", "0"], 2, "matrix must be nonempty", {}),
    (["pseudospectrum", "--matrix", "gaussian", "--n", "0"], 2, "matrix must be nonempty", {}),
    (["estimate-check", "--n", "0"], 2, "matrix must be nonempty", {}),
    (["mp-check", "--count", "0"], 2, "count must be at least 1, got 0", {}),
    (["mp-check", "--rows", "0"], 2, "--rows must be at least 1, got 0", {}),
    (["mp-check", "--cols", "0"], 2, "--cols must be at least 1, got 0", {}),
    (["mp-check", "--rank", "-1"], 2, "rank must be at least 0, got -1", {}),
    (["mp-check", "--rank", "0"], 0, None, {}),
    (["loop-identity", "--count", "0"], 2, "count must be at least 1, got 0", {}),
    (["loop-identity", "--n", "0"], 2, "n must be at least 2", {}),
    (["loop-identity", "--n", "1"], 2, "n must be at least 2", {}),
    (["bvp-n2d", "--m", "2"], 2, "need at least 3 interior nodes", {}),
    (["circulant", "--n", "1"], 2, "kernel must have length >= 2", {}),
    (["jordan-series", "--n", "0"], 2, "block size must be >= 1", {}),
    (["jordan-series", "--order", "-1"], 2, "order must be >= 0", {}),
    (["jordan-series", "--epsilon", "-1"], 2, "epsilon must be >= 0", {}),
    (["jordan-series", "--lam-re", "0.95"], 2, "|lambda| = 0.950 > 0.9", {}),
    (["jordan-cloud", "--n", "1"], 2, "cloud needs n >= 2", {}),
    (["lidskii", "--k", "0"], 2, "need 1 <= k < n", {}),
    (["pseudospectrum", "--h", "0"], 2, "threshold h must be positive", {}),
    (["estimate-check", "--h-list", "0.1,nan"], 2, "threshold h must be positive and finite, got nan", {}),
    (["estimate-check", "--h-list", ""], 2, "--h-list: expected a comma-separated list of floats, got ''", {}),
    (["estimate-check", "--h-list", "0.1,,0.01"], 2,
     "--h-list: expected a comma-separated list of floats, got '0.1,,0.01'", {}),
    (["estimate-check", "--h-list", "a"], 2, "--h-list: expected a comma-separated list of floats, got 'a'", {}),
    (["pseudospectrum", "--h", "nan"], 2, "threshold h must be positive and finite, got nan", {}),
    (["pseudospectrum", "--h", "inf"], 2, "threshold h must be positive and finite, got inf", {}),
    (["trace-count", "--radius", "inf"], 2, "circle center 0j and radius inf must be finite", {}),
    (["trace-count", "--center-re", "nan"], 2, "circle center (nan+0j) and radius 0.7 must be finite", {}),
    (["bvp-trace", "--radius", "inf"], 2, "circle center 0j and radius inf must be finite", {}),
    (["obstruction", "--z-min", "nan"], 2, "--z-min must be finite, got nan", {}),
    (["bvp-trace", "--x1", "inf"], 2, "need a < b", {}),
    (["bvp-n2d", "--x1", "inf"], 2, "need a < b", {}),
    (["bvp-n2d", "--x1", "1e-300"], 2, "grid step 8.264e-303 out of range", {}),
    (["bvp-trace", "--x1", "1e-300"], 2, "grid step 8.264e-303 out of range", {}),
    (["bvp-n2d", "--x1", "1e160"], 2, "grid step 8.264e+157 out of range", {}),
    (["obstruction", "--z-count", "0"], 2, "z-count must be at least 2, got 0", {}),
    (["obstruction", "--z-count", "1"], 2, "z-count must be at least 2, got 1", {}),
    (["obstruction", "--z-count", "-1"], 2, "z-count must be at least 2, got -1", {}),
    (["jordan-cloud", "--epsilon", "-1"], 2, "--epsilon must be finite and at least 0, got -1.0", {}),
    (["--version"], 0, None, {}),
    (["poisson", "--help"], 0, None, {}),
], ids=["trace-count-n0", "obstruction-h0", "potential-file-missing", "potential-file-directory",
        "jordan-cloud-random", "estimate-check-trials0", "lidskii-count1", "poisson-n0", "seed-env-not-integer",
        "pseudospectrum-n0", "pseudospectrum-gaussian-n0", "estimate-check-n0", "mp-check-count0",
        "mp-check-rows0", "mp-check-cols0", "mp-check-rank-1", "mp-check-rank0",
        "loop-identity-count0", "loop-identity-n0", "loop-identity-n1", "bvp-n2d-m2", "circulant-n1",
        "jordan-series-n0", "jordan-series-order-1", "jordan-series-epsilon-1", "jordan-series-lam-re0.95",
        "jordan-cloud-n1", "lidskii-k0", "pseudospectrum-h0", "estimate-check-h-nan", "estimate-check-h-list-empty",
        "estimate-check-h-list-empty-item", "estimate-check-h-list-not-float", "pseudospectrum-h-nan",
        "pseudospectrum-h-inf", "trace-count-radius-inf", "trace-count-center-nan", "bvp-trace-radius-inf",
        "obstruction-z-min-nan", "bvp-trace-x1-inf", "bvp-n2d-x1-inf", "bvp-n2d-x1-tiny", "bvp-trace-x1-tiny",
        "bvp-n2d-x1-huge", "obstruction-z-count0", "obstruction-z-count1", "obstruction-z-count-1",
        "jordan-cloud-epsilon-1", "version", "poisson-help"])
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, argv, code, says, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    assert _run(tmp_path, argv)[0] == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
        assert says in err
    else:
        assert err == ""


def test_json_writes_numpy_and_complex_values():
    report = {"a": np.float32(0.5), "b": np.arange(2), "c": np.complex64(1j), "d": np.bool_(True),
              "e": [np.int64(3), (np.array([1 - 2j]),)], "f": np.float64(0.1)}
    assert json.loads(render_json(report)) == {
        "a": 0.5, "b": [0, 1], "c": {"im": 1.0, "re": 0.0}, "d": True,
        "e": [3, [[{"im": -2.0, "re": 1.0}]]], "f": 0.1,
    }


SWEPT = {float: ("nan", "inf", "-inf", "-1", "0", "1e-300"), int: ("-1", "0", "1", "2")}


def test_every_numeric_flag_exits_cleanly_at_its_edge_values(tmp_path, capsys):
    # the table is read from the parser, so a new flag is swept without editing
    # this test; warnings are raised, since pytest's own capture keeps them off stderr
    small = {argv[0]: argv[1:] for argv in ALL_COMMANDS} | {
        "bvp-n2d": ["--m", "12"], "bvp-trace": ["--m", "12"], "trace-count": ["--n", "4"],
        "pseudospectrum": ["--n", "4", "--resolution", "2"]}
    out = ["--out", str(tmp_path / "out.json")]
    (commands,) = [a.choices for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    faults = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, sub in commands.items():
            for action in sub._actions:
                flag = action.option_strings[0]
                for value in SWEPT.get(action.type, ()):
                    for form in ([flag, value], [f"{flag}={value}"]):
                        argv = [name, *small[name], *form]
                        try:
                            code = run(argv + out)
                        except Exception as exc:
                            code = repr(exc)
                        err = capsys.readouterr().err
                        one_line = err.startswith("error: ") and err.count("\n") == 1
                        if not (code == 2 and one_line or code in (0, 1) and err == ""):
                            faults.append(f"{' '.join(argv)}: {code} {err!r}")
    assert not faults, "\n".join(faults)
