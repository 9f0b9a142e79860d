"""Committed reports the CLI must write again: the default json and csv
reports of every subcommand, two more ``bvp-trace`` potentials,
``obstruction --profile half``, and each CLI choice value that the defaults
leave unrun.

The ``bvp-trace`` reports hold only integers, a bool and the configuration,
so they compare byte for byte everywhere.  The others carry floats that the
BLAS may round differently: they compare byte for byte where the running
Python, numpy, BLAS and BLAS thread count match ``golden/STAMP.json``, and
elsewhere in all but their floats (in a csv report, all but its numbers).
Threaded OpenBLAS kernels round differently at different thread counts, so
the reports are written with OpenBLAS set to the stamp's count where it can be."""

import ctypes
import functools
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from grushinlab.cli import HANDLERS, run

GOLDEN = Path(__file__).parent / "golden"
STAMP = json.loads((GOLDEN / "STAMP.json").read_text())


def _openblas_threads(action: str):
    """The ``get`` or ``set`` thread-count function of the OpenBLAS that numpy
    loaded, looked up as ``perfbench/run.py`` does; None if there is none."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(path))
        for symbol in (f"scipy_openblas_{action}_num_threads64_", f"openblas_{action}_num_threads64_",
                       f"openblas_{action}_num_threads"):
            if hasattr(handle, symbol):
                function = getattr(handle, symbol)
                function.argtypes, function.restype = ([ctypes.c_int], None) if action == "set" else ([], ctypes.c_int)
                return function
    return None


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """The report bytes ``run(argv)`` writes, each argv and format run once per
    module; the suffix of the output file picks the format.  OpenBLAS runs at
    the stamp's thread count while the module's tests run, where it can be set."""
    directory = tmp_path_factory.mktemp("reports")
    get, set_threads = _openblas_threads("get"), _openblas_threads("set")
    pinned = get is not None and set_threads is not None
    if pinned:
        before = get()
        set_threads(STAMP["blas_threads"])

    @functools.cache
    def write(*argv: str, suffix: str = ".json") -> bytes:
        out = directory / f"{'_'.join(argv)}{suffix}"
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv("GRUSHIN_SEED", raising=False)
            assert run([*argv, "--out", str(out)]) == 0
        return out.read_bytes()

    yield write
    if pinned:
        set_threads(before)


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its build configuration
        blas = None
    get = _openblas_threads("get")
    return {"blas": blas, "blas_threads": None if get is None else get(), "numpy": np.__version__,
            "python": platform.python_version()}


def _without_floats(value):
    """The parsed report with every float replaced by a marker."""
    if isinstance(value, float):
        return "<float>"
    if isinstance(value, dict):
        return {k: _without_floats(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_without_floats(v) for v in value]
    return value


def _csv_without_numbers(text: bytes) -> list[list[str]]:
    """The csv rows with every cell that reads as a number replaced by a marker."""

    def cell(value: str) -> str:
        try:
            float(value)
        except ValueError:
            return value
        return "<number>"

    return [[cell(value) for value in line.split(",")] for line in text.decode().splitlines()]


@pytest.mark.parametrize(
    "name, argv",
    [
        ("bvp-trace", ["bvp-trace"]),
        ("bvp-trace-harmonic", ["bvp-trace", "--potential", "harmonic"]),
        ("bvp-trace-well", ["bvp-trace", "--potential", "well"]),
    ],
)
def test_report_matches_golden_bytes(report, name, argv):
    assert report(*argv) == (GOLDEN / f"{name}.json").read_bytes()


def _assert_matches_json(written: bytes, expected: bytes):
    """Bytes where the environment matches the stamp; elsewhere all but the
    floats, then a stated skip."""
    if STAMP == _environment():
        assert written == expected
        return
    written, expected = json.loads(written), json.loads(expected)
    assert written["config"] == expected["config"]
    assert _without_floats(written) == _without_floats(expected)
    pytest.skip(f"float bytes not compared: golden reports stamped {STAMP}, running {_environment()}")


@pytest.mark.parametrize("command", sorted(HANDLERS))
def test_every_subcommand_matches_its_golden_report(report, command):
    golden = GOLDEN / f"{command}.json"
    assert golden.exists(), f"no golden report for {command}"
    _assert_matches_json(report(command), golden.read_bytes())


def test_nested_obstruction_report_matches_golden(report):
    # seven passes of the nested node doubling, from 512 to 32 768 nodes
    written = report("obstruction", "--profile", "half")
    _assert_matches_json(written, (GOLDEN / "obstruction-half.json").read_bytes())


@pytest.mark.parametrize(
    "name, argv",
    [
        ("poisson-gaussian", ["poisson", "--f", "gaussian"]),
        # the only run of the gaussian's monodromy window, which is not extrapolated
        ("poisson-gaussian-N3", ["poisson", "--f", "gaussian", "--N", "3"]),
        ("obstruction-odd", ["obstruction", "--profile", "odd"]),
        ("jordan-series-rank-one", ["jordan-series", "--q", "rank-one"]),
        ("jordan-cloud-epsilon0", ["jordan-cloud", "--epsilon", "0"]),
        ("pseudospectrum-gaussian", ["pseudospectrum", "--matrix", "gaussian"]),
        ("jordan-cloud-random", ["jordan-cloud", "--q", "random"]),
        ("estimate-check-gaussian", ["estimate-check", "--matrix", "gaussian"]),
    ],
)
def test_choice_value_matches_its_golden_report(report, name, argv):
    _assert_matches_json(report(*argv), (GOLDEN / f"{name}.json").read_bytes())


@pytest.mark.parametrize("command", sorted(HANDLERS))
def test_every_subcommand_matches_its_golden_csv_report(report, command):
    golden = GOLDEN / f"{command}.csv"
    assert golden.exists(), f"no golden csv report for {command}"
    written, expected = report(command, suffix=".csv"), golden.read_bytes()
    if STAMP == _environment():
        assert written == expected
        return
    assert _csv_without_numbers(written) == _csv_without_numbers(expected)
    pytest.skip(f"numbers not compared: golden reports stamped {STAMP}, running {_environment()}")
