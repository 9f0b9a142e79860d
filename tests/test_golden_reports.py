"""Committed reports the CLI must write again byte for byte.  They hold only
integers, a bool and the configuration, so they do not depend on the BLAS."""

from pathlib import Path

import pytest

from grushinlab.cli import run

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "name, argv",
    [
        ("bvp-trace", ["bvp-trace"]),
        ("bvp-trace-harmonic", ["bvp-trace", "--potential", "harmonic"]),
        ("bvp-trace-well", ["bvp-trace", "--potential", "well"]),
    ],
)
def test_report_matches_golden_bytes(tmp_path, monkeypatch, name, argv):
    monkeypatch.delenv("GRUSHIN_SEED", raising=False)
    out = tmp_path / f"{name}.json"
    assert run([*argv, "--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
