"""Benchmark of grushin-lab's contour counts, 1-D boundary reduction and
pseudospectrum grids.

Usage, from the repository root:

    python3 perfbench/run.py --workload contour-count --seed 1 --seconds 40 --trace 0

One process, one client, operations back to back (a closed loop), BLAS
pinned to one thread.  The workload's inputs and references are made from
the seed first.  Then whole rounds run for about ``--seconds``, each after its
own timed set-up (import, construction, one warm-up call per layer), and
every output is checked.  A short fixed numpy kernel (``yardstick``) runs
before each set-up and each operation, and each round's times are scaled by
the kernel's reference time over its mean time in that round, to take out
the drift of a shared machine.  ``--trace 1`` alternates untraced and traced
rounds after a single set-up and reports the per-layer metrics instead.  The last line of
standard output is the result as JSON; a fuller record, stamped with the
environment, goes to perfbench/out/.
"""

import os

# Before numpy loads: one BLAS thread, so timings and CPU time are not
# shared out over a thread pool whose size depends on the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import importlib
import json
import platform
import resource
import statistics
import sys
import time
import types
from pathlib import Path

import numpy as np

import yardstick
from tracer import LAYER_METRICS, Tracer, installed
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MODULES = ("linops", "core", "pseudoinverse", "perturbation", "pseudospectra", "traces", "bvp1d")


def import_library():
    """Import grushinlab afresh from ``src/`` of this checkout."""
    for name in [n for n in sys.modules if n == "grushinlab" or n.startswith("grushinlab.")]:
        del sys.modules[name]
    package = importlib.import_module("grushinlab")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "grushinlab":
        raise ImportError(f"grushinlab imported from {package.__file__}, not from src/")
    lib = types.SimpleNamespace(package=package)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"grushinlab.{name}"))
    lib.modules = [package] + [getattr(lib, name) for name in MODULES]
    return lib


def set_up(workload):
    """Import the library, build the workload's objects and warm up; timed."""
    t0 = time.perf_counter()
    lib = import_library()
    workload.setup(lib)
    ops = workload.operations(lib)
    return lib, ops, time.perf_counter() - t0


def new_phase() -> dict:
    return {"walls": [], "cpus": [], "setups": [], "scaled": {"walls": [], "cpus": [], "setups": []},
            "operations": [], "slices": [], "attempted": 0, "failed": 0, "problems": []}


def run_round(ops, phase: dict, slices: list | None = None) -> None:
    """Run and check one round of operations; only the operations are timed.

    With ``slices``, a yardstick slice runs before every operation and its
    wall and CPU time are appended there.
    """
    times = []  # wall and CPU time per operation
    for label, call, check in ops:
        if slices is not None:
            slices.append(yardstick.measure())
        phase["attempted"] += 1
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            out = call()
        except Exception as exc:  # a failed operation is counted, the run goes on
            out, error = None, exc
        else:
            error = None
        times.append((time.perf_counter() - wall0, time.process_time() - cpu0))
        if error is not None:
            phase["failed"] += 1
            phase["problems"].append(f"FAILED {label}: {type(error).__name__}: {error}")
            continue
        problem = check(out)
        if problem:
            phase["problems"].append(f"WRONG {label}: {problem}")
    phase["walls"].append(sum(t[0] for t in times))
    phase["cpus"].append(sum(t[1] for t in times))
    phase["operations"].append(times)


def scale_round(phase: dict, slices: list) -> None:
    """Append the last round's set-up, wall and CPU time at the yardstick's
    reference speed: each times the reference slice time over the mean time
    of the slices run with that round."""
    wall = yardstick.REFERENCE_WALL_S / statistics.fmean(s[0] for s in slices)
    cpu = yardstick.REFERENCE_CPU_S / statistics.fmean(s[1] for s in slices)
    phase["slices"].append(slices)
    phase["scaled"]["setups"].append(phase["setups"][-1] * wall)
    phase["scaled"]["walls"].append(phase["walls"][-1] * wall)
    phase["scaled"]["cpus"].append(phase["cpus"][-1] * cpu)


def repeat(step, seconds: float) -> None:
    """Call ``step`` until the next call would end after ``seconds`` (at least once)."""
    begin = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        if (time.perf_counter() - begin) * (done + 1) / done > seconds:
            return


def blas_threads():
    """Threads of the OpenBLAS that numpy loaded, or the pinned setting if unknown."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_sha():
    """The checked-out commit, read from .git without running git; None outside a repository."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "grushinlab" / "__init__.py").is_file():
        print(f"error: no grushinlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload](args.seed)   # inputs and references, numpy only
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment()}
    if args.trace:
        # untraced and traced rounds alternate, so both see the same machine load
        lib, plain_ops, _ = set_up(workload)
        tracer = Tracer()
        workload.instrument(lib, tracer)
        traced_ops = workload.operations(lib)
        tracer.counts.clear()
        plain, traced = new_phase(), new_phase()

        def step():
            run_round(plain_ops, plain)
            with installed(tracer, lib):
                run_round(traced_ops, traced)

        repeat(step, args.seconds)
        metrics = tracer.layer_metrics(len(traced["walls"]))
        metrics["trace.overhead_s"] = statistics.median(
            t - p for t, p in zip(traced["walls"], plain["walls"])
        )
        units = {name: unit for name, unit, _ in LAYER_METRICS}
        phases = {"untraced": plain, "traced": traced}
        record["span_count"] = len(tracer.name)
    else:
        # a fresh set-up before every round spreads its samples over the run
        plain = new_phase()
        yardstick.measure()  # warm-up slice, not kept

        def step():
            slices = [yardstick.measure()]
            _, ops, seconds = set_up(workload)
            plain["setups"].append(seconds)
            run_round(ops, plain, slices)
            scale_round(plain, slices)

        repeat(step, args.seconds)
        metrics = {
            "wall_s": statistics.median(plain["scaled"]["walls"]),
            "cpu_s": statistics.median(plain["scaled"]["cpus"]),
            "setup_s": statistics.median(plain["scaled"]["setups"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["unscaled"] = {
            "wall_s": statistics.median(plain["walls"]),
            "cpu_s": statistics.median(plain["cpus"]),
            "setup_s": statistics.median(plain["setups"]),
        }
        units = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
        phases = {"untraced": plain}

    attempted = sum(p["attempted"] for p in phases.values())
    failed = sum(p["failed"] for p in phases.values())
    problems = [line for p in phases.values() for line in p["problems"]]
    result = {
        "correct": not any(line.startswith("WRONG") for line in problems),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record.update(phases=phases, result=result)

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.save(OUT / f"{stem}-spans.npz")
    for line in problems[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "workload": args.workload,
                      "rounds": {k: len(p["walls"]) for k, p in phases.items()},
                      "attempted": attempted, "failed": failed}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
