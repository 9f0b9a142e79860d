"""The benchmark's traced run patches library attributes by name: installing
and removing its hooks must find every one of them and put each back."""

import importlib
import importlib.util
import types
from pathlib import Path

import numpy as np

import grushinlab

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# the modules perfbench/run.py puts in the library namespace
MODULES = ("linops", "core", "pseudoinverse", "perturbation", "pseudospectra", "traces", "bvp1d")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _library():
    lib = types.SimpleNamespace(package=grushinlab)
    for name in MODULES:
        setattr(lib, name, importlib.import_module(f"grushinlab.{name}"))
    lib.modules = [grushinlab] + [getattr(lib, name) for name in MODULES]
    return lib


def _attributes(lib):
    owners = lib.modules + [np.linalg, lib.linops.Contour, lib.traces.LoopFamily]
    return {owner: dict(vars(owner)) for owner in owners}


def test_tracer_hooks_install_and_restore():
    tracer_module = _load_tracer()
    lib = _library()
    before = _attributes(lib)
    with tracer_module.installed(tracer_module.Tracer(), lib):
        for module_name, functions in tracer_module.SPANS.items():
            module = getattr(lib, module_name)
            for fname in functions:
                assert getattr(module, fname) is not before[module][fname]
        for kernel in tracer_module.KERNELS:
            assert getattr(np.linalg, kernel) is not before[np.linalg][kernel]
        assert lib.linops.Contour.quadrature is not before[lib.linops.Contour]["quadrature"]
        assert lib.traces.LoopFamily.system is not before[lib.traces.LoopFamily]["system"]
    for owner, attributes in before.items():
        after = dict(vars(owner))
        assert after.keys() == attributes.keys()
        for attr, value in attributes.items():
            assert after[attr] is value, f"{owner.__name__}.{attr} not restored"
