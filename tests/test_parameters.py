import ast
from collections import Counter
from pathlib import Path

import grushinlab

ROOT = Path(__file__).resolve().parents[1]


def _nodes(kind, *paths):
    """The nodes of one kind in the named files and in every module under the named directories."""
    files = sorted(f for p in paths for f in ([ROOT / p] if p.endswith(".py") else (ROOT / p).rglob("*.py")))
    for path in files:
        yield from ((path.name, n) for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, kind))


def _callee(call):
    return getattr(call.func, "attr", getattr(call.func, "id", None))


def _passed(*paths):
    """(function name, keyword) and (function name, position) of every argument a call passes."""
    passed = set()
    for _, call in _nodes(ast.Call, *paths):
        name = _callee(call)
        passed |= {(name, k.arg) for k in call.keywords} | {(name, i) for i in range(len(call.args))}
    return passed


def _unpassed(fn, passed):
    """The defaulted parameters of ``fn`` that no argument in ``passed`` sets."""
    args = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    skip = int(bool(args) and args[0] in ("self", "cls"))
    first = len(args) - len(fn.args.defaults)
    keys = [(arg, (fn.name, i - skip)) for i, arg in enumerate(args) if i >= first]
    keys += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return [arg for arg, at in keys if not {(fn.name, arg), at} & passed]


def _references(node):
    """The names a node refers to: a name, an attribute or an imported name."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.alias):
        return [node.name.rpartition(".")[2]]
    return []


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call in the library, its tests or its benchmark
    # overrides is a constant: it belongs in the body, not in the signature
    passed = _passed("src", "tests", "perfbench")
    never = [f"{module}:{fn.name}({arg})"
             for module, fn in _nodes((ast.FunctionDef, ast.AsyncFunctionDef), "src/grushinlab")
             for arg in _unpassed(fn, passed)]
    assert not never, f"defaulted parameters that no call passes: {never}"


def test_entry_points_pass_every_option_they_reach():
    # a default of a function that the CLI or the benchmark calls, which only a
    # test overrides, is an option kept for tests alone: it belongs in a
    # constant.  The public API (grushinlab.__all__ and its classes' methods) keeps its options.
    entry = {_callee(call) for _, call in _nodes(ast.Call, "src/grushinlab/cli.py", "perfbench")}
    passed = _passed("src", "perfbench")
    unset = []
    for path in sorted((ROOT / "src/grushinlab").glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if getattr(top, "name", None) in grushinlab.__all__:
                continue
            fns = top.body if isinstance(top, ast.ClassDef) else [top]
            unset += [f"{path.name}:{fn.name}({arg})" for fn in fns
                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in entry
                      for arg in _unpassed(fn, passed)]
    assert not unset, f"options of CLI and benchmark entry points that only tests pass: {unset}"


def test_defaulted_parameters_stay_pinned():
    # every option is a branch to test and a default to keep; adding one means
    # raising this pin and saying why in CHANGES.md
    count = 0
    for _, fn in _nodes((ast.FunctionDef, ast.AsyncFunctionDef), "src/grushinlab"):
        count += len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)
    assert count == 29


def test_every_library_function_has_a_caller():
    # a private name that nothing in the library or its benchmark refers to,
    # or a public one that not even a test refers to, is dead code; a test
    # oracle belongs in its test.  A top-level public name outside __all__ also
    # needs the library, its benchmark or an acceptance test to reach it: one
    # that only its own tests call is test code.  A function's references to
    # itself do not count.
    def counts(*paths):
        return Counter(name for _, node in _nodes(ast.AST, *paths) for name in _references(node))

    private = counts("src", "perfbench")
    reached = private + counts("tests/test_acceptance.py")
    public = private + counts("tests")
    top = {(path.name, node.name) for path in (ROOT / "src/grushinlab").glob("*.py")
           for node in ast.parse(path.read_text()).body
           if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    uncalled = []
    for module, fn in _nodes((ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef), "src/grushinlab"):
        if fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        if fn.name.startswith("_"):
            refs = private
        elif (module, fn.name) in top and fn.name not in grushinlab.__all__:
            refs = reached
        else:
            refs = public
        own = Counter(name for node in ast.walk(fn) for name in _references(node))
        if refs[fn.name] <= own[fn.name]:
            uncalled.append(f"{module}:{fn.name}")
    assert not uncalled, f"library functions that nothing calls, or only tests call: {uncalled}"
