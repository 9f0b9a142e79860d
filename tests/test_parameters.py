import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _nodes(kind, *dirs):
    for path in sorted(p for d in dirs for p in (ROOT / d).rglob("*.py")):
        yield from ((path.name, n) for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, kind))


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
    passed = set()
    for _, call in _nodes(ast.Call, "src", "tests", "perfbench"):
        name = getattr(call.func, "attr", getattr(call.func, "id", None))
        passed |= {(name, k.arg) for k in call.keywords} | {(name, i) for i in range(len(call.args))}
    never = []
    for module, fn in _nodes((ast.FunctionDef, ast.AsyncFunctionDef), "src/grushinlab"):
        args = [a.arg for a in fn.args.posonlyargs + fn.args.args]
        skip = int(bool(args) and args[0] in ("self", "cls"))
        first = len(args) - len(fn.args.defaults)
        keys = [(arg, (fn.name, i - skip)) for i, arg in enumerate(args) if i >= first]
        keys += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        never += [f"{module}:{fn.name}({arg})" for arg, at in keys if not {(fn.name, arg), at} & passed]
    assert not never, f"defaulted parameters that no call passes: {never}"


def test_defaulted_parameters_stay_pinned():
    # every option is a branch to test and a default to keep; adding one means
    # raising this pin and saying why in CHANGES.md
    count = 0
    for _, fn in _nodes((ast.FunctionDef, ast.AsyncFunctionDef), "src/grushinlab"):
        count += len(fn.args.defaults) + sum(d is not None for d in fn.args.kw_defaults)
    assert count == 40


def test_every_library_function_has_a_caller():
    # a private name that nothing in the library or its benchmark refers to,
    # or a public one that not even a test refers to, is dead code; a test
    # oracle belongs in its test.  A function's references to itself do not count.
    def counts(*dirs):
        return Counter(name for _, node in _nodes(ast.AST, *dirs) for name in _references(node))

    private = counts("src", "perfbench")
    public = private + counts("tests")
    uncalled = []
    for module, fn in _nodes((ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef), "src/grushinlab"):
        if fn.name.startswith("__") and fn.name.endswith("__"):
            continue
        own = Counter(name for node in ast.walk(fn) for name in _references(node))
        if (private if fn.name.startswith("_") else public)[fn.name] <= own[fn.name]:
            uncalled.append(f"{module}:{fn.name}")
    assert not uncalled, f"library functions that nothing calls, or only tests call: {uncalled}"
