import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _nodes(kind, *dirs):
    for path in sorted(p for d in dirs for p in (ROOT / d).rglob("*.py")):
        yield from ((path.name, n) for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, kind))


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
