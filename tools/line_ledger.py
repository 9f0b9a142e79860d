"""The line ledger: the statements of ``src/grushinlab`` that Tier-1 never runs.

Run from anywhere as ``python tools/line_ledger.py``.  It runs the Tier-1
suite (``pytest -q --continue-on-collection-errors`` in the repository root)
under a ``sys.settrace`` line tracer, then prints one ``path:line: source``
line per statement no test ran, and their count last.  Docstrings and import
statements are not counted.  A statement counts as run when any line of it
ran, up to the first statement of its body.  The exit code is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "grushinlab"


def statements(path: Path) -> dict[int, range]:
    """Each counted statement of the module, by first line, with its own lines."""
    lines = {}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str):
            continue
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
        lines[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
    return lines


def main() -> int:
    import pytest

    ran: dict[str, set[int]] = {}
    prefix = str(PACKAGE) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set()).add(frame.f_lineno)
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider", str(ROOT)])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        hit = ran.get(str(path), set())
        for first, own in sorted(statements(path).items()):
            if hit.isdisjoint(own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source[first - 1].strip()}")
    print(f"{missed} statements never run")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
