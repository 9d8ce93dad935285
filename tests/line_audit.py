"""Fail when Tier-1 leaves a statement of ``src/cswlp`` unrun.

Runs the Tier-1 suite (``tests`` and ``perfbench``) in this process
with a line tracer on every frame whose code lives in ``src/cswlp``,
threads included, then lists each statement of those modules that
fired no line event on any of its lines.  String statements, such as
docstrings, run no code, and the body of ``if __name__ == "__main__":``
runs only as a script, so neither is listed.  Code that the suite runs
in a child process is not seen.

    PYTHONPATH=src python tests/line_audit.py

Exits with pytest's status when the suite fails, 1 when a statement
went unrun, and 0 otherwise.  Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "cswlp"

# the lines that fired an event, by file; and each code object's local
# tracer, None outside src/cswlp and once all of its lines have fired
_hit: dict[Path, set[int]] = defaultdict(set)
_tracers: dict[object, object] = {}


@cache
def _resolved(filename: str) -> Path:
    return Path(os.path.realpath(filename))


def _tracer(code):
    path = _resolved(code.co_filename)
    # a function's first line, its def, fires no event when it is called
    left = {line for _, _, line in code.co_lines() if line is not None} - {code.co_firstlineno}
    if path.parent != SRC or not left:
        return None
    seen = _hit[path]

    def local(frame, event, arg):
        if event == "line":
            seen.add(frame.f_lineno)
            left.discard(frame.f_lineno)
            if not left:
                _tracers[code] = None
                return None
        return local

    return local


def _global(frame, event, arg):
    code = frame.f_code
    if code not in _tracers:
        _tracers[code] = _tracer(code)
    return _tracers[code]


def unrun(path: Path, hit: set[int]) -> list[tuple[int, str]]:
    """(line, first source line) of each statement in ``path`` none of
    whose lines is in ``hit``, string statements and the body of a
    __main__ guard aside."""
    source = path.read_text()
    lines = source.splitlines()
    nodes = list(ast.walk(ast.parse(source)))
    skipped = {
        id(inner)
        for node in nodes
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        for stmt in node.body
        for inner in ast.walk(stmt)
    }
    return sorted(
        (node.lineno, lines[node.lineno - 1].strip())
        for node in nodes
        if isinstance(node, ast.stmt) and id(node) not in skipped
        and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str))
        and not hit.intersection(range(node.lineno, node.end_lineno + 1))
    )


def main() -> int:
    threading.settrace(_global)
    sys.settrace(_global)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors", str(ROOT / "tests"), str(ROOT / "perfbench")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        return int(status)
    missed = [(path, line, text) for path in sorted(SRC.glob("*.py")) for line, text in unrun(path, _hit[path])]
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: never run: {text}")
    print(f"line audit: {len(missed)} statement(s) of src/cswlp never run by Tier-1")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
