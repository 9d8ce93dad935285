"""Fail when Tier-1 leaves a statement of ``src/cswlp`` unrun, or an
``if`` test that went only one way.

Runs the Tier-1 suite (``tests`` and ``perfbench``) in this process
with a line tracer on every frame whose code lives in ``src/cswlp``,
threads included, then lists each statement of those modules that
fired no line event on any of its lines.  String statements, such as
docstrings, run no code, and the body of ``if __name__ == "__main__":``
runs only as a script, so neither is listed.  The tracer also records,
for each ``if``, where its frame went after the test: into the first
statement of its body (true), or anywhere else, the frame's return
included (false).  Every ``if`` whose test went one way only is listed;
the ``__main__`` guard is exempt, and so is an ``if`` whose body starts
on its test's line, as line events cannot tell its two ways apart.
Code that the suite runs in a child process is not seen.

    PYTHONPATH=src python tests/line_audit.py

Exits with pytest's status when the suite fails, 1 when a statement
went unrun or an ``if`` one way, and 0 otherwise.  Its name keeps
pytest from collecting it.
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

# the lines that fired an event, by file; the ways each `if` went
# (True into its body), by file and the `if`'s line; and each code
# object's maker of frame tracers, None outside src/cswlp and once all of
# its lines have fired and each of its `if` tests has gone both ways
_hit: dict[Path, set[int]] = defaultdict(set)
_ways: dict[Path, defaultdict[int, set[bool]]] = defaultdict(lambda: defaultdict(set))
_tracers: dict[object, object] = {}


def _is_main_guard(node) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


@cache
def _branches(path: Path) -> dict[int, tuple[range, range]]:
    """The lines of the test and of the body's first statement of each
    `if` in ``path``, by the `if`'s line, the exempt ones aside."""
    return {
        node.lineno: (range(node.test.lineno, node.test.end_lineno + 1),
                      range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.If) and not _is_main_guard(node) and node.body[0].lineno > node.test.end_lineno
    }


@cache
def _resolved(filename: str) -> Path:
    return Path(os.path.realpath(filename))


def _tracer(code):
    path = _resolved(code.co_filename)
    if path.parent != SRC:
        return None
    lines = {line for _, _, line in code.co_lines() if line is not None}
    # a function's first line, its def, fires no event when it is called
    left = lines - {code.co_firstlineno}
    branches, ways = _branches(path), _ways[path]
    # each test line of this code's `if`s, mapped to its `if`
    tests = {line: stmt for stmt, (test, _) in branches.items() for line in test if line in lines}
    pending = {stmt for stmt in tests.values() if len(ways[stmt]) < 2}
    if not left and not pending:
        return None
    seen = _hit[path]

    def frame_tracer():
        last = None  # this frame's previous line, unset by an exception

        def local(frame, event, arg):
            nonlocal last
            if event == "exception":
                last = None
                return local
            line = frame.f_lineno if event == "line" else None
            stmt = tests.get(last)
            if stmt is not None and line not in branches[stmt][0]:
                ways[stmt].add(line in branches[stmt][1])
                if len(ways[stmt]) == 2:
                    pending.discard(stmt)
            if event == "line":
                seen.add(line)
                left.discard(line)
                last = line
            if not left and not pending:
                _tracers[code] = None
                return None
            return local

        return local

    return frame_tracer


def _global(frame, event, arg):
    code = frame.f_code
    if code not in _tracers:
        _tracers[code] = _tracer(code)
    make = _tracers[code]
    return None if make is None else make()


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
        if _is_main_guard(node)
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
    paths = sorted(SRC.glob("*.py"))
    missed = [(path, line, text) for path in paths for line, text in unrun(path, _hit[path])]
    for path, line, text in missed:
        print(f"{path.relative_to(ROOT)}:{line}: never run: {text}")
    one_way = [(path, stmt, way) for path in paths for stmt in _branches(path)
               if len(way := _ways[path][stmt]) == 1]
    for path, stmt, way in one_way:
        text = path.read_text().splitlines()[stmt - 1].strip()
        print(f"{path.relative_to(ROOT)}:{stmt}: test only {way.pop()}: {text}")
    print(f"line audit: {len(missed)} statement(s) of src/cswlp never run by Tier-1, "
          f"{len(one_way)} if test(s) that went one way only")
    return 1 if missed or one_way else 0


if __name__ == "__main__":
    sys.exit(main())
