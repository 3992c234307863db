#!/usr/bin/env python3
"""The statements of `src/foilrl` that a pytest run never executes.

Runs pytest in this process under `sys.settrace`, with every argument
passed on to pytest, and records each line executed in a frame whose code
lives in this checkout's `src/foilrl`. Then it parses every module there
and prints, per module, the statements none of whose lines ran:

    python3 scripts/line_coverage.py -q -k "not acceptance"

A statement counts as run when a line of its own ran: for a compound
statement (`if`, `for`, `def`, ...) its header, for an `except` clause the
`except` line, or any statement nested in it. Docstrings, `...`, `pass`
and `global` declarations raise no line event of their own and are never
listed. Code run in a child
process (tests that start the CLI with `subprocess`) is not seen. Tracing
roughly doubles the run time of the suite.

The exit code is pytest's. Uses the standard library and pytest only, and
writes nothing but what the tests themselves write.
"""
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "foilrl"
sys.path.insert(0, str(ROOT / "src"))

import pytest  # noqa: E402

_PREFIX = str(SRC) + os.sep


def _trace_lines(hits: dict[str, set[int]]):
    """A `sys.settrace` function that adds each line run under `SRC` to `hits[file]`."""

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(_PREFIX):
            return None
        lines = hits.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local_trace(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local_trace

        return local_trace

    return global_trace


def _own_lines(node: ast.AST) -> range:
    """The lines that belong to `node` itself and to none of its nested statements."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(start, body[0].lineno)
    return range(start, node.end_lineno + 1)


def _is_inert(node: ast.AST) -> bool:
    """A docstring, `...`, `pass`, `global` or `nonlocal`: no line event marks that it ran."""
    return (isinstance(node, (ast.Pass, ast.Global, ast.Nonlocal))
            or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant))


def never_run(source: str, ran: set[int]) -> list[ast.AST]:
    """The statements and `except` clauses of `source` none of whose lines are in `ran`."""
    missed = []

    def visit(nodes) -> bool:
        """Whether any of `nodes` ran; appends those that did not to `missed`."""
        any_ran = False
        for node in nodes:
            if _is_inert(node):
                continue
            children = [child for field in ("body", "orelse", "finalbody", "handlers")
                        for child in getattr(node, field, None) or ()
                        if isinstance(child, (ast.stmt, ast.excepthandler))]
            for case in getattr(node, "cases", ()):  # match statements
                children += case.body
            nested_ran = visit(children)
            if nested_ran or any(line in ran for line in _own_lines(node)):
                any_ran = True
            else:
                missed.append(node)
        return any_ran

    visit(ast.parse(source).body)
    return sorted(missed, key=lambda node: node.lineno)


def _spans(nodes: list[ast.AST]) -> str:
    """Line spans such as `174-175, 210`; a statement spans its own lines."""
    spans = []
    for node in nodes:
        own = _own_lines(node)
        first, last = own.start, own.stop - 1
        if spans and first <= spans[-1][1] + 1:
            spans[-1][1] = max(spans[-1][1], last)
        else:
            spans.append([first, last])
    return ", ".join(f"{a}-{b}" if b > a else str(a) for a, b in spans)


def main() -> int:
    hits: dict[str, set[int]] = {}
    tracer = _trace_lines(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(sys.argv[1:])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    foilrl = sys.modules.get("foilrl")
    if foilrl is None or not str(Path(foilrl.__file__).resolve()).startswith(_PREFIX):
        print(f"foilrl was not imported from {SRC}; nothing to report", file=sys.stderr)
        return 2
    total, modules = 0, 0
    print()
    for path in sorted(SRC.glob("*.py")):
        missed = never_run(path.read_text(), hits.get(str(path), set()))
        if missed:
            print(f"{path.relative_to(ROOT)}: {len(missed)} never ran: {_spans(missed)}")
            total, modules = total + len(missed), modules + 1
    print(f"{total} statements in {modules} modules never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
