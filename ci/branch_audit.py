"""Audit which lines and condition sides of ``src/vesprod`` tier-1 reaches.

Run from anywhere, with the test extra installed and no coverage tool:

    python ci/branch_audit.py

It runs the tier-1 suite (``tests/``) in this process under ``sys.settrace``
and ``threading.settrace``, and records, for every frame whose code is a
module of ``src/vesprod``, the lines it runs and the arcs from one line to
the next.  It then exits 1, naming each finding, where

- a statement of a function body (or of a nested function's) never runs, or
- an ``if`` or ``while`` never leaves its test for its body, or never leaves
  it the other way (the ``else`` branch, or the statement after the
  condition, a loop's header, or the function's return),

outside ``ALLOWED`` below; else it exits 0.  An arc that follows an
exception is not counted, so a test that raises does not read as skipped.

It reads coverage only: a failing test is reported on stderr but does not
change the verdict, because tier-1's own CI steps gate the tests, and its
timing gates run slower under a tracer.  Its unit is the line, so it cannot
see a condition whose two outcomes leave from the same line to the same
line: the short-circuit of ``and``, ``or`` and a chained comparison within
one line (``0.0 < b < 1.0`` stops at ``0.0 < b`` only where b is not
positive), or the two sides of a conditional expression.  Lines that only a
child process runs (the numpy-free children of some tests) are not seen.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vesprod"

#: what no tier-1 input reaches by design: per module, the functions whose
#: bodies, and the module-level ``if`` tests whose bodies, are not audited
ALLOWED = {
    # the installed console script's entry point, which CI's "Installed console
    # script" step runs; tier-1 calls main() in process
    "cli.py": {"functions": {"console_main"}, "module_ifs": {'__name__ == "__main__"'}},
}

_EXCEPTION = 0  # the source of the first arc after an exception
#: code that holds no statement, so no condition: its arcs are not kept
_EXPRESSIONS = {"<genexpr>", "<listcomp>", "<dictcomp>", "<setcomp>", "<lambda>"}


def _trace(files: set[str], lines: set[tuple[str, int]], arcs: set[tuple[str, int, int]]):
    """A global trace function recording, for the frames whose code is in
    `files`, each (file, line) they run in `lines`, and each (file, from line,
    to line) of a function, class or module body in `arcs`; a frame's entry
    and its return are the negative of its first line."""

    def call(frame, event, arg):
        code = frame.f_code
        filename = code.co_filename
        if filename not in files:
            return None
        keep = code.co_name not in _EXPRESSIONS
        entry = last = -code.co_firstlineno

        def local(frame, event, arg):
            nonlocal last
            if event == "line":
                lines.add((filename, frame.f_lineno))
                if keep:
                    arcs.add((filename, last, frame.f_lineno))
                last = frame.f_lineno
            elif event == "exception":
                last = _EXCEPTION
            elif event == "return" and keep:
                arcs.add((filename, last, entry))
            return local

        return local

    return call


def _run_tier1(files: set[str]):
    """Tier-1's exit code, lines and arcs, traced from before the package is imported."""
    import pytest

    lines: set[tuple[str, int]] = set()
    arcs: set[tuple[str, int, int]] = set()
    tracer = _trace(files, lines, arcs)
    src = str(PACKAGE.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    import vesprod
    if Path(vesprod.__file__).resolve().parent != PACKAGE:
        raise SystemExit(f"tier-1 imported vesprod from {vesprod.__file__}, not from {PACKAGE}")
    return int(code), lines, arcs


def _code_lines(source: str, filename: str) -> set[int]:
    """The lines that some instruction of the module's code objects is on."""
    lines: set[int] = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _findings(path: Path, ran: set[int], arcs: set[tuple[int, int]]) -> list[str]:
    """What `path`'s audited statements and conditions never reached."""
    source = path.read_text(encoding="utf-8")
    code_lines = _code_lines(source, str(path))
    allowed = ALLOWED.get(path.name, {})
    name = path.relative_to(ROOT)
    found: list[str] = []

    def block(stmts: list[ast.stmt], in_function: bool) -> None:
        for stmt in stmts:
            visit(stmt, in_function)

    def visit(stmt: ast.stmt, in_function: bool) -> None:
        if in_function and stmt.lineno in code_lines and stmt.lineno not in ran:
            found.append(f"{name}:{stmt.lineno}: never run")
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if stmt.name not in allowed.get("functions", ()):
                docstring = ast.get_docstring(stmt) is not None
                block(stmt.body[1:] if docstring else stmt.body, True)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            test = ast.get_source_segment(source, stmt.test)
            if not in_function and test in allowed.get("module_ifs", ()):
                return
            head = range(stmt.lineno, stmt.test.end_lineno + 1)
            body = range(stmt.body[0].lineno, stmt.body[-1].end_lineno + 1)
            left = {to for start, to in arcs if start in head and to not in head}
            kind = type(stmt).__name__.lower()
            if not any(to in body for to in left):
                found.append(f"{name}:{stmt.lineno}: `{kind} {test}` never runs its body")
            if all(to in body for to in left):
                found.append(f"{name}:{stmt.lineno}: `{kind} {test}` never skips its body")
        for field in ("body", "orelse", "finalbody"):
            block(getattr(stmt, field, []), in_function)
        for handler in getattr(stmt, "handlers", []):
            block(handler.body, in_function)
        for case in getattr(stmt, "cases", []):
            block(case.body, in_function)

    block(ast.parse(source).body, False)
    return found


def main() -> int:
    modules = sorted(PACKAGE.glob("*.py"))
    files = {str(path) for path in modules}
    code, lines, arcs = _run_tier1(files)
    if code != 0:
        print(f"branch audit: tier-1 exited {code}; its own CI steps gate the tests",
              file=sys.stderr)
    found: list[str] = []
    for path in modules:
        ran = {line for filename, line in lines if filename == str(path)}
        mine = {(start, to) for filename, start, to in arcs if filename == str(path)}
        found += _findings(path, ran, mine)
    for line in found:
        print(line)
    print(f"branch audit: {len(found)} finding(s) in {len(modules)} modules of "
          f"{PACKAGE.relative_to(ROOT)}, outside the allowlist")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
