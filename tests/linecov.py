"""Statement coverage of ``src/cbmkit`` under the tier-1 tests, from the
standard library's ``sys.settrace`` alone.

Run from the repository root, with the tier-1 suite's arguments if any:

    PYTHONPATH=src python tests/linecov.py [pytest arguments]

pytest runs in this process with a line tracer on every frame whose code
comes from ``src/cbmkit``.  A statement is executable where the compiler
gave its own lines (a compound statement's header, a simple statement's
whole extent) bytecode, and executed where one of those lines reported a
line event.  Every statement that no test executed is listed, with its
function and its text, on stdout and, when ``GITHUB_STEP_SUMMARY`` names a
file, in that job summary; so is an ``ALLOWED`` entry that the run no
longer needs.  The exit status is 1 when the tests fail or when an
unexecuted statement is not in ``ALLOWED``; 0 otherwise.
"""

from __future__ import annotations

import ast
import functools
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cbmkit"

# Statements the tier-1 tests may leave unexecuted, keyed by the function
# that holds them ("module.qualified_name", "module" at module level) and
# the statement's first line, stripped; one reason each.
ALLOWED = {
    ("cli", "sys.exit(main())"):
        "the __main__ guard runs only in a child process (`python -m cbmkit.cli`), "
        "which the tracer does not follow",
    **{("estimators._search", text):
       "the exhaustion of 200 polish steps: every tier-1 search meets its tolerance or "
       "narrows its bracket to float resolution long before"
       for text in ('trace["iterations"] = iteration', "if abs(fx) <= tol:", "return x",
                    'raise NonConvergenceError("root refinement stalled before reaching '
                    'tolerance")')},
}


def _own_lines(node: ast.stmt) -> range:
    """The lines that belong to a statement itself: a compound statement's
    header (decorators included) up to its first nested statement, a
    simple statement's whole extent."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    nested = [child.lineno for field in ("body", "orelse", "finalbody", "handlers", "cases")
              for child in getattr(node, field, []) if hasattr(child, "lineno")]
    return range(first, (min(nested) if nested else node.end_lineno + 1))


def _code_lines(code) -> set:
    """Every line that carries bytecode in a code object and the code
    objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list:
    """(own lines, function, text) of every executable statement in a
    module of the package: its function is "module.qualified_name", or the
    module's name at module level."""
    source = path.read_text(encoding="utf-8")
    executable = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                lines = _own_lines(child)
                if executable.intersection(lines):
                    found.append((lines, ".".join(scope), text[child.lineno - 1].strip()))
            inner = scope + [child.name] if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) else scope
            visit(child, inner)

    visit(ast.parse(source), [path.stem])
    return found


def _tracer(executed: dict):
    """A trace function that adds every line event of the package's code
    to ``executed``, a set of lines per absolute file path."""
    prefix = str(PACKAGE) + os.sep

    @functools.lru_cache(maxsize=None)
    def lines_of(filename: str):
        path = os.path.abspath(filename)
        return executed.setdefault(path, set()) if path.startswith(prefix) else None

    def call(frame, event, arg):
        lines = lines_of(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return call


def unexecuted(executed: dict) -> list:
    """(path, line, function, text) of every statement that no traced line
    reached."""
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        reached = executed.get(str(path), set())
        missing += [(path.relative_to(ROOT), lines.start, function, text)
                    for lines, function, text in statements(path)
                    if not reached.intersection(lines)]
    return missing


def report(missing: list) -> tuple:
    """The report's lines, and whether every unexecuted statement is
    allowed."""
    stale = sorted(set(ALLOWED) - {(function, text) for _, _, function, text in missing})
    lines = ["### Statements of src/cbmkit that no tier-1 test executes", "",
             "| where | function | statement | reason |", "|---|---|---|---|"]
    for path, line, function, text in missing:
        reason = ALLOWED.get((function, text), "**not allowed**")
        lines.append(f"| `{path}:{line}` | `{function}` | `{text}` | {reason} |")
    lines += [f"- allowed, but executed: `{function}`: `{text}`" for function, text in stale]
    ok = all((function, text) in ALLOWED for _, _, function, text in missing)
    lines += ["", f"{len(missing)} unexecuted, " + ("all allowed" if ok else "NOT all allowed")]
    return lines, ok


def main(argv: list) -> int:
    executed = {}
    trace = _tracer(executed)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        import pytest

        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    lines, ok = report(unexecuted(executed))
    print("\n".join(lines))
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a", encoding="utf-8") as out:
            out.write("\n".join(lines) + "\n")
    return 0 if code == 0 and ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
