"""Statement coverage of ``src/`` for a pytest run, with no dependency.

Run from the repository root:

    PYTHONPATH=tools:src python -m pytest -p linecov

While the tests run, a ``sys.settrace`` hook records the lines executed in
files under ``src/``. At the end the plugin prints every statement of
``src/`` that never ran, as ``path:line: text``, docstrings excluded. A
statement ran when any line of its own (a compound statement's header,
not its body) ran; one whose lines hold no code is not counted. A code
object stops being traced once each of its lines has run. Code run in a
child process (the demo tests) is not seen.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

from docstrings import is_docstring

SRC = Path(__file__).resolve().parent.parent / "src"
_ROOT = str(SRC)

_hits: dict[str, set[int]] = {}  # file -> lines that ran
_pending: dict = {}  # code object -> its lines not yet run


def _code_lines(code) -> set[int]:
    return {line for _, _, line in code.co_lines() if line is not None}


def _call(frame, event, arg):
    code = frame.f_code
    pending = _pending.get(code)
    if pending is None:
        filename = code.co_filename
        # Frames with no file name (built at run time, or met while the
        # interpreter shuts down) are skipped.
        if not filename or not filename.startswith(_ROOT):
            return None
        pending = _pending[code] = _code_lines(code)
    hits = _hits.setdefault(code.co_filename, set())
    hits.add(frame.f_lineno)
    pending.discard(frame.f_lineno)
    if not pending:
        return None

    def line(frame, event, arg):
        if event == "line":
            hits.add(frame.f_lineno)
            pending.discard(frame.f_lineno)
        return line

    return line


def _all_code(code):
    yield code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            yield from _all_code(const)


def statements(path: Path):
    """``(first line, lines)`` of each statement of ``path`` whose own
    lines hold code, docstrings excluded."""
    source = path.read_text(encoding="utf-8")
    executable = set()
    for code in _all_code(compile(source, str(path), "exec")):
        executable |= _code_lines(code)
    tree = ast.parse(source)
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if not isinstance(node, ast.stmt) or is_docstring(node, parent):
                continue
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            body = getattr(node, "body", None)
            last = body[0].lineno - 1 if body else node.end_lineno
            own = set(range(first, max(first, last) + 1)) & executable
            if own:
                yield first, own


def unrun():
    """``(path, line)`` of every statement of ``src/`` that never ran."""
    for path in sorted(SRC.rglob("*.py")):
        hits = _hits.get(str(path), set())
        for first, own in sorted(statements(path)):
            if not own & hits:
                yield path, first


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    missed = list(unrun())
    terminalreporter.section(f"statements of src/ never run: {len(missed)}")
    for path, line in missed:
        text = path.read_text(encoding="utf-8").splitlines()[line - 1].strip()
        terminalreporter.write_line(f"{path.relative_to(SRC.parent)}:{line}: {text}")


# Tracing starts on import, which ``-p linecov`` does before any conftest
# or test module imports the package.
sys.settrace(_call)
