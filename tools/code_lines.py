"""Line counts of ``src/scattersim/``, per file and in total.

Run from anywhere:

    python tools/code_lines.py

For each module it prints the ``wc -l`` count and the code lines: lines
holding a token other than a comment, with blank lines and docstrings
excluded. A docstring is what ``tools/linecov.py`` skips too (see
``tools/docstrings.py``).
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

from docstrings import is_docstring

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "scattersim"
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code, comments and docstrings excluded."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    tree = ast.parse(source)
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if is_docstring(node, parent):
                lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def counts() -> list[tuple[str, int, int]]:
    """``(file name, wc -l, code lines)`` of each module, by name."""
    rows = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        rows.append((path.name, source.count("\n"), code_lines(source)))
    return rows


def main() -> None:
    rows = counts()
    print(f"{'file':<18}{'wc -l':>7}{'code':>7}")
    for name, n, c in rows:
        print(f"{name:<18}{n:>7}{c:>7}")
    print(f"{'total':<18}{sum(r[1] for r in rows):>7,}{sum(r[2] for r in rows):>7,}")


if __name__ == "__main__":
    main()
