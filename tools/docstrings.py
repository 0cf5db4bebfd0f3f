"""The docstring rule that ``linecov.py`` and ``code_lines.py`` share: a
docstring is a string expression that opens a module, class or function
body."""

from __future__ import annotations

import ast


def is_docstring(node, parent) -> bool:
    """Whether ``node``, a child of ``parent``, is ``parent``'s docstring."""
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and parent.body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )
