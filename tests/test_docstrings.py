"""Docstrings print as written: ``help()`` shows no control character."""

import ast
import pathlib

import artpta


def _docstrings():
    """(where, docstring) for the module, every class and every function or
    method of each ``artpta`` module."""
    for path in sorted(pathlib.Path(artpta.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                doc = ast.get_docstring(node, clean=False)
                if doc is not None:
                    yield f"{path.stem}.{getattr(node, 'name', '<module>')}", doc


def test_no_docstring_holds_a_control_character():
    # A C0 control character other than newline, such as an escape written
    # in a non-raw string (``\x1c``), prints as itself and ``str.split()``
    # takes it for whitespace.
    docs = list(_docstrings())
    assert len(docs) > 100
    assert [where for where, doc in docs if any(c < " " and c != "\n" for c in doc)] == []
