"""The error taxonomy, and with it the CLI's ``code=`` set, matches the code."""

import ast
from pathlib import Path

from phaseuq import errors

PACKAGE = Path(errors.__file__).resolve().parent


def _raised_names() -> set[str]:
    """Names of the exceptions some ``raise`` statement in the package raises."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_is_raised():
    codes = {
        name
        for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.PhaseUqError)
        and cls is not errors.PhaseUqError
    }
    assert len(codes) > 10
    assert sorted(codes - _raised_names()) == []
