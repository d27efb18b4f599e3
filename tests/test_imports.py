"""Which modules each phaseuq module imports, read from its source with ast."""

import ast
from pathlib import Path

import phaseuq

SRC = Path(phaseuq.__file__).parent


def imported(path: Path) -> set[str]:
    """Every module a source file imports, at any depth; phaseuq's own as phaseuq.<name>."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level:
            # from .mod import x names phaseuq.mod; from . import x names phaseuq.x
            names.update(f"phaseuq.{node.module or alias.name}" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def test_import_graph():
    graph = {path.stem: imported(path) for path in sorted(SRC.glob("*.py"))}

    def own(module):
        return {n.split(".")[1] for n in graph[module] if n.split(".")[0] == "phaseuq"}

    assert own("pipeline") >= {"grid", "learner", "uqstats"}  # relative imports are read
    with_scipy = [m for m, names in graph.items() if any(n.split(".")[0] == "scipy" for n in names)]
    assert not with_scipy, f"{with_scipy} import scipy"
    for module in ("uqstats", "grid"):
        assert own(module) <= {"errors"}, f"{module} imports {own(module)}"
    assert "grid" not in own("learner")
