"""The runtime is pure standard library: every module under src/gcindex
imports only from sys.stdlib_module_names or from gcindex itself."""

import ast
import sys
from pathlib import Path

import gcindex

PACKAGE = Path(gcindex.__file__).parent


def _imports(path: Path):
    """(line, top-level module) for each absolute import in the file;
    relative imports stay inside gcindex and are skipped."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_runtime_imports_only_stdlib_and_gcindex():
    files = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "engine.py" in files
    foreign = [
        f"{path.relative_to(PACKAGE)}:{line}: {module}"
        for path in files
        for line, module in _imports(path)
        if module != "gcindex" and module not in sys.stdlib_module_names
    ]
    assert foreign == []
