"""The runtime is pure standard library: every module under src/gcindex
imports only from sys.stdlib_module_names or from gcindex itself.  And it
stays cheap to start: a command loads none of the introspection modules
behind `dataclasses`."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import gcindex

PACKAGE = Path(gcindex.__file__).parent


def _imports(path: Path):
    """(line, dotted module) for each import in the file; a relative import
    reads as the gcindex module it names (`from . import svg` in
    gcindex/ingest.py is gcindex.svg)."""
    package = ["gcindex", *path.parent.relative_to(PACKAGE).parts]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(package[:len(package) + 1 - node.level])
            for name in [node.module] if node.module else [a.name for a in node.names]:
                yield node.lineno, f"{base}.{name}"


def test_runtime_imports_only_stdlib_and_gcindex():
    files = sorted(PACKAGE.rglob("*.py"))
    assert PACKAGE / "engine.py" in files
    foreign = [
        f"{path.relative_to(PACKAGE)}:{line}: {module}"
        for path in files
        for line, module in _imports(path)
        if (top := module.split(".")[0]) != "gcindex" and top not in sys.stdlib_module_names
    ]
    assert foreign == []


def test_cli_lays_out_no_report_file():
    # Every csv, json and svg report file is laid out in gcindex.ingest.
    modules = {module for _, module in _imports(PACKAGE / "cli.py")}
    assert "gcindex.ingest" in modules
    assert [m for m in modules if m.split(".")[0] == "json" or m == "gcindex.svg"] == []


# Loaded by `import dataclasses`, and together about half the cost of
# starting a gcindex process before they were dropped.
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

FOOTPRINT_CHILD = """\
import contextlib, io, sys
before = set(sys.modules)
from gcindex.cli import main
from gcindex.data import BALKANS_CLASSES, BALKANS_PANEL, BALKANS_TREE, fixture_path
argv = ["compute", "--year", "2006", "--data", str(fixture_path(BALKANS_PANEL)),
        "--classes", str(fixture_path(BALKANS_CLASSES)), "--tree", str(fixture_path(BALKANS_TREE))]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(argv)
assert code == 0 and "2006,Slovenia,GCI,4.770000" in out.getvalue(), (code, out.getvalue())
print(" ".join(sorted(set(sys.modules) - before)))
"""


def test_compute_imports_no_introspection_modules():
    # The child compares with its own modules before the import, so what the
    # host's site preloads counts for neither side.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_CHILD],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "gcindex.cli" in loaded
    assert sorted(loaded & INTROSPECTION) == []
