"""The runtime is pure standard library: every module under src/gcindex
imports only from sys.stdlib_module_names or from gcindex itself.  And it
stays cheap to start: no command loads any of the introspection modules
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

# Each command runs on the bundled panel in a fresh process; the child
# prints the modules it loaded, compared with its own before the import, so
# what the host's site preloads counts for neither side.
FOOTPRINT_CHILD = """\
import contextlib, io, sys
before = set(sys.modules)
from gcindex.cli import main
from gcindex.data import BALKANS_CLASSES, BALKANS_PANEL, BALKANS_TREE, fixture_path
argv, expected = sys.argv[1:-1], sys.argv[-1]
if argv[0] != "fixture":
    argv += ["--data", str(fixture_path(BALKANS_PANEL)), "--classes",
             str(fixture_path(BALKANS_CLASSES)), "--tree", str(fixture_path(BALKANS_TREE))]
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = main(argv)
assert code == 0 and expected in out.getvalue(), (code, out.getvalue())
print(" ".join(sorted(set(sys.modules) - before)))
"""

# (argv, a line of its stdout) for each of the nine commands
COMMANDS = [
    (["compute", "--year", "2006"], "2006,Slovenia,GCI,4.770000"),
    (["rank", "--year", "2006"], "2006,Albania,10"),
    (["delta", "--prev-year", "2005", "--cur-year", "2006"], "Albania,0,10,10"),
    (["trend", "--country", "Macedonia", "--node", "TI"], "years 2003-2006"),
    (["correlate", "--country", "Macedonia"], "nodes TI,GCI"),
    (["chisq", "--prev-year", "2005", "--cur-year", "2006"], "statistic 1.783333"),
    (["whatif", "--year", "2006", "--country", "Macedonia", "--node", "TI", "--gain", "1"],
     "min-delta 0.120000"),
    (["report", "--kind", "trend", "--country", "Macedonia", "--out", "{tmp}/trend.svg"], ""),
    (["fixture", "panel"], "balkans-gci.csv"),
]


def test_compute_imports_no_introspection_modules(tmp_path):
    # all nine commands, each in a fresh process
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    for argv, expected in COMMANDS:
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        proc = subprocess.run([sys.executable, "-c", FOOTPRINT_CHILD, *argv, expected],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, (argv, proc.stderr)
        loaded = set(proc.stdout.split())
        assert "gcindex.cli" in loaded
        assert (argv[0], sorted(loaded & INTROSPECTION)) == (argv[0], [])
    assert (tmp_path / "trend.svg").stat().st_size > 0
