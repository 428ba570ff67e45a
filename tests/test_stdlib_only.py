"""The runtime is pure standard library: every module under src/gcindex
imports only from sys.stdlib_module_names or from gcindex itself.  Reports
are laid out in gcindex.report alone, and gcindex.ingest only reads.  And
it stays cheap to start: no command loads any of the introspection modules
behind `dataclasses`, each loads only the gcindex modules it runs, and a
bare `import gcindex` loads no submodule.  The file runs under pytest and, with nothing
installed, as `PYTHONPATH=src python tests/test_stdlib_only.py`."""

import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import gcindex
from gcindex import compute_all, load_classes, load_panel, load_tree, render_report
from gcindex.data import BALKANS_CLASSES, BALKANS_PANEL, BALKANS_TREE, fixture_path
from gcindex.stats import TrendSeries

PACKAGE = Path(gcindex.__file__).parent
DEMO_OUTPUT = Path(__file__).resolve().parent.parent / "demos" / "output"


def _imports(path: Path):
    """(line, dotted module) for each import in the file; a relative import
    reads as the gcindex module it names (`from . import svg` in
    gcindex/report.py is gcindex.svg)."""
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
    # Every csv, json and svg report file is laid out in gcindex.report.
    modules = {module for _, module in _imports(PACKAGE / "cli.py")}
    assert "gcindex.report" in modules
    assert [m for m in modules if m.split(".")[0] == "json" or m == "gcindex.svg"] == []


def test_ingest_imports_no_output_module():
    # ingest reads input; it needs no result type, and no layout of one
    output = {"gcindex.report", "gcindex.svg", "gcindex.stats", "gcindex.whatif",
              "gcindex.ranking"}
    imported = [f"{line}: {module}" for line, module in _imports(PACKAGE / "ingest.py")
                if module in output]
    assert imported == []


def test_trend_report_renders_the_tracked_demo_bytes():
    # the Macedonia TI/GCI trend of demos/06_report_files.py, from the library
    panel = load_panel(fixture_path(BALKANS_PANEL), load_classes(fixture_path(BALKANS_CLASSES)))
    tree = load_tree(fixture_path(BALKANS_TREE))
    tables = {year: compute_all(tree, panel, year) for year in range(2003, 2007)}
    points = {node: [(year, table.score("Macedonia", node)) for year, table in tables.items()]
              for node in ("TI", "GCI")}
    result = TrendSeries("Macedonia", points)
    for format in ("csv", "json", "svg"):
        tracked = (DEMO_OUTPUT / f"macedonia_trend.{format}").read_bytes()
        assert render_report(result, format).encode() == tracked, format


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

# The gcindex modules that only some commands run: each command's process
# loads exactly the ones it calls, and an svg --format adds svg.
OPTIONAL = {"ranking", "stats", "svg", "whatif"}

# (argv, a line of its stdout, the OPTIONAL modules it loads) for each of
# the nine commands, and the report and delta formats that load fewer or more
COMMANDS = [
    (["compute", "--year", "2006"], "2006,Slovenia,GCI,4.770000", set()),
    (["rank", "--year", "2006"], "2006,Albania,10", {"ranking"}),
    (["delta", "--prev-year", "2005", "--cur-year", "2006"], "Albania,0,10,10", {"ranking"}),
    (["delta", "--prev-year", "2005", "--cur-year", "2006", "--format", "svg"], "<svg",
     {"ranking", "svg"}),
    (["trend", "--country", "Macedonia", "--node", "TI"], "years 2003-2006", {"stats"}),
    (["correlate", "--country", "Macedonia"], "nodes TI,GCI", {"stats"}),
    (["chisq", "--prev-year", "2005", "--cur-year", "2006"], "statistic 1.783333",
     {"ranking", "stats"}),
    (["whatif", "--year", "2006", "--country", "Macedonia", "--node", "TI", "--gain", "1"],
     "min-delta 0.120000", {"whatif", "ranking"}),
    (["report", "--kind", "scores", "--format", "csv", "--out", "{tmp}/scores.csv"], "", set()),
    (["report", "--kind", "trend", "--country", "Macedonia", "--out", "{tmp}/trend.svg"], "",
     {"stats", "svg"}),
    (["fixture", "panel"], "balkans-gci.csv", set()),
]


def _fresh_process(code: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_compute_imports_no_introspection_modules(tmp_path):
    # every command, each in a fresh process
    for argv, expected, optional in COMMANDS:
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        proc = _fresh_process(FOOTPRINT_CHILD, *argv, expected)
        assert proc.returncode == 0, (argv, proc.stderr)
        loaded = set(proc.stdout.split())
        assert "gcindex.cli" in loaded
        assert (argv, sorted(loaded & INTROSPECTION)) == (argv, [])
        assert (argv, {f"gcindex.{m}" for m in OPTIONAL} & loaded) == (
            argv, {f"gcindex.{m}" for m in optional})
    assert (tmp_path / "trend.svg").stat().st_size > 0
    assert (tmp_path / "scores.csv").read_bytes().startswith(b"year,country,node,score\n")


def test_bare_import_loads_no_submodule():
    proc = _fresh_process("import sys\nbefore = set(sys.modules)\nimport gcindex\n"
                          "print(' '.join(sorted(set(sys.modules) - before)))")
    assert proc.returncode == 0, proc.stderr
    assert [m for m in proc.stdout.split() if m.startswith("gcindex.")] == []
    assert "gcindex" in proc.stdout.split()


if __name__ == "__main__":
    tests = [(name, test) for name, test in sorted(globals().items())
             if name.startswith("test_") and callable(test)]
    failed = 0
    for name, test in tests:
        try:
            if test.__code__.co_argcount:  # tmp_path
                with tempfile.TemporaryDirectory() as tmp:
                    test(Path(tmp))
            else:
                test()
        except AssertionError as exc:
            failed += 1
            print(f"FAILED {name}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)
