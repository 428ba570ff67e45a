"""`gcindex` builds only the invoked command's subparser; on every argv that
parser must act as the full one does: the same namespace, or the same exit
code and the same stdout and stderr bytes.

The argvs are those of `tests/cli_usage.txt`, demo 06's CLI jobs and a deck
shaped like the benchmark's `panel-history` commands.  The file runs under
pytest and, with nothing installed, as `PYTHONPATH=src python
tests/test_cli_parse.py`, so argparse's output is also checked on Python
versions that `tests/cli_usage.txt` was not recorded under.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

from cli_cases import CASES
from gcindex import cli

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def _demo_argvs():
    """Demo 06's CLI jobs, each with the demo's data flags."""
    spec = importlib.util.spec_from_file_location("report_files", DEMOS / "06_report_files.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    return [argv[:1] + demo.data + argv[1:] for argv, _ in demo.jobs(Path("output"))]


def _deck():
    """One argv per command and stdout format, chisq once per design, report
    once per kind and format, all on renormalized data, plus two requests
    that parse and fail later (an unknown year, an unknown country)."""
    data = ["--data", "panel.csv", "--classes", "classes.csv", "--policy", "renormalize"]
    years = ["--prev-year", "2004", "--cur-year", "2005"]
    deck = [[command, *data, "--year", "2005", "--format", fmt]
            for fmt in ("csv", "json") for command in ("compute", "rank")]
    deck += [["delta", *data, *years, "--format", fmt] for fmt in ("csv", "json", "svg")]
    deck += [["chisq", *data, *years, "--design", design]
             for design in ("prev-expected", "cur-expected", "two-way")]
    deck += [
        ["trend", *data, "--country", "C001", "--node", "TI"],
        ["correlate", *data, "--country", "C001", "--nodes", "TI", "GCI"],
        ["whatif", *data, "--year", "2005", "--country", "C001", "--node", "TI", "--gain", "3"],
    ]
    for fmt in ("csv", "json", "svg"):
        out = ["--format", fmt, "--out", f"slot.{fmt}"]
        deck += [
            ["report", *data, "--kind", "scores", "--node", "GCI", *out],
            ["report", *data, "--kind", "deltas", *years, *out],
            ["report", *data, "--kind", "trend", "--country", "C001", "--nodes", "TI", "GCI", *out],
            ["report", *data, "--kind", "bars", "--year", "2005", "--node", "ICTS", *out],
        ]
    deck += [
        ["compute", *data, "--year", "1995"],
        ["whatif", *data, "--year", "2005", "--country", "Z9999", "--node", "TI", "--gain", "1"],
    ]
    return deck


def _outcome(parse, argv):
    """(exit code or None, the namespace's fields or None, stdout, stderr) of
    parse(argv); `func` compares by identity, `error` by its parser's prog."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    fields = vars(args)
    if "error" in fields:
        fields["error"] = fields["error"].__self__.prog
    return None, fields, out.getvalue(), err.getvalue()


def test_one_command_parser_parses_as_the_full_parser():
    for argv in [*CASES, *_demo_argvs(), *_deck()]:
        narrow = _outcome(cli._parse_args, argv)
        full = _outcome(cli.build_parser().parse_args, argv)
        assert narrow == full, f"gcindex {' '.join(argv)}"


def _built(argv):
    """The `only` of each build_parser call that parsing argv makes."""
    built, build = [], cli.build_parser

    def record(only=None):
        built.append(only)
        return build(only)

    cli.build_parser = record
    try:
        _outcome(cli._parse_args, argv)
    finally:
        cli.build_parser = build
    return built


def test_a_command_that_parses_builds_only_its_own_parser():
    for argv in [*_demo_argvs(), *_deck()]:
        assert _built(argv) == [argv[0]], f"gcindex {' '.join(argv)}"


def test_arguments_left_over_fall_back_to_the_full_parser():
    assert _built(["compute", "--data", "panel.csv", "--year", "2006", "extra"]) == ["compute", None]
    assert _built(["fixture", "panel"]) == [None]
    assert _built([]) == [None]


if __name__ == "__main__":
    tests = [(name, test) for name, test in sorted(globals().items())
             if name.startswith("test_") and callable(test)]
    failed = 0
    for name, test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAILED {name}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)
