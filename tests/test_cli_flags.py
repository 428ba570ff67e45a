"""Every flag a command accepts either changes what the command does or is a
usage error.  For each command and mode, and each optional flag of that
command, the run with the flag and the run without it must differ in exit
code, stdout, stderr or the bytes of the --out file, or the run with the
flag must exit 2.  There is no third outcome.

The panel is the bundled one with one leaf cell dropped, so that --policy
matters, and the class map makes Bulgaria core, so that --classes does.
The file runs under pytest and, with nothing installed, as
`PYTHONPATH=src python tests/test_cli_flags.py`: the rule relies on argparse
leaving each option that was not given at None, on every Python.
"""

import contextlib
import functools
import io
import sys
import tempfile
from pathlib import Path

from gcindex import cli
from gcindex.data import BALKANS_CLASSES, BALKANS_PANEL, BALKANS_TREE, fixture_path

COUNTRY = "Bulgaria"
INFEASIBLE = "Slovenia"  # first in 2006: whatif --gain 1 has no solution
DROPPED = "2006,Turkey,PII,"
COMPUTED = ["--data", "{panel}", "--tree", "{tree}", "--policy", "renormalize"]
STANDINGS = ["--data", "{panel}", "--tree", "{tree}", "--rank-indicator", "GCI_RANK"]
YEARS = ["--prev-year", "2005", "--cur-year", "2006"]

#: mode -> the argv of its base run; {name} stands for a file of _files()
MODES = {
    "compute": ["compute", *COMPUTED, "--year", "2006"],
    "rank --data": ["rank", *COMPUTED, "--year", "2006"],
    "rank --scores": ["rank", "--scores", "{scores}"],
    "delta": ["delta", *COMPUTED, *YEARS],
    "delta --rank-indicator": ["delta", *STANDINGS, *YEARS],
    "trend": ["trend", *COMPUTED, "--country", COUNTRY],
    "correlate": ["correlate", *COMPUTED, "--country", COUNTRY],
    "chisq": ["chisq", *COMPUTED, *YEARS],
    "chisq --rank-indicator": ["chisq", *STANDINGS, *YEARS],
    "whatif --gain": ["whatif", *COMPUTED, "--year", "2006", "--country", COUNTRY,
                      "--gain", "1"],
    "whatif --set": ["whatif", *COMPUTED, "--year", "2006", "--country", COUNTRY,
                     "--set", "4"],
    "report --kind scores": ["report", *COMPUTED, "--kind", "scores", "--out", "{out}"],
    "report --kind bars": ["report", *COMPUTED, "--kind", "bars", "--year", "2006",
                           "--out", "{out}"],
    "report --kind trend": ["report", *COMPUTED, "--kind", "trend", "--country", COUNTRY,
                            "--out", "{out}"],
    "report --kind deltas": ["report", *COMPUTED, "--kind", "deltas", *YEARS, "--out", "{out}"],
    "report --kind deltas --rank-indicator": ["report", *STANDINGS, "--kind", "deltas", *YEARS,
                                              "--out", "{out}"],
}

#: a valid value of each flag, other than its default, for a run that adds it
VALUES = {
    "--data": ["{panel}"],
    "--classes": ["{classes}"],
    "--tree": ["{tree}"],
    "--policy": ["renormalize"],
    "--scores": ["{scores}"],
    "--year": ["2005"],
    "--prev-year": ["2004"],
    "--cur-year": ["2005"],
    "--country": [COUNTRY],
    "--alpha": ["0.01"],
    "--node": ["TI"],
    "--nodes": ["ICTS", "PII"],
    "--rank-indicator": ["GCI_RANK"],
    "--design": ["two-way"],
    "--set": ["4"],
    "--gain": ["1"],
    "--from": ["2004"],
    "--to": ["2005"],
    "--out": ["{out}"],
    "--format": ["json"],
}

#: (mode, flag) runs known to leave the flag unread, not yet usage errors:
#: standings from --rank-indicator read neither the tree nor the class map,
#: but demo 06 and the README pass the same data flags to every command
OPEN = {(mode, flag)
        for mode in ("delta --rank-indicator", "chisq --rank-indicator",
                     "report --kind deltas --rank-indicator")
        for flag in ("--tree", "--classes")}
OPEN_REASON = "--rank-indicator reads neither --tree nor --classes"


@functools.lru_cache(maxsize=None)
def _files():
    """(the temporary directory, {name: path}) of the files the runs read."""
    work = tempfile.TemporaryDirectory()
    root = Path(work.name)
    panel = fixture_path(BALKANS_PANEL).read_text(encoding="utf-8")
    assert panel.count("\n" + DROPPED) == 1
    classes = fixture_path(BALKANS_CLASSES).read_text(encoding="utf-8")
    assert f"\n{COUNTRY},noncore\n" in classes
    files = {"panel": root / "panel.csv", "classes": root / "classes.csv",
             "tree": fixture_path(BALKANS_TREE), "scores": root / "scores.csv",
             "out": root / "out"}
    files["panel"].write_text("".join(line for line in panel.splitlines(keepends=True)
                                      if not line.startswith(DROPPED)), encoding="utf-8")
    files["classes"].write_text(classes.replace(f"\n{COUNTRY},noncore\n", f"\n{COUNTRY},core\n"),
                                encoding="utf-8")
    files = {name: str(path) for name, path in files.items()}
    code = _run(("compute", *COMPUTED, "--year", "2006", "--out", files["scores"]), files)[0]
    assert code == 0
    return work, files


def _run(argv, files):
    """(exit code, stdout, stderr, bytes of the --out file or None)."""
    out_file = Path(files["out"])
    out_file.unlink(missing_ok=True)
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = cli.main([token.format(**files) for token in argv])
        except SystemExit as exc:
            code = exc.code
    written = out_file.read_bytes() if out_file.exists() else None
    return code, out.getvalue(), err.getvalue(), written


@functools.lru_cache(maxsize=None)
def _outcome(argv):
    return _run(argv, _files()[1])


def _cases():
    """(mode, flag) for each mode and each optional flag of its command."""
    for mode, argv in MODES.items():
        for entry in cli._COMMANDS[argv[0]][2]:
            for flag in entry if isinstance(entry, list) else [entry]:
                flag = flag[0] if isinstance(flag, tuple) else flag
                if not flag.endswith("!"):
                    yield mode, flag


def _unread(mode, flag) -> bool:
    """Whether the mode's run with `flag` exits other than 2 with the bytes
    of the run without it.  A flag of the base run is dropped for the run
    without it; any other is added with its VALUES."""
    argv = MODES[mode]
    if flag in argv:
        start = argv.index(flag)
        end = next((i for i in range(start + 1, len(argv)) if argv[i].startswith("--")),
                   len(argv))
        with_flag, without = argv, argv[:start] + argv[end:]
    else:
        with_flag, without = [*argv, flag, *VALUES[flag]], argv
    outcome = _outcome(tuple(with_flag))
    return outcome[0] != 2 and outcome == _outcome(tuple(without))


def pytest_generate_tests(metafunc):
    import pytest

    if "mode" not in metafunc.fixturenames:
        return
    metafunc.parametrize("mode,flag", [
        pytest.param(mode, flag, id=f"{mode}, {flag}", marks=[
            pytest.mark.xfail(strict=True, reason=OPEN_REASON)] if (mode, flag) in OPEN else [])
        for mode, flag in _cases()])


def test_a_flag_changes_the_output_or_is_a_usage_error(mode, flag):
    assert not _unread(mode, flag), f"gcindex {mode}: {flag} leaves every byte unchanged"


def test_infeasible_gain_reads_out():
    # Slovenia ranks first, so no gain is feasible: without --out the run
    # prints so and exits 0; --out has no outcome to write, so it is an error
    argv = tuple(INFEASIBLE if token == COUNTRY else token for token in MODES["whatif --gain"])
    assert _outcome(argv) == (0, "min-delta infeasible\n", "", None)
    code, out, err, written = _outcome((*argv, "--out", "{out}"))
    assert (code, out, written) == (1, "", None)
    assert err == (f"error: min-delta infeasible: {INFEASIBLE} cannot gain 1 rank on GCI in 2006; "
                   f"nothing written to {_files()[1]['out']}\n")


if __name__ == "__main__":
    cases = list(_cases())
    wrong = [(mode, flag) for mode, flag in cases if _unread(mode, flag) != ((mode, flag) in OPEN)]
    for mode, flag in wrong:
        state = "is now read: take it out of OPEN" if (mode, flag) in OPEN else "is unread"
        print(f"FAILED gcindex {mode}: {flag} {state}")
    try:
        test_infeasible_gain_reads_out()
    except AssertionError as exc:
        wrong.append(("whatif --gain", "--out"))
        print(f"FAILED test_infeasible_gain_reads_out: {exc}")
    print(f"{len(cases) + 1 - len(wrong)} passed ({len(OPEN)} of them known unread), "
          f"{len(wrong)} failed")
    sys.exit(1 if wrong else 0)
