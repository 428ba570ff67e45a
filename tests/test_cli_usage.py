"""The exact bytes of `gcindex -h`, of each `gcindex <cmd> -h` and of one
usage error (exit 2) per command, as `tests/cli_usage.txt` records them.

argparse wraps at the terminal width, so every run fixes COLUMNS=80; its
wording also changes between Python versions, so the file is compared on the
version that recorded it.  After a deliberate change of the command line,
rewrite the file from the repository root with
`PYTHONPATH=src python tests/test_cli_usage.py`.
"""

import contextlib
import io
import os
import re
import sys
from pathlib import Path

import pytest

from gcindex.cli import main

GOLDEN = Path(__file__).with_name("cli_usage.txt")
COMMANDS = ["compute", "rank", "delta", "trend", "correlate", "chisq", "whatif", "report", "fixture"]
DATA = ["--data", "panel.csv"]
CASES = [
    ["-h"],
    *([command, "-h"] for command in COMMANDS),
    [],
    ["bogus"],
    ["compute", *DATA],
    ["rank", "--format", "xml"],
    ["delta", *DATA, "--prev-year", "x", "--cur-year", "2006"],
    ["trend", *DATA, "--country", "Macedonia", "--from", "2006", "--to", "2005"],
    ["correlate", *DATA, "--country", "Macedonia", "--nodes", "TI"],
    ["chisq", *DATA, "--prev-year", "2005", "--cur-year", "2006", "--alpha", "1.5"],
    ["whatif", *DATA, "--year", "2006", "--country", "Macedonia", "--set", "5", "--gain", "1"],
    ["report", *DATA, "--kind", "pie", "--out", "figure.svg"],
    ["fixture", "atlas"],
]
HEADER = re.compile(r"^==> (.*) <==\n", re.M)


def _command(argv):
    return " ".join(["gcindex", *argv])


def _transcript(argv):
    """What `gcindex argv` prints and its exit code, as one section of the file."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def _recorded():
    """(Python version, {command: section}) from the file."""
    version, *parts = HEADER.split(GOLDEN.read_text(encoding="utf-8"))
    return version.strip(), dict(zip(parts[::2], parts[1::2]))


def _version():
    return f"Python {sys.version_info.major}.{sys.version_info.minor}"


@pytest.mark.parametrize("argv", CASES, ids=_command)
def test_usage_bytes_are_pinned(argv, monkeypatch):
    version, sections = _recorded()
    if version != _version():
        pytest.skip(f"{GOLDEN.name} was recorded under {version}")
    monkeypatch.setenv("COLUMNS", "80")
    assert _transcript(argv) == sections[_command(argv)]


def test_every_case_is_recorded():
    assert list(_recorded()[1]) == [_command(argv) for argv in CASES]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN.write_text(
        _version() + "\n" + "".join(f"==> {_command(a)} <==\n{_transcript(a)}" for a in CASES),
        encoding="utf-8",
    )
