"""The exact bytes of `gcindex -h`, of each `gcindex <cmd> -h` and of the
usage errors (exit 2) listed in `tests/cli_cases.py`, as
`tests/cli_usage.txt` records them.

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

from cli_cases import CASES
from gcindex.cli import main

GOLDEN = Path(__file__).with_name("cli_usage.txt")
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
