"""The argv lists of `tests/cli_usage.txt`: every help screen, one usage
error per command, and a trailing unknown argument after each command.
Kept apart from the pytest module so that `tests/test_cli_parse.py` runs
without pytest too."""

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
    ["report", *DATA, "--kind", "trend", "--country", "Macedonia", "--year", "2006",
     "--out", "trend.csv"],
    ["report", *DATA, "--kind", "deltas", "--prev-year", "2005", "--cur-year", "2006",
     "--year", "2006", "--from", "2001", "--to", "2002", "--out", "deltas.csv"],
    ["report", *DATA, "--kind", "scores", "--node", "GCI", "--prev-year", "2005",
     "--cur-year", "2006", "--country", "Macedonia", "--format", "csv", "--out", "a.csv"],
    ["report", *DATA, "--kind", "bars", "--year", "2006", "--nodes", "TI",
     "--country", "Macedonia", "--prev-year", "2001", "--out", "bars.svg"],
    ["report", *DATA, "--kind", "trend", "--country", "Macedonia", "--node", "GCI",
     "--rank-indicator", "x", "--out", "trend.svg"],
    ["report", *DATA, "--kind", "deltas", "--prev-year", "2005", "--cur-year", "2006",
     "--country", "Macedonia", "--nodes", "TI", "--out", "deltas.svg"],
    ["delta", *DATA, "--prev-year", "2005", "--cur-year", "2006", "--rank-indicator", "GCI_RANK",
     "--node", "ZZZ", "--policy", "renormalize"],
    ["chisq", *DATA, "--prev-year", "2005", "--cur-year", "2006", "--rank-indicator", "GCI_RANK",
     "--policy", "strict"],
    ["trend", *DATA, "--country", "Macedonia", "--format", "json"],
    ["fixture", "atlas"],
    # every command given all it needs, then one word more: argparse's
    # "unrecognized arguments" error prints the top-level usage
    *([*argv, "extra"] for argv in (
        ["compute", *DATA, "--year", "2006"],
        ["rank", "--scores", "scores.csv"],
        ["delta", *DATA, "--prev-year", "2005", "--cur-year", "2006"],
        ["trend", *DATA, "--country", "Macedonia"],
        ["correlate", *DATA, "--country", "Macedonia"],
        ["chisq", *DATA, "--prev-year", "2005", "--cur-year", "2006"],
        ["whatif", *DATA, "--year", "2006", "--country", "Macedonia", "--gain", "1"],
        ["report", *DATA, "--kind", "scores", "--out", "scores.svg"],
        ["fixture", "panel"],
    )),
    ["compute", *DATA, "--year", "2006", "--bogus"],
]
