"""Exact bytes of the four one-row results: the trend, the correlation, the
chi-square test and the what-if outcome; and of the rank table and the rank
movement report.

Each one-row case runs one command on the bundled Balkans panel with --out in
csv and in json, and pins stdout (the same for both formats) and both files.
The rank and movement cases pin stdout in json, and the movement report's
entrant and leaver lines in csv too.
"""

import pytest

from gcindex.cli import main
from gcindex.data import BALKANS_CLASSES, BALKANS_PANEL, BALKANS_TREE, fixture_path
from gcindex.engine import MissingPolicy, compute_all
from gcindex.ingest import load_classes, load_panel, load_tree
from gcindex.report import render_report
from gcindex.whatif import Scenario, apply_scenario

DATA = ["--data", str(fixture_path(BALKANS_PANEL)),
        "--classes", str(fixture_path(BALKANS_CLASSES)),
        "--tree", str(fixture_path(BALKANS_TREE))]

CHISQ = ["chisq", "--prev-year", "2005", "--cur-year", "2006", "--rank-indicator", "GCI_RANK"]
WHATIF = ["whatif", "--year", "2006", "--country", "Macedonia", "--node", "TI"]
WHATIF_CSV_HEADER = (
    "country,node,override,baseline_gci,new_gci,baseline_rank,new_rank,delta_rank\n"
)
CHISQ_CSV_HEADER = "statistic,df,p_value,critical_value,alpha,decision\n"
DO_NOT_REJECT = "decision do not reject the null hypothesis\n"

CASES = {
    "trend": (
        ["trend", "--country", "Macedonia", "--node", "TI", "--from", "2003", "--to", "2006"],
        "country Macedonia\nnode TI\nyears 2003-2006\n"
        "slope -0.242000\nintercept 488.399000\nn 4\n",
        "slope,intercept,n\n-0.242000,488.399000,4\n",
        '{\n  "intercept": 488.399,\n  "n": 4,\n  "slope": -0.242\n}\n',
    ),
    "correlate": (
        ["correlate", "--country", "Macedonia", "--nodes", "TI", "GCI",
         "--from", "2003", "--to", "2006"],
        "country Macedonia\nnodes TI,GCI\nyears 2003-2006\nr -0.391189\nn 4\n",
        "r,n\n-0.391189,4\n",
        '{\n  "n": 4,\n  "r": -0.391189\n}\n',
    ),
    "chisq-prev-expected": (
        CHISQ,
        "statistic 2.867100\ndf 9\np-value 0.969332\ncritical-value 16.918978\n"
        "alpha 0.050000\n" + DO_NOT_REJECT,
        CHISQ_CSV_HEADER + "2.867100,9,0.969332,16.918978,0.050000,do-not-reject\n",
        '{\n  "alpha": 0.05,\n  "critical_value": 16.918978,\n  "decision": "do-not-reject",\n'
        '  "df": 9,\n  "p_value": 0.969332,\n  "statistic": 2.8671\n}\n',
    ),
    "chisq-cur-expected": (
        CHISQ + ["--design", "cur-expected"],
        "statistic 3.064681\ndf 9\np-value 0.961675\ncritical-value 16.918978\n"
        "alpha 0.050000\n" + DO_NOT_REJECT,
        CHISQ_CSV_HEADER + "3.064681,9,0.961675,16.918978,0.050000,do-not-reject\n",
        '{\n  "alpha": 0.05,\n  "critical_value": 16.918978,\n  "decision": "do-not-reject",\n'
        '  "df": 9,\n  "p_value": 0.961675,\n  "statistic": 3.064681\n}\n',
    ),
    "chisq-two-way": (
        CHISQ + ["--design", "two-way"],
        "statistic 1.459644\ndf 9\np-value 0.997435\ncritical-value 16.918978\n"
        "alpha 0.050000\n" + DO_NOT_REJECT,
        CHISQ_CSV_HEADER + "1.459644,9,0.997435,16.918978,0.050000,do-not-reject\n",
        '{\n  "alpha": 0.05,\n  "critical_value": 16.918978,\n  "decision": "do-not-reject",\n'
        '  "df": 9,\n  "p_value": 0.997435,\n  "statistic": 1.459644\n}\n',
    ),
    "whatif-set-rise": (
        WHATIF + ["--set", "3.5"],
        "country Macedonia\nnode TI\noverride 3.500000\nbaseline-gci 3.830000\n"
        "new-gci 4.013333\nbaseline-rank 8\nnew-rank 4\ndelta-rank +4\n",
        WHATIF_CSV_HEADER + "Macedonia,TI,3.500000,3.830000,4.013333,8,4,+4\n",
        '{\n  "baseline_gci": 3.83,\n  "baseline_rank": 8,\n  "country": "Macedonia",\n'
        '  "delta_rank": 4,\n  "new_gci": 4.013333,\n  "new_rank": 4,\n  "node": "TI",\n'
        '  "override": 3.5\n}\n',
    ),
    "whatif-set-drop": (
        WHATIF + ["--set", "1.5"],
        "country Macedonia\nnode TI\noverride 1.500000\nbaseline-gci 3.830000\n"
        "new-gci 3.346667\nbaseline-rank 8\nnew-rank 10\ndelta-rank -2\n",
        WHATIF_CSV_HEADER + "Macedonia,TI,1.500000,3.830000,3.346667,8,10,-2\n",
        '{\n  "baseline_gci": 3.83,\n  "baseline_rank": 8,\n  "country": "Macedonia",\n'
        '  "delta_rank": -2,\n  "new_gci": 3.346667,\n  "new_rank": 10,\n  "node": "TI",\n'
        '  "override": 1.5\n}\n',
    ),
    "whatif-gain-2": (
        WHATIF + ["--gain", "2"],
        "min-delta 0.240000\ncountry Macedonia\nnode TI\noverride 3.190000\n"
        "baseline-gci 3.830000\nnew-gci 3.910000\nbaseline-rank 8\nnew-rank 6\ndelta-rank +2\n",
        WHATIF_CSV_HEADER + "Macedonia,TI,3.190000,3.830000,3.910000,8,6,+2\n",
        '{\n  "baseline_gci": 3.83,\n  "baseline_rank": 8,\n  "country": "Macedonia",\n'
        '  "delta_rank": 2,\n  "new_gci": 3.91,\n  "new_rank": 6,\n  "node": "TI",\n'
        '  "override": 3.19\n}\n',
    ),
    # an infeasible gain prints one line without --out; it has no result for
    # --out, so with it the run fails and writes no file
    "whatif-gain-99": (WHATIF + ["--gain", "99"], "min-delta infeasible\n", None, None),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_one_row_result_bytes(capsys, tmp_path, case, fmt):
    argv, stdout, csv_text, json_text = CASES[case]
    out = tmp_path / f"result.{fmt}"
    code = main([argv[0], *DATA, *argv[1:], "--format", fmt, "--out", str(out)])
    captured = capsys.readouterr()
    expected = csv_text if fmt == "csv" else json_text
    if expected is None:
        assert (code, captured.out, captured.err) == (
            1, "", "error: min-delta infeasible: Macedonia cannot gain 99 ranks on TI in 2006; "
                   f"nothing written to {out}\n")
        assert not out.exists()
        assert main([argv[0], *DATA, *argv[1:]]) == 0
        assert capsys.readouterr() == (stdout, "")
    else:
        assert (code, captured.out, captured.err) == (0, stdout, "")
        assert out.read_bytes() == expected.encode()


def test_integer_override_renders_as_a_number():
    # A library Scenario may carry an int; the layout follows the field's
    # float annotation, not the value's runtime type.
    classes = load_classes(fixture_path(BALKANS_CLASSES))
    panel = load_panel(fixture_path(BALKANS_PANEL), classes)
    tree = load_tree(fixture_path(BALKANS_TREE))
    table = compute_all(tree, panel, 2006, MissingPolicy.STRICT)
    outcome = apply_scenario(tree, table, panel.classes, Scenario("Macedonia", "TI", 5))
    assert outcome.override == 5 and isinstance(outcome.override, int)
    assert render_report(outcome, "csv") == (
        WHATIF_CSV_HEADER + "Macedonia,TI,5.000000,3.830000,4.513333,8,2,+6\n"
    )
    assert render_report(outcome, "json") == (
        '{\n  "baseline_gci": 3.83,\n  "baseline_rank": 8,\n  "country": "Macedonia",\n'
        '  "delta_rank": 6,\n  "new_gci": 4.513333,\n  "new_rank": 2,\n  "node": "TI",\n'
        '  "override": 5.0\n}\n'
    )


BALKANS_RANKS = (
    '    "Albania": 10,\n    "Bosnia_and_Herzegovina": 9,\n    "Bulgaria": 5,\n'
    '    "Croatia": 3,\n    "Greece": 2,\n    "Macedonia": 8,\n    "Romania": 6,\n'
    '    "Serbia_and_Montenegro": 7,\n    "Slovenia": 1,\n    "Turkey": 4\n'
)


def _stdout(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    return captured.out


def test_rank_table_json(capsys):
    argv = ["rank", *DATA, "--year", "2006", "--format", "json"]
    assert _stdout(capsys, argv) == (
        '{\n  "policy": "competition",\n  "ranks": {\n' + BALKANS_RANKS + '  },\n'
        '  "year": 2006\n}\n'
    )


def test_tied_rank_table_csv_and_json(capsys, tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("year,country,node,score\n2006,A,GCI,5.0\n2006,B,GCI,3.0\n"
                      "2006,C,GCI,5.0\n")
    argv = ["rank", "--scores", str(scores), "--format"]
    assert _stdout(capsys, argv + ["csv"]) == "year,country,rank\n2006,A,1\n2006,B,3\n2006,C,1\n"
    assert _stdout(capsys, argv + ["json"]) == (
        '{\n  "policy": "competition",\n  "ranks": {\n    "A": 1,\n    "B": 3,\n'
        '    "C": 1\n  },\n  "year": 2006\n}\n'
    )


def test_rank_movement_json(capsys):
    argv = ["delta", *DATA, "--prev-year", "2005", "--cur-year", "2006", "--format", "json"]
    assert _stdout(capsys, argv) == (
        '{\n  "cur_ranks": {\n' + BALKANS_RANKS + '  },\n  "cur_year": 2006,\n'
        '  "deltas": {\n    "Albania": 0,\n    "Bosnia_and_Herzegovina": 0,\n'
        '    "Bulgaria": -2,\n    "Croatia": 1,\n    "Greece": 0,\n    "Macedonia": 0,\n'
        '    "Romania": 0,\n    "Serbia_and_Montenegro": 0,\n    "Slovenia": 0,\n'
        '    "Turkey": 1\n  },\n  "entrants": [],\n  "leavers": [],\n'
        '  "prev_ranks": {\n    "Albania": 10,\n    "Bosnia_and_Herzegovina": 9,\n'
        '    "Bulgaria": 3,\n    "Croatia": 4,\n    "Greece": 2,\n    "Macedonia": 8,\n'
        '    "Romania": 6,\n    "Serbia_and_Montenegro": 7,\n    "Slovenia": 1,\n'
        '    "Turkey": 5\n  },\n  "prev_year": 2005\n}\n'
    )


def test_rank_movement_entrants_and_leavers(capsys, tmp_path):
    # A leaves after 2005, D and E enter in 2006
    panel = tmp_path / "panel.csv"
    panel.write_text("year,country,indicator,value\n2005,A,R,1\n2005,B,R,2\n2005,C,R,3\n"
                     "2006,B,R,3\n2006,C,R,1\n2006,D,R,2\n2006,E,R,4\n")
    argv = ["delta", "--data", str(panel), "--prev-year", "2005", "--cur-year", "2006",
            "--rank-indicator", "R", "--format"]
    assert _stdout(capsys, argv + ["csv"]) == (
        "country,delta,prev_rank,cur_rank\nB,-1,2,3\nC,+2,3,1\n# entrants: D,E\n# leavers: A\n"
    )
    assert _stdout(capsys, argv + ["json"]) == (
        '{\n  "cur_ranks": {\n    "B": 3,\n    "C": 1\n  },\n  "cur_year": 2006,\n'
        '  "deltas": {\n    "B": -1,\n    "C": 2\n  },\n'
        '  "entrants": [\n    "D",\n    "E"\n  ],\n  "leavers": [\n    "A"\n  ],\n'
        '  "prev_ranks": {\n    "B": 2,\n    "C": 3\n  },\n  "prev_year": 2005\n}\n'
    )
