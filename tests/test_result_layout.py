"""Exact bytes of the four one-row results: the trend, the correlation, the
chi-square test and the what-if outcome.

Each case runs one command on the bundled Balkans panel with --out in csv
and in json, and pins stdout (the same for both formats) and both files.
"""

import pytest

from gcindex.cli import main
from gcindex.data import BALKANS_CLASSES, BALKANS_PANEL, BALKANS_TREE, fixture_path
from gcindex.engine import MissingPolicy, compute_all
from gcindex.ingest import load_classes, load_panel, load_tree, render_report
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
    # an infeasible gain prints one line and writes no file
    "whatif-gain-99": (WHATIF + ["--gain", "99"], "min-delta infeasible\n", None, None),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_one_row_result_bytes(capsys, tmp_path, case, fmt):
    argv, stdout, csv_text, json_text = CASES[case]
    out = tmp_path / f"result.{fmt}"
    code = main([argv[0], *DATA, *argv[1:], "--format", fmt, "--out", str(out)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (0, stdout, "")
    expected = csv_text if fmt == "csv" else json_text
    if expected is None:
        assert not out.exists()
    else:
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
