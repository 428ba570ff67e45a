"""Produce the chart and table artifacts via the CLI, into demos/output/.

Four figure-style SVGs (score panel over years, rank movements, the
Macedonia trend pair, ICT bars), the same reports as CSV and JSON where the
CLI offers them, plus CSV/JSON tables.  Re-running the script
rewrites byte-identical files; tests/test_demos.py checks that they match the
tracked copies.
"""

from pathlib import Path

from gcindex.cli import main
from gcindex.data import BALKANS_CLASSES, BALKANS_PANEL, BALKANS_TREE, fixture_path

data = [
    "--data", str(fixture_path(BALKANS_PANEL)),
    "--classes", str(fixture_path(BALKANS_CLASSES)),
    "--tree", str(fixture_path(BALKANS_TREE)),
]


def jobs(out_dir: Path):
    """(argv without the data flags, description) per artifact under out_dir."""
    return [
        (["report", "--kind", "scores", "--node", "GCI",
          "--format", "svg", "--out", str(out_dir / "gci_scores_by_year.svg")],
         "composite scores for every country, 2001-2006"),
        (["report", "--kind", "deltas", "--prev-year", "2005", "--cur-year", "2006",
          "--rank-indicator", "GCI_RANK",
          "--format", "svg", "--out", str(out_dir / "rank_movements.svg")],
         "global standings movement, 2005 to 2006"),
        (["report", "--kind", "trend", "--country", "Macedonia",
          "--nodes", "TI", "GCI", "--from", "2003", "--to", "2006",
          "--format", "svg", "--out", str(out_dir / "macedonia_trend.svg")],
         "Macedonia technology vs composite with fitted lines"),
        (["report", "--kind", "bars", "--node", "ICTS", "--year", "2006",
          "--format", "svg", "--out", str(out_dir / "ict_subindex_2006.svg")],
         "ICT sub-index bars for 2006"),
        (["report", "--kind", "scores", "--node", "GCI",
          "--format", "csv", "--out", str(out_dir / "gci_scores_by_year.csv")],
         "composite score rows, 2001-2006"),
        (["report", "--kind", "scores", "--node", "GCI",
          "--format", "json", "--out", str(out_dir / "gci_scores_by_year.json")],
         "composite score rows as JSON"),
        (["report", "--kind", "trend", "--country", "Macedonia",
          "--nodes", "TI", "GCI", "--from", "2003", "--to", "2006",
          "--format", "csv", "--out", str(out_dir / "macedonia_trend.csv")],
         "Macedonia series with fitted values"),
        (["report", "--kind", "trend", "--country", "Macedonia",
          "--nodes", "TI", "GCI", "--from", "2003", "--to", "2006",
          "--format", "json", "--out", str(out_dir / "macedonia_trend.json")],
         "Macedonia series and fits as JSON"),
        (["report", "--kind", "bars", "--node", "ICTS", "--year", "2006",
          "--format", "csv", "--out", str(out_dir / "ict_subindex_2006.csv")],
         "ICT sub-index rows for 2006"),
        (["report", "--kind", "bars", "--node", "ICTS", "--year", "2006",
          "--format", "json", "--out", str(out_dir / "ict_subindex_2006.json")],
         "ICT sub-index rows as JSON"),
        (["compute", "--year", "2006",
          "--format", "csv", "--out", str(out_dir / "scores_2006.csv")],
         "full 2006 score table"),
        (["delta", "--prev-year", "2005", "--cur-year", "2006",
          "--rank-indicator", "GCI_RANK",
          "--format", "csv", "--out", str(out_dir / "rank_movements.csv")],
         "movement table"),
        (["chisq", "--prev-year", "2005", "--cur-year", "2006",
          "--rank-indicator", "GCI_RANK", "--design", "two-way",
          "--format", "json", "--out", str(out_dir / "stability_test.json")],
         "chi-square stability test result"),
    ]


if __name__ == "__main__":
    out_dir = Path(__file__).parent / "output"
    out_dir.mkdir(exist_ok=True)
    for argv, description in jobs(out_dir):
        code = main(argv[:1] + data + argv[1:])
        status = "ok" if code == 0 else f"FAILED ({code})"
        target = argv[argv.index("--out") + 1]
        print(f"[{status}] {description}\n       -> {target}")
