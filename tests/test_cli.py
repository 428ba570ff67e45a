import contextlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gcindex.cli import main
from gcindex.data import (
    BALKANS_CLASSES,
    BALKANS_PANEL,
    BALKANS_TREE,
    fixture_path,
)

PANEL = str(fixture_path(BALKANS_PANEL))
CLASSES = str(fixture_path(BALKANS_CLASSES))
TREE = str(fixture_path(BALKANS_TREE))

DATA = ["--data", PANEL, "--classes", CLASSES, "--tree", TREE]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCompute:
    def test_slovenia_row(self, capsys):
        code, out, _ = run_cli(capsys, "compute", *DATA, "--year", "2006")
        assert code == 0
        assert "2006,Slovenia,GCI,4.770000" in out
        assert "2006,Greece,GCI,4.350000" in out
        assert "2006,Croatia,GCI,4.020000" in out

    def test_missing_year_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "compute", *DATA, "--year", "1999")
        assert code == 1
        assert "year 1999 not found" in err

    def test_equal_leaf_country_scores_flat(self, capsys, tmp_path):
        data = tmp_path / "flat.csv"
        rows = ["year,country,indicator,value"]
        for leaf in ("IS", "TTS", "ICTS", "PII", "MEI"):
            rows.append(f"2006,X,{leaf},4.40")
        data.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "compute", "--data", str(data), "--tree", TREE, "--year", "2006"
        )
        assert code == 0
        assert "2006,X,GCI,4.400000" in out
        assert "2006,X,TI,4.400000" in out

    def test_wef_default_tree_flag(self, capsys, tmp_path):
        from gcindex.ingest import default_wef_tree

        data = tmp_path / "full.csv"
        rows = ["year,country,indicator,value"]
        tree = default_wef_tree()
        for i, country in enumerate(("P", "Q", "R")):
            for leaf in tree.leaves():
                hard = tree.node(leaf).normalize is not None
                value = (10.0 * i) if hard else (3.0 + i)
                rows.append(f"2006,{country},{leaf},{value}")
        data.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "compute", "--data", str(data), "--year", "2006",
            "--tree", "wef-default",
        )
        assert code == 0
        assert "2006,P,GCI," in out
        code, bundled, _ = run_cli(capsys, "fixture", "wef-tree")
        assert code == 0
        code, from_path, _ = run_cli(
            capsys, "compute", "--data", str(data), "--year", "2006",
            "--tree", bundled.strip(),
        )
        assert code == 0
        assert from_path == out

    def test_non_finite_value_exits_one(self, capsys, tmp_path):
        from gcindex.ingest import default_wef_tree

        data = tmp_path / "nan.csv"
        rows = ["year,country,indicator,value"]
        tree = default_wef_tree()
        for i, country in enumerate(("C0001", "C0002", "C0003")):
            for leaf in tree.leaves():
                hard = tree.node(leaf).normalize is not None
                value = "nan" if (country, leaf) == ("C0002", "internet_users") else (
                    10.0 * i if hard else 3.0 + i)
                rows.append(f"2006,{country},{leaf},{value}")
        data.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            capsys, "compute", "--data", str(data), "--year", "2006", "--tree", "wef-default",
        )
        assert code == 1
        assert out == ""
        line = 2 + len(tree.leaves()) + list(tree.leaves()).index("internet_users")
        assert err.startswith(f"error: {data}:{line}: ")
        assert "non-finite" in err

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "scores.csv"
        code, out, _ = run_cli(
            capsys, "compute", *DATA, "--year", "2006", "--out", str(out_path)
        )
        assert code == 0
        assert out == ""
        assert "2006,Slovenia,GCI,4.770000" in out_path.read_text()


class TestRank:
    def test_rank_from_data(self, capsys):
        code, out, _ = run_cli(capsys, "rank", *DATA, "--year", "2006", "--node", "GCI")
        assert code == 0
        assert "2006,Slovenia,1" in out
        assert "2006,Albania,10" in out

    def test_compute_then_rank_equals_pipeline(self, capsys, tmp_path):
        scores_path = tmp_path / "scores.csv"
        run_cli(capsys, "compute", *DATA, "--year", "2006", "--out", str(scores_path))
        code, from_file, _ = run_cli(capsys, "rank", "--scores", str(scores_path))
        assert code == 0
        code, from_data, _ = run_cli(capsys, "rank", *DATA, "--year", "2006")
        assert code == 0
        assert from_file == from_data

    def test_rank_rejects_out_of_scale_score(self, capsys, tmp_path):
        scores_path = tmp_path / "scores.csv"
        scores_path.write_text("year,country,node,score\n2005,A,GCI,8.5\n")
        code, out, err = run_cli(capsys, "rank", "--scores", str(scores_path))
        assert code == 1
        assert out == ""
        assert err == (
            f"error: {scores_path}:2: column 4: score 8.5 for (A, GCI) outside [1, 7]\n"
        )

    def test_rank_needs_scores_or_data(self, capsys):
        code, _, err = run_cli(capsys, "rank")
        assert code == 1
        assert "--scores" in err


class TestDelta:
    def test_ingested_standings(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta", *DATA, "--prev-year", "2005", "--cur-year", "2006",
            "--rank-indicator", "GCI_RANK",
        )
        assert code == 0
        assert "Turkey,+9" in out
        assert "Croatia,+6" in out
        assert "Bulgaria,-6" in out
        assert "Macedonia,-2" in out
        assert "Slovenia,+2" in out
        assert "Greece,0" in out

    def test_computed_scores_within_region(self, capsys):
        code, out, _ = run_cli(
            capsys, "delta", *DATA, "--prev-year", "2005", "--cur-year", "2006",
        )
        assert code == 0
        # Croatia and Turkey both pass Bulgaria within the ten-country table
        assert "Croatia,+1" in out
        assert "Turkey,+1" in out
        assert "Bulgaria,-2" in out


class TestTrendAndCorrelate:
    def test_macedonia_technology_trend(self, capsys):
        code, out, _ = run_cli(
            capsys, "trend", *DATA, "--country", "Macedonia", "--node", "TI",
            "--from", "2003", "--to", "2006",
        )
        assert code == 0
        assert "slope -0.242000" in out
        assert "n 4" in out

    def test_macedonia_composite_trend(self, capsys):
        code, out, _ = run_cli(
            capsys, "trend", *DATA, "--country", "Macedonia", "--node", "GCI",
            "--from", "2003", "--to", "2006",
        )
        assert code == 0
        assert "slope 0.052000" in out

    def test_correlation_between_technology_and_composite(self, capsys):
        code, out, _ = run_cli(
            capsys, "correlate", *DATA, "--country", "Macedonia",
            "--nodes", "TI", "GCI", "--from", "2003", "--to", "2006",
        )
        assert code == 0
        assert "r -0.391189" in out
        assert "n 4" in out

    def test_degenerate_series_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "trend", *DATA, "--country", "Macedonia",
            "--from", "2006", "--to", "2006",
        )
        assert code == 1
        assert err.startswith("error:")

    # Each command checks its series once: an unknown node, an absent
    # country and a range of one year or none are named in the message.
    @pytest.mark.parametrize("argv,message", [
        (["trend", "--country", "Macedonia", "--node", "NOPE"],
         "node 'NOPE' has 0 scores for 'Macedonia' in 2003-2006; need at least two"),
        (["trend", "--country", "Macedonia", "--from", "2006"],
         "node 'GCI' has 1 score for 'Macedonia' in 2006; need at least two"),
        (["trend", "--country", "Macedonia", "--from", "2007", "--to", "2003"],
         "country 'Macedonia' has no data in the requested years"),
        (["trend", "--country", "Nowhere"],
         "country 'Nowhere' has no data in the requested years"),
        (["correlate", "--country", "Macedonia", "--nodes", "TI", "NOPE"],
         "node 'NOPE' has 0 scores for 'Macedonia' in 2003-2006; need at least two"),
        (["correlate", "--country", "Nowhere"],
         "country 'Nowhere' has no data in the requested years"),
        (["correlate", "--country", "Macedonia", "--from", "2001", "--to", "2003"],
         "node 'TI' has 1 score for 'Macedonia' in 2003; need at least two"),
        (["report", "--kind", "trend", "--country", "Macedonia", "--nodes", "TI", "NOPE"],
         "node 'NOPE' has 0 scores for 'Macedonia' in 2003-2006; need at least two"),
        (["report", "--kind", "trend", "--country", "Nowhere"],
         "country 'Nowhere' has no data in the requested years"),
        (["report", "--kind", "trend", "--country", "Macedonia", "--from", "2005",
          "--to", "2005", "--format", "json"],
         "node 'TI' has 1 score for 'Macedonia' in 2005; need at least two"),
    ], ids=["trend-node", "trend-one-year", "trend-no-year", "trend-country",
            "correlate-node", "correlate-country", "correlate-one-year",
            "report-node", "report-country", "report-one-year"])
    def test_short_series_names_node_and_country(self, capsys, tmp_path, argv, message):
        out_path = tmp_path / "report.out"
        out = ["--out", str(out_path)] if argv[0] == "report" else []
        code, stdout, err = run_cli(capsys, argv[0], *DATA, *argv[1:], *out)
        assert code == 1
        assert stdout == ""
        assert err == f"error: {message}\n"
        assert not out_path.exists()

    def test_correlate_searches_second_node_in_first_nodes_years(self, capsys, tmp_path):
        # Under renormalize TI has scores in 2001-2002 only and MEI in 2003-2004
        # only: each series has two points, but no year has both.
        data = tmp_path / "split.csv"
        rows = ["year,country,indicator,value"]
        for year, leaves in ((2001, "IS TTS ICTS"), (2002, "IS TTS ICTS"),
                             (2003, "PII MEI"), (2004, "PII MEI")):
            rows += [f"{year},X,{leaf},4.0" for leaf in leaves.split()]
        data.write_text("\n".join(rows) + "\n")
        code, out, err = run_cli(
            capsys, "correlate", "--data", str(data), "--tree", TREE,
            "--policy", "renormalize", "--country", "X", "--nodes", "TI", "MEI",
        )
        assert code == 1
        assert out == ""
        assert err == "error: node 'MEI' has 0 scores for 'X' in 2001-2002; need at least two\n"

    # Macedonia has data from 2003 on; the panel runs 2001-2006.
    @pytest.mark.parametrize("argv,years", [
        (["trend", "--country", "Macedonia"], [2003, 2004, 2005, 2006]),
        (["correlate", "--country", "Macedonia", "--nodes", "TI", "GCI"],
         [2003, 2004, 2005, 2006]),
        (["report", "--kind", "trend", "--country", "Macedonia", "--nodes", "TI", "GCI",
          "--from", "2004", "--format", "csv"], [2004, 2005, 2006]),
        (["report", "--kind", "scores", "--from", "2002", "--to", "2004", "--format", "csv"],
         [2002, 2003, 2004]),
    ], ids=["trend", "correlate", "report-trend", "report-scores"])
    def test_each_year_scored_once(self, capsys, tmp_path, monkeypatch, argv, years):
        import gcindex.cli

        scored = []
        real = gcindex.cli.compute_all

        def counting(tree, panel, year, *rest):
            scored.append(year)
            return real(tree, panel, year, *rest)

        monkeypatch.setattr(gcindex.cli, "compute_all", counting)
        out = ["--out", str(tmp_path / "report.csv")] if argv[0] == "report" else []
        code, _, err = run_cli(capsys, argv[0], *DATA, *argv[1:], *out)
        assert code == 0, err
        assert scored == years


class TestChisq:
    def test_regional_stability_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "chisq", *DATA, "--prev-year", "2005", "--cur-year", "2006",
            "--rank-indicator", "GCI_RANK", "--alpha", "0.05",
        )
        assert code == 0
        assert "critical-value 16.918978" in out
        assert "df 9" in out
        assert "decision do not reject the null hypothesis" in out

    def test_two_way_design_reproduces_published_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "chisq", *DATA, "--prev-year", "2005", "--cur-year", "2006",
            "--rank-indicator", "GCI_RANK", "--design", "two-way",
        )
        assert code == 0
        assert "statistic 1.459644" in out
        assert "p-value 0.997435" in out

    def test_identical_years_statistic_zero(self, capsys, tmp_path):
        data = tmp_path / "same.csv"
        rows = ["year,country,indicator,value"]
        for year in (2005, 2006):
            for country, rank in (("A", 1), ("B", 2), ("C", 3)):
                rows.append(f"{year},{country},R,{rank}")
        data.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "chisq", "--data", str(data), "--prev-year", "2005",
            "--cur-year", "2006", "--rank-indicator", "R",
        )
        assert code == 0
        assert "statistic 0.000000" in out

    def test_three_country_reversal(self, capsys, tmp_path):
        data = tmp_path / "rev.csv"
        rows = ["year,country,indicator,value"]
        for country, rank in (("A", 1), ("B", 2), ("C", 3)):
            rows.append(f"2005,{country},R,{rank}")
        for country, rank in (("A", 3), ("B", 2), ("C", 1)):
            rows.append(f"2006,{country},R,{rank}")
        data.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "chisq", "--data", str(data), "--prev-year", "2005",
            "--cur-year", "2006", "--rank-indicator", "R",
        )
        assert code == 0
        assert "statistic 5.333333" in out

    @pytest.mark.parametrize("alpha", ["2", "1", "0", "-0.5", "nan", "abc"])
    def test_alpha_outside_unit_interval_is_usage_error(self, capsys, alpha):
        with pytest.raises(SystemExit) as exc:
            main(["chisq", *DATA, "--prev-year", "2005", "--cur-year", "2006",
                  "--rank-indicator", "GCI_RANK", "--alpha", alpha])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert errors[0].startswith("gcindex chisq: error: argument --alpha")
        assert "Traceback" not in err

    def test_missing_year_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "chisq", *DATA, "--prev-year", "1999", "--cur-year", "2006",
            "--rank-indicator", "GCI_RANK",
        )
        assert code == 1
        assert "1999" in err


class TestWhatif:
    def test_set_current_value_is_noop(self, capsys):
        code, out, _ = run_cli(
            capsys, "whatif", *DATA, "--year", "2006", "--country", "Macedonia",
            "--node", "TI", "--set", "2.95",
        )
        assert code == 0
        assert "delta-rank 0" in out

    def test_gain_one_reports_minimal_delta(self, capsys, tmp_path):
        # C trails B by 0.30 composite points; technology path weight 1/3.
        data = tmp_path / "trio.csv"
        rows = ["year,country,indicator,value"]
        for country, g in (("A", 4.4), ("B", 3.8), ("C", 3.5)):
            for leaf in ("IS", "TTS", "ICTS", "PII", "MEI"):
                rows.append(f"2006,{country},{leaf},{g}")
        data.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(
            capsys, "whatif", "--data", str(data), "--tree", TREE, "--year", "2006",
            "--country", "C", "--node", "TI", "--gain", "1",
        )
        assert code == 0
        assert "min-delta 0.900000" in out
        assert "new-rank 2" in out

    def test_gain_ninety_nine_is_infeasible(self, capsys):
        code, out, _ = run_cli(
            capsys, "whatif", *DATA, "--year", "2006", "--country", "Macedonia",
            "--node", "TI", "--gain", "99",
        )
        assert code == 0
        assert "min-delta infeasible" in out

    def test_gain_zero_is_a_noop(self, capsys):
        code, out, _ = run_cli(
            capsys, "whatif", *DATA, "--year", "2006", "--country", "Macedonia",
            "--node", "TI", "--gain", "0",
        )
        assert code == 0
        assert out.startswith("min-delta 0.000000\n")
        assert "delta-rank 0" in out

    @pytest.mark.parametrize("gain,message", [
        ("-2", "must be a non-negative integer, got -2"),
        ("x", "invalid integer 'x'"),
    ])
    def test_bad_gain_is_usage_error(self, capsys, gain, message):
        with pytest.raises(SystemExit) as exc:
            main(["whatif", *DATA, "--year", "2006", "--country", "Macedonia",
                  "--node", "TI", "--gain", gain])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith("usage: gcindex whatif ")
        assert captured.err.endswith(f"gcindex whatif: error: argument --gain: {message}\n")

    def test_set_out_of_scale_exits_one(self, capsys):
        code, _, err = run_cli(
            capsys, "whatif", *DATA, "--year", "2006", "--country", "Macedonia",
            "--node", "TI", "--set", "7.5",
        )
        assert code == 1
        assert "outside [1, 7]" in err


class TestReport:
    @pytest.mark.parametrize("kind,extra", [
        ("scores", ["--node", "GCI"]),
        ("deltas", ["--prev-year", "2005", "--cur-year", "2006",
                    "--rank-indicator", "GCI_RANK"]),
        ("trend", ["--country", "Macedonia", "--nodes", "TI", "GCI",
                   "--from", "2003", "--to", "2006"]),
        ("bars", ["--node", "ICTS", "--year", "2006"]),
    ])
    def test_svg_kinds(self, capsys, tmp_path, kind, extra):
        import xml.etree.ElementTree as ET

        out_path = tmp_path / f"{kind}.svg"
        code, _, _ = run_cli(
            capsys, "report", *DATA, "--kind", kind, *extra,
            "--format", "svg", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("<?xml")
        assert ET.fromstring(text).tag.endswith("svg")

    # Every SVG the CLI emits: the four report kinds, and delta on stdout.
    @pytest.mark.parametrize("kind", ["bars", "scores", "trend", "deltas", "delta"])
    def test_svg_escapes_markup_in_names(self, capsys, tmp_path, kind):
        from xml.dom import minidom

        data = tmp_path / "amp.csv"
        rows = ["year,country,indicator,value"]
        for year, step in ((2006, 0.0), (2007, 0.1)):
            for country, g in (("A&B", 4.4), ("<C>", 3.8), ("D", 3.5)):
                for leaf in ("IS", "TTS", "ICTS", "PII", "MEI"):
                    rows.append(f"{year},{country},{leaf},{g + step}")
        data.write_text("\n".join(rows) + "\n")
        inputs = ["--data", str(data), "--tree", TREE, "--prev-year", "2006", "--cur-year", "2007"]
        if kind == "delta":
            code, text, _ = run_cli(capsys, "delta", *inputs, "--format", "svg")
        else:
            out_path = tmp_path / f"{kind}.svg"
            code, _, _ = run_cli(
                capsys, "report", *inputs, "--kind", kind, "--year", "2006",
                "--country", "A&B", "--format", "svg", "--out", str(out_path),
            )
            text = out_path.read_text()
        assert code == 0
        labels = [n.firstChild.data for n in minidom.parseString(text).getElementsByTagName("text")]
        if kind == "trend":
            # The user-supplied country goes into the chart title.
            assert labels[0] == "A&B: TI, GCI"
            assert ">A&amp;B: TI, GCI</text>" in text
        else:
            assert "A&B" in labels and "<C>" in labels
            assert ">A&amp;B</text>" in text and ">&lt;C&gt;</text>" in text

    @pytest.mark.parametrize("fmt", ["csv", "json", "svg"])
    @pytest.mark.parametrize("kind,extra", [
        ("scores", ["--node", "NOPE"]),
        ("scores", ["--from", "2010"]),
        ("bars", ["--node", "NOPE", "--year", "2006"]),
    ])
    def test_no_scores_exits_one_in_every_format(self, capsys, tmp_path, fmt, kind, extra):
        out_path = tmp_path / f"report.{fmt}"
        code, _, err = run_cli(
            capsys, "report", *DATA, "--kind", kind, *extra,
            "--format", fmt, "--out", str(out_path),
        )
        assert code == 1
        assert err.startswith("error: node ") and "has no scores" in err
        assert not out_path.exists()

    def test_bars_csv(self, capsys, tmp_path):
        out_path = tmp_path / "bars.csv"
        code, _, _ = run_cli(
            capsys, "report", *DATA, "--kind", "bars", "--node", "ICTS",
            "--year", "2006", "--format", "csv", "--out", str(out_path),
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("year,country,node,score")
        assert "2006,Albania,ICTS,2.420000" in text


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["compute", "--year", "2006", "--format", "csv"],
        ["compute", "--year", "2006", "--format", "json"],
        ["rank", "--year", "2006", "--format", "csv"],
        ["delta", "--prev-year", "2005", "--cur-year", "2006",
         "--rank-indicator", "GCI_RANK", "--format", "svg"],
        ["chisq", "--prev-year", "2005", "--cur-year", "2006",
         "--rank-indicator", "GCI_RANK", "--format", "json"],
    ])
    def test_double_run_byte_identical(self, capsys, tmp_path, argv):
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert main(argv[:1] + DATA + argv[1:] + ["--out", str(a)]) == 0
        assert main(argv[:1] + DATA + argv[1:] + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_usage_error_is_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gcindex.cli", "compute", "--nonsense"],
            capture_output=True,
        )
        assert proc.returncode == 2

    def test_missing_file_is_one(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gcindex.cli", "compute",
             "--data", "/nonexistent.csv", "--year", "2006"],
            capture_output=True,
        )
        assert proc.returncode == 1

    def test_success_is_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gcindex.cli", "compute",
             "--data", PANEL, "--classes", CLASSES, "--tree", TREE,
             "--year", "2006"],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert b"4.770000" in proc.stdout

    @pytest.mark.parametrize("argv", [
        ["compute", *DATA, "--year", "2006"],
        ["report", *DATA, "--kind", "bars", "--year", "2006"],
    ])
    def test_unwritable_out_is_one(self, capsys, tmp_path, argv):
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {tmp_path}: ")

    @pytest.mark.parametrize("flag", ["--data", "--classes", "--tree", "--scores"])
    def test_bad_utf8_names_file_and_line(self, capsys, tmp_path, flag):
        # A byte that is not UTF-8 on line 5; lines 1-3 end in '\r\n', '\r\n'
        # and '\r', which count as one line end each.
        source = {"--data": PANEL, "--classes": CLASSES, "--tree": TREE}.get(flag)
        text = (Path(source).read_bytes() if source else
                b"year,country,node,score\n" + b"".join(
                    b"2006,%s,GCI,4.000000\n" % c.encode() for c in "ABCDEFG"))
        lines = text.split(b"\n")
        lines[4] = lines[4][:2] + b"\xff" + lines[4][2:]
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\r\n".join(lines[:3]) + b"\r" + b"\n".join(lines[3:]))
        argv = (["rank", "--scores", str(path)] if flag == "--scores" else
                ["compute", *DATA, "--year", "2006"])
        if flag in argv:
            argv[argv.index(flag) + 1] = str(path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (1, "", f"error: {path}:5: invalid UTF-8 byte 0xff\n")

    def test_help_documents_flags(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gcindex.cli", "chisq", "--help"],
            capture_output=True,
        )
        assert proc.returncode == 0
        for flag in (b"--prev-year", b"--cur-year", b"--alpha", b"--node",
                     b"--rank-indicator", b"--design"):
            assert flag in proc.stdout


_FUZZ_PANEL_ROWS = tuple(
    (year, country, leaf)
    for year in ("2005", "2006")
    for country in ("A", "B", "C")
    for leaf in ("IS", "TTS", "ICTS", "PII", "MEI")
)
_FUZZ_JUNK_ROWS = ("2006,A,IS", "2006,A,IS,4,5", "x,A,IS,4", "1899,A,IS,4", "2006,A B,IS,4",
                   "2005,D,GCI_RANK,3", "2006,A,IS,4", "2006,A,IS,nan", "2006,A,IS,1e400",
                   "2006,A,IS,abc", "2006,A,IS,", "2006,A,IS,40", "2006,A,GCI_RANK,-1")


@st.composite
def _fuzz_panel(draw):
    """A complete panel on the bundled regional tree's leaves, values in
    [1, 7], now and then damaged: rows dropped, a junk row added or a bad
    header."""
    rows = [f"{year},{country},{leaf},{draw(st.floats(1.0, 7.0))!r}"
            for year, country, leaf in _FUZZ_PANEL_ROWS]
    header = "year,country,indicator,value"
    damage = draw(st.sampled_from(["none", "none", "drop", "drop", "junk", "header"]))
    if damage == "drop":
        dropped = draw(st.sets(st.integers(0, len(rows) - 1), min_size=1, max_size=4))
        rows = [row for i, row in enumerate(rows) if i not in dropped]
    elif damage == "junk":
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(_FUZZ_JUNK_ROWS)))
    elif damage == "header":
        header = draw(st.sampled_from(["year,country,node,score", "year,country,indicator"]))
    return "\n".join([header, *rows]) + "\n"


#: command -> (required flags besides --data and --tree, other flags it
#: takes besides --classes, --policy and --out)
_FUZZ_COMMANDS = {
    "compute": (("--year",), ("--format",)),
    "rank": (("--year",), ("--scores", "--node", "--format")),
    "delta": (("--prev-year", "--cur-year"), ("--node", "--rank-indicator", "--format")),
    "trend": (("--country",), ("--node", "--from", "--to", "--format")),
    "correlate": (("--country",), ("--nodes", "--from", "--to", "--format")),
    "chisq": (("--prev-year", "--cur-year"),
              ("--alpha", "--node", "--rank-indicator", "--design", "--format")),
    "whatif": (("--year", "--country", "--gain"), ("--node", "--format")),
    "report": (("--kind", "--out"),
               ("--node", "--nodes", "--country", "--year", "--prev-year", "--cur-year",
                "--rank-indicator", "--from", "--to", "--format")),
}
#: flag -> (good values, bad values); a list value is several tokens
_FUZZ_FLAGS = {
    "--data": (["{panel}"], ["{dir}/missing.csv", "{dir}"]),
    "--classes": ([], [CLASSES, "{panel}"]),
    "--tree": ([TREE], ["wef-default", "{dir}/missing.json", "{panel}"]),
    "--policy": (["strict", "renormalize", "renormalize"], ["lenient"]),
    "--year": (["2005", "2006"], ["1999", "x"]),
    "--prev-year": (["2005"], ["2006", "1999"]),
    "--cur-year": (["2006"], ["2005", "x"]),
    "--country": (["A", "B", "C"], ["Z"]),
    "--node": (["GCI", "TI", "IS"], ["NOPE"]),
    "--nodes": ([["TI", "GCI"], ["IS", "MEI"]], [["NOPE", "GCI"]]),
    "--gain": (["1", "2", "0"], ["-2", "5", "x"]),
    "--format": (["csv", "json"], ["svg", "xml"]),
    "--kind": (["scores", "deltas", "trend", "bars"], ["pie"]),
    "--out": (["{dir}/out"], ["{dir}", "{dir}/panel.csv/out"]),
    "--scores": ([], ["{panel}"]),
    "--rank-indicator": ([], ["GCI_RANK", "IS"]),
    "--alpha": (["0.05", "0.1"], ["2", "0"]),
    "--design": (["prev-expected", "cur-expected", "two-way"], ["one-way"]),
    "--from": (["2005"], ["2007"]),
    "--to": (["2006"], ["2004"]),
}


@st.composite
def _fuzz_argv(draw):
    """One subcommand with its required flags (now and then one left out),
    often --policy and --out, up to two other flags it takes and now and then
    one it does not; one value in eight is a bad one."""
    command = draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    required, optional = _FUZZ_COMMANDS[command]
    flags = ["--data", "--tree", *required]
    if draw(st.integers(0, 9)) == 0:
        flags.remove(draw(st.sampled_from(flags)))
    flags += ["--policy", "--out"][:draw(st.integers(0, 2))]
    flags += draw(st.lists(st.sampled_from(("--classes",) + optional), max_size=2, unique=True))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(_FUZZ_FLAGS))))
    argv = [command]
    for flag in dict.fromkeys(flags):
        good, bad = _FUZZ_FLAGS[flag]
        value = draw(st.sampled_from(bad if not good or draw(st.integers(0, 7)) == 0 else good))
        argv += [flag, *(value if isinstance(value, list) else [value])]
    return argv


@settings(max_examples=200, deadline=None)
@given(panel_text=_fuzz_panel(), argv=_fuzz_argv())
def test_random_panels_and_flags_exit_cleanly(panel_text, argv):
    # every input either succeeds or fails with a documented exit code and
    # one message; an escaping exception fails the test with its traceback
    with tempfile.TemporaryDirectory() as work:
        panel = Path(work) / "panel.csv"
        panel.write_text(panel_text, encoding="utf-8")
        argv = [token.format(dir=work, panel=panel) for token in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: "), (argv, err.getvalue())


#: one argv per command over the bundled data, failures included
_SHUFFLE_ARGV = (
    ["compute", "--year", "2006"],
    ["compute", "--year", "2003", "--format", "json"],
    ["compute", "--year", "1999"],
    ["rank", "--year", "2005", "--node", "TI", "--format", "json"],
    ["delta", "--prev-year", "2005", "--cur-year", "2006"],
    ["delta", "--prev-year", "2005", "--cur-year", "2006", "--rank-indicator", "GCI_RANK",
     "--format", "svg"],
    ["chisq", "--prev-year", "2005", "--cur-year", "2006", "--design", "two-way"],
    ["trend", "--country", "Macedonia", "--node", "TI"],
    ["trend", "--country", "Nowhere"],
    ["correlate", "--country", "Macedonia", "--nodes", "TI", "GCI"],
    ["whatif", "--year", "2006", "--country", "Macedonia", "--node", "TI", "--gain", "1"],
    ["whatif", "--year", "2006", "--country", "Nowhere", "--set", "4"],
    ["report", "--kind", "scores", "--node", "GCI", "--format", "csv"],
    ["report", "--kind", "scores", "--node", "TI", "--format", "json", "--from", "2004"],
)


def _shuffled(text: str, rng) -> str:
    """`text` with its data rows shuffled among themselves; the header,
    comments and blank lines stay where they are."""
    lines = text.splitlines()
    slots = [i for i, line in enumerate(lines)
             if i and line.strip() and not line.strip().startswith("#")]
    rows = [lines[i] for i in slots]
    rng.shuffle(rows)
    for slot, row in zip(slots, rows):
        lines[slot] = row
    return "\n".join(lines) + "\n"


def _run_in(work: Path, panel_text: str, classes_text: str, argv):
    """(exit code, stdout, stderr, --out bytes) of one CLI run on the given
    file contents; the files keep the same paths from run to run."""
    (work / "panel.csv").write_text(panel_text, encoding="utf-8")
    (work / "classes.csv").write_text(classes_text, encoding="utf-8")
    out_file = work / "report.out"
    out_file.unlink(missing_ok=True)
    full = [argv[0], "--data", str(work / "panel.csv"), "--classes", str(work / "classes.csv"),
            "--tree", TREE, *argv[1:]]
    if argv[0] == "report":
        full += ["--out", str(out_file)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(full)
    return code, out.getvalue(), err.getvalue(), out_file.read_bytes() if out_file.exists() else None


@settings(max_examples=40, deadline=None)
@given(argv=st.sampled_from(_SHUFFLE_ARGV), rng=st.randoms(use_true_random=False))
def test_row_order_does_not_change_output(argv, rng):
    panel_text = Path(PANEL).read_text(encoding="utf-8")
    classes_text = Path(CLASSES).read_text(encoding="utf-8")
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        before = _run_in(work, panel_text, classes_text, argv)
        after = _run_in(work, _shuffled(panel_text, rng), _shuffled(classes_text, rng), argv)
    assert after == before
