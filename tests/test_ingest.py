import json
import sys
from collections import Counter
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from gcindex.data import (
    BALKANS_CLASSES,
    BALKANS_PANEL,
    BALKANS_TREE,
    WEF_TREE_CONFIG,
    fixture_path,
)
from gcindex import ingest
from gcindex.engine import compute_all
from gcindex.errors import (
    DuplicateKeyError,
    MissingClassError,
    ParseError,
    SchemaError,
    UnsupportedFormatError,
    WeightSumError,
)
from gcindex.ingest import (
    default_wef_tree,
    dump_tree,
    emit_report,
    load_classes,
    load_panel,
    load_score_table,
    load_tree,
    render_report,
)
from gcindex.model import InnovatorClass, RankTable, ScoreTable
from gcindex.ranking import rank_delta, rank_table_from_indicator
from gcindex.stats import rank_homogeneity_test


class TestLoadPanel:
    def test_well_formed_rows(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(
            "year,country,indicator,value\n"
            "2005,A,TI,3.5\n"
            "2005,B,TI,4.0\n"
            "# a comment line\n"
            "2006,A,TI,3.6\n"
            "2006,B,TI,4.1\n"
        )
        panel = load_panel(path)
        assert len(panel) == 4
        assert panel.value(2006, "B", "TI") == 4.1

    def test_duplicate_key_names_the_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text(
            "year,country,indicator,value\n"
            "2005,A,TI,3.5\n"
            "2005,A,TI,3.5\n"
        )
        with pytest.raises(DuplicateKeyError) as err:
            load_panel(path)
        assert str(err.value) == (
            f"{path}:3: duplicate observation (2005, 'A', 'TI') (first at line 2)"
        )

    @pytest.mark.parametrize("row,message", [
        ("1980,A,TI,3.5", "year 1980 outside [1990, 2100]"),
        ("2101,B,TI,3.5", "year 2101 outside [1990, 2100]"),
        ("1980,A,TI,abc", "column 4: invalid number 'abc'"),
        ("2005,A\u00a0B,TI,3.5", "country must be non-empty without whitespace: 'A\\xa0B'"),
        ("2005,A,T I,3.5", "indicator must be non-empty without whitespace: 'T I'"),
        ("2005,A,T\u2003I,3.5", "indicator must be non-empty without whitespace: 'T\\u2003I'"),
        ("2005,,TI,3.5", "country must be non-empty without whitespace: ''"),
        ("2005,A B,T I,3.5", "country must be non-empty without whitespace: 'A B'"),
    ])
    def test_bad_row_message_is_exact(self, tmp_path, row, message):
        # The bad row follows valid rows that use its other tokens and year.
        path = tmp_path / "bad.csv"
        path.write_text(
            "year,country,indicator,value\n2005,A,TI,3.5\n2005,B,TI,3.5\n" + row + "\n",
            encoding="utf-8",
        )
        with pytest.raises(ParseError) as err:
            load_panel(path)
        assert str(err.value) == f"{path}:4: {message}"

    @pytest.mark.parametrize("text,message", [
        # '\x85' ends a line for str.splitlines but is whitespace inside a field
        ("2005,A\x85B,TI,3.5\n", "2: country must be non-empty without whitespace: 'A\\x85B'"),
        # a line ending in '\u2028' is still one line
        ("2005,A,TI,3.5\u2028\n2005,A,x,x\n", "3: column 4: invalid number 'x'"),
        ("2005,A,TI,3.5\r\n2005,A,x,x\r\n", "3: column 4: invalid number 'x'"),
    ])
    def test_lines_end_at_newline_only(self, tmp_path, text, message):
        path = tmp_path / "lines.csv"
        path.write_text("year,country,indicator,value\n" + text, encoding="utf-8", newline="")
        with pytest.raises(ParseError) as err:
            load_panel(path)
        assert str(err.value) == f"{path}:{message}"

    def test_duplicate_after_comments_and_other_years(self, tmp_path):
        # '02005' is the year 2005; padded fields are stripped.
        path = tmp_path / "dup.csv"
        path.write_text(
            "year,country,indicator,value\n"
            "2006,A,TI,3.0\n"
            "# comment\n"
            "2005,A,TI,3.5\n"
            "\n"
            "2005,B,TI,3.5\n"
            " 02005 , A , TI , 4.0\n"
        )
        with pytest.raises(DuplicateKeyError) as err:
            load_panel(path)
        assert str(err.value) == (
            f"{path}:7: duplicate observation (2005, 'A', 'TI') (first at line 4)"
        )

    def test_each_year_field_and_token_is_checked_once(self, tmp_path, monkeypatch):
        # '2005' and ' 2005 ' are one year field once stripped, '02005' is
        # another for the same year 2005, and '2006' is a second year.
        path = tmp_path / "panel.csv"
        path.write_text(
            "year,country,indicator,value\n"
            "2005,A,TI,3.5\n"
            " 2005 ,B,TI,3.5\n"
            "02005,C,TI,3.5\n"
            "2006,A,TI,3.5\n"
            "2005,A,PI,3.5\n"
            " 02005,B , PI,3.5\n"
            "2006,B,TI,3.5\n"
        )
        calls = Counter()

        def count(name):
            real = getattr(ingest, name)

            def counted(*args):
                calls[name, args[-1]] += 1
                return real(*args)
            monkeypatch.setattr(ingest, name, counted)

        for name in ("_parse_int", "_check_year", "_check_token"):
            count(name)
        panel = load_panel(path)
        assert len(panel) == 7
        assert panel.years() == (2005, 2006)
        assert calls == Counter({
            ("_parse_int", "2005"): 1, ("_parse_int", "02005"): 1, ("_parse_int", "2006"): 1,
            ("_check_year", 2005): 1, ("_check_year", 2006): 1,
            **{("_check_token", token): 1 for token in ("A", "B", "C", "TI", "PI")},
        })

    def test_country_without_class_is_named(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("year,country,indicator,value\n2005,C,TI,3.5\n2005,A,TI,3.5\n"
                        "2006,B,TI,3.5\n")
        with pytest.raises(MissingClassError) as err:
            load_panel(path, {"A": InnovatorClass.CORE})
        assert str(err.value) == "no innovator class for: ['B', 'C']"

    def test_malformed_number_is_located(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("year,country,indicator,value\n2005,A,TI,not-a-number\n")
        with pytest.raises(ParseError, match=r"bad\.csv:2.*column 4"):
            load_panel(path)

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_number_is_rejected(self, tmp_path, token):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"year,country,indicator,value\n2005,A,TI,3.5\n2005,B,TI,{token}\n")
        with pytest.raises(ParseError, match=r"nonfinite\.csv:3.*column 4.*non-finite"):
            load_panel(path)

    def test_wrong_field_count_is_located(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("year,country,indicator,value\n2005,A,TI\n")
        with pytest.raises(ParseError, match=r"short\.csv:2"):
            load_panel(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("2005,A,TI,3.5\n")
        with pytest.raises(ParseError):
            load_panel(path)

    def test_bundled_fixture_scores_slovenia(self, balkans):
        panel, tree = balkans
        table = compute_all(tree, panel, 2006)
        assert table.score("Slovenia", "GCI") == pytest.approx(4.77, abs=1e-12)
        assert table.score("Greece", "GCI") == pytest.approx(4.35, abs=1e-12)
        assert table.score("Croatia", "GCI") == pytest.approx(4.02, abs=1e-12)


class TestLoadClasses:
    def test_case_insensitive_classes(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("country,class\nA,CORE\nB,NonCore\n")
        classes = load_classes(path)
        assert classes == {"A": InnovatorClass.CORE, "B": InnovatorClass.NONCORE}

    def test_unknown_class_is_located(self, tmp_path):
        path = tmp_path / "classes.csv"
        path.write_text("country,class\nA,middling\n")
        with pytest.raises(ParseError, match=r"classes\.csv:2"):
            load_classes(path)

    def test_bundled_class_map_is_all_noncore(self):
        classes = load_classes(fixture_path(BALKANS_CLASSES))
        assert len(classes) == 10
        assert set(classes.values()) == {InnovatorClass.NONCORE}


class TestLoadTree:
    def test_wef_default_literal(self):
        # The name, the bundled path and the helper give the same tree.
        tree = load_tree("wef-default")
        assert tree == default_wef_tree() == load_tree(fixture_path(WEF_TREE_CONFIG))

    def test_bundled_config_round_trips_default(self):
        # The bundled file is exactly what dump_tree writes for the tree it holds.
        tree = load_tree(fixture_path(WEF_TREE_CONFIG))
        assert dump_tree(tree).encode() == fixture_path(WEF_TREE_CONFIG).read_bytes()

    def test_dump_then_load_is_identity(self, tmp_path, wef_tree):
        path = tmp_path / "tree.json"
        text = dump_tree(wef_tree)
        path.write_text(text)
        again = load_tree(path)
        assert again == wef_tree
        assert dump_tree(again) == text

    def test_weight_sum_violation_in_config(self, tmp_path):
        path = tmp_path / "bad-tree.json"
        doc = {
            "root": "R",
            "nodes": [
                {"id": "R", "children": [
                    {"id": "a", "weight": "9/20"}, {"id": "b", "weight": "9/20"},
                ]},
                {"id": "a"}, {"id": "b"},
            ],
        }
        path.write_text(json.dumps(doc))
        with pytest.raises(WeightSumError):
            load_tree(path)

    def test_ict_weight_override_differs_only_there(self, tmp_path):
        doc = json.loads(dump_tree(default_wef_tree()))
        for node in doc["nodes"]:
            if node["id"] == "ICTS":
                node["children"] = [
                    {"id": "ICTsd", "weight": "1/2"},
                    {"id": "ICThd", "weight": "1/2"},
                ]
        path = tmp_path / "override.json"
        path.write_text(json.dumps(doc))
        tree = load_tree(path)
        default = default_wef_tree()
        assert tree != default
        assert set(tree.nodes) == set(default.nodes)
        differing = [n for n in tree.nodes if tree.node(n) != default.node(n)]
        assert differing == ["ICTS"]

    def test_decimal_weight_string_stays_exact(self, tmp_path):
        path = tmp_path / "dec.json"
        doc = {
            "root": "R",
            "nodes": [
                {"id": "R", "children": [
                    {"id": "a", "weight": "0.5"}, {"id": "b", "weight": "1/2"},
                ]},
                {"id": "a"}, {"id": "b"},
            ],
        }
        path.write_text(json.dumps(doc))
        tree = load_tree(path)  # 0.5 parses to exactly 1/2
        assert dict(tree.node("R").children(InnovatorClass.CORE))["a"].denominator == 2

    def test_schema_errors(self, tmp_path):
        cases = [
            {"nodes": []},  # no root
            {"root": "R", "nodes": [{"id": "R", "children": []}]},  # empty children
            {"root": "R", "nodes": [{"id": "R", "children": [{"id": "a", "weight": 0.5}]},
                                    {"id": "a"}]},  # float weight
            {"root": "R", "nodes": [{"id": "R"}, {"id": "R"}]},  # duplicate id
            {"root": "R", "nodes": [{"id": "R", "normalization": {"min": 2, "max": 1}}]},
        ]
        for i, doc in enumerate(cases):
            path = tmp_path / f"schema{i}.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(SchemaError):
                load_tree(path)


class TestEmitReport:
    def test_emit_is_deterministic(self, tmp_path, balkans):
        panel, tree = balkans
        table = compute_all(tree, panel, 2006)
        first = emit_report(table, "csv", tmp_path / "a.csv")
        second = emit_report(table, "csv", tmp_path / "b.csv")
        assert first.read_bytes() == second.read_bytes()
        j1 = emit_report(table, "json", tmp_path / "a.json")
        j2 = emit_report(table, "json", tmp_path / "b.json")
        assert j1.read_bytes() == j2.read_bytes()

    def test_score_csv_round_trip(self, tmp_path, balkans):
        panel, tree = balkans
        table = compute_all(tree, panel, 2006)
        path = emit_report(table, "csv", tmp_path / "scores.csv")
        reloaded = load_score_table(path)
        assert reloaded.year == table.year
        for key, value in table.entries.items():
            assert reloaded.entries[key] == pytest.approx(value, abs=1e-9)
        again = emit_report(reloaded, "csv", tmp_path / "scores2.csv")
        assert again.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("score", ["8.5", "0.999", "-0.0", "7.0000001"])
    def test_score_outside_scale_names_its_row(self, tmp_path, score):
        path = tmp_path / "scores.csv"
        path.write_text(f"year,country,node,score\n2005,B,GCI,4.0\n2005,A,GCI,{score}\n")
        with pytest.raises(ParseError) as err:
            load_score_table(path)
        assert str(err.value) == (
            f"{path}:3: column 4: score {float(score)} for (A, GCI) outside [1, 7]"
        )

    def test_delta_report_contains_quoted_movements(self, tmp_path, balkans):
        panel, _ = balkans
        prev = rank_table_from_indicator(panel, 2005, "GCI_RANK")
        cur = rank_table_from_indicator(panel, 2006, "GCI_RANK")
        path = emit_report(rank_delta(prev, cur), "csv", tmp_path / "delta.csv")
        text = path.read_text()
        assert "Turkey,+9" in text
        assert "Bulgaria,-6" in text
        assert "Greece,0" in text

    def test_svg_outputs_parse_as_xml(self, tmp_path, balkans):
        panel, tree = balkans
        table = compute_all(tree, panel, 2006)
        path = emit_report(table, "svg", tmp_path / "scores.svg", node="GCI")
        root = ET.fromstring(path.read_text())
        assert root.tag.endswith("svg")
        prev = rank_table_from_indicator(panel, 2005, "GCI_RANK")
        cur = rank_table_from_indicator(panel, 2006, "GCI_RANK")
        path = emit_report(rank_delta(prev, cur), "svg", tmp_path / "delta.svg")
        assert ET.fromstring(path.read_text()).tag.endswith("svg")

    def test_chisq_and_trend_render(self, tmp_path, balkans):
        panel, _ = balkans
        prev = rank_table_from_indicator(panel, 2005, "GCI_RANK")
        cur = rank_table_from_indicator(panel, 2006, "GCI_RANK")
        result = rank_homogeneity_test(prev, cur, design="two-way")
        text = render_report(result, "csv")
        assert "1.459644" in text
        assert "do-not-reject" in text
        doc = json.loads(render_report(result, "json"))
        assert doc["df"] == 9

    def test_year_tables_render_one_node(self):
        tables = {
            2007: ScoreTable(year=2007, entries={("A", "GCI"): 4.5, ("A", "TI"): 3.5}),
            2006: ScoreTable(year=2006, entries={("B", "TI"): 2.0, ("A", "TI"): 3.0}),
        }
        assert render_report(tables, "csv", "TI") == (
            "year,country,node,score\n2006,A,TI,3.000000\n2006,B,TI,2.000000\n"
            "2007,A,TI,3.500000\n"
        )
        assert json.loads(render_report(tables, "json", "GCI")) == {
            "scores": [{"year": 2007, "country": "A", "node": "GCI", "score": 4.5}]
        }
        for fmt in ("csv", "json", "svg"):
            with pytest.raises(UnsupportedFormatError):
                render_report(tables, fmt)

    def test_unsupported_format(self, tmp_path):
        table = ScoreTable(year=2006, entries={("A", "GCI"): 4.0})
        with pytest.raises(UnsupportedFormatError):
            emit_report(table, "xlsx", tmp_path / "nope.xlsx")
        ranks = RankTable(year=2006, ranks={"A": 1})
        with pytest.raises(UnsupportedFormatError):
            render_report(rank_homogeneity_test(
                RankTable(year=2005, ranks={"A": 1, "B": 2}),
                RankTable(year=2006, ranks={"A": 1, "B": 2}),
            ), "svg")
        assert ranks  # silence unused warning



#: Every str.isspace() code point except '\n' and '\r', which end a line
#: when a file is read; strip() removes exactly these from a field's ends.
_PADDING = "".join(ch for ch in map(chr, range(sys.maxunicode + 1))
                   if ch.isspace() and ch not in "\n\r")
#: (file, loader, column, bad token): a bad cell put into one data row
_BAD_CELLS = [
    ("panel", load_panel, 0, "x"),
    ("panel", load_panel, 0, "1980"),
    ("panel", load_panel, 1, "A B"),
    ("panel", load_panel, 3, "abc"),
    ("panel", load_panel, 3, "nan"),
    ("classes", load_classes, 1, "middling"),
    ("scores", load_score_table, 0, "x"),
    ("scores", load_score_table, 3, "8.5"),
]


def _pad_fields(text, rng, offset):
    """`text` with every field of every data row (not the header, blank or
    '#' lines) wrapped in 0-3 padding characters on each side, taken in turn
    from _PADDING starting at `offset`, so a file uses every one of them."""
    lines = text.split("\n")
    data = [i for i, line in enumerate(lines)
            if line.strip() and not line.strip().startswith("#")][1:]
    turn = offset

    def pad():
        nonlocal turn
        n = rng.randint(0, 3)
        turn += n
        return "".join(_PADDING[j % len(_PADDING)] for j in range(turn - n, turn))

    for i in data:
        lines[i] = ",".join(pad() + field + pad() for field in lines[i].split(","))
    return "\n".join(lines)


def _load_all(work, texts):
    """(panel contents, class map, score table) of the three files' texts."""
    paths = {}
    for name, text in texts.items():
        paths[name] = Path(work) / f"{name}.csv"
        paths[name].write_text(text, encoding="utf-8")
    panel = load_panel(paths["panel"], load_classes(paths["classes"]))
    indicators = {line.split(",")[2].strip() for line in texts["panel"].split("\n")[1:]
                  if line and not line.startswith("#")}
    contents = (panel.years(), panel.countries(), panel.classes,
                {year: panel.slice_year(year, indicators) for year in panel.years()})
    return contents, load_classes(paths["classes"]), load_score_table(paths["scores"])


def _load_error(path, text, loader):
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ParseError) as err:
        loader(path)
    return str(err.value)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), offset=st.integers(0, len(_PADDING) - 1),
       bad=st.sampled_from(_BAD_CELLS), row=st.integers(0, 9))
def test_whitespace_padding_is_invisible(balkans, seed, offset, bad, row):
    rng = Random(seed)
    panel, tree = balkans
    clean = {
        "panel": fixture_path(BALKANS_PANEL).read_text(encoding="utf-8"),
        "classes": fixture_path(BALKANS_CLASSES).read_text(encoding="utf-8"),
        "scores": render_report(compute_all(tree, panel, 2006), "csv"),
    }
    padded = {name: _pad_fields(text, rng, offset) for name, text in clean.items()}
    assert padded != clean
    with tempfile.TemporaryDirectory() as work:
        assert _load_all(work, padded) == _load_all(work, clean)
        # the same bad cell, clean and padded, fails with the same message
        name, loader, column, token = bad
        lines = clean[name].split("\n")
        data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
        fields = lines[data[row]].split(",")
        fields[column] = token
        lines[data[row]] = ",".join(fields)
        broken = "\n".join(lines)
        path = Path(work) / f"bad-{name}.csv"
        message = _load_error(path, broken, loader)
        assert f"{path}:{data[row] + 1}: " in message
        assert _load_error(path, _pad_fields(broken, rng, offset), loader) == message
