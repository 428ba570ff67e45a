import json
import math
import sys
from collections import Counter
from fractions import Fraction
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path
from random import Random
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from gcindex.data import (
    BALKANS_CLASSES,
    BALKANS_PANEL,
    BALKANS_TREE,
    WEF_TREE_CONFIG,
    fixture_path,
)
from gcindex import ingest, model
from gcindex.engine import MissingPolicy, compute_all
from gcindex.errors import (
    DuplicateKeyError,
    GciError,
    MissingClassError,
    ParseError,
    SchemaError,
    UnsupportedFormatError,
    WeightSumError,
)
from gcindex.ingest import (
    default_wef_tree,
    dump_tree,
    load_classes,
    load_panel,
    load_score_table,
    load_tree,
)
from gcindex.model import (
    IndexTree,
    InnovatorClass,
    Node,
    Normalization,
    Panel,
    RankTable,
    ScoreTable,
    validate_tree,
)
from gcindex.ranking import rank_delta, rank_table_from_indicator
from gcindex.report import emit_report, render_report
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

        def count(module, name):
            real = getattr(module, name)

            def counted(*args):
                calls[name, args[-1]] += 1
                return real(*args)
            monkeypatch.setattr(module, name, counted)

        count(ingest, "_parse_int")
        count(model, "_check_year")
        count(model, "_check_token")
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


def _row_read_only():
    """Make the columnar reader refuse every text, so each loader reads rows."""
    return mock.patch.object(ingest, "_columns", lambda text, header: None)


def _outcome(load, path, *args):
    """What `load(path, *args)` gives, in a form that compares order too: a
    Panel's years, countries, classes and each year's indicator columns and
    their values in insertion order, a class map's items, or the error's
    class and message."""
    try:
        result = load(path, *args)
    except GciError as exc:
        return type(exc), str(exc)
    if isinstance(result, Panel):
        return (result.years(), result.countries(), result.classes,
                {year: [(indicator, list(column.items())) for indicator, column in columns.items()]
                 for year, columns in result._by_year.items()})
    return list(result.items())


def _both_reads(load, path, *args):
    """(columnar outcome, row outcome) of one file."""
    columnar = _outcome(load, path, *args)
    with _row_read_only():
        return columnar, _outcome(load, path, *args)


#: fault -> the tokens it puts in; each changes one line of a clean panel
_FAULTS = {
    "short": ("",),  # the line loses its last field
    "long": ("4", "", "x"),  # the line gains one
    "misaligned": ("2001", "C", ""),  # a field moves from this line to the next
    "blank": ("", " ", "\t"),  # a blank line goes in before it
    "comment": ("# a note, with commas", "#", " # padded"),
    "commented": ("#",),  # the row is commented out
    "hash": ("#", "#x"),  # in a country or indicator field
    "padding": (" ", "\t", "\xa0", "\u2003", "\x85"),
    "value": ("abc", "nan", "inf", "-Infinity", "1e999", "", "1_0", "+5", " 3"),
    "year": ("x", "1980", "2101", "02001", "", "2_001", "+2002"),
    "country": ("", "A B", "A\u2028B"),
    "duplicate": ("",),  # a copy of the row goes in after it
    "crlf": ("\r",),  # '\r\n' and a lone '\r' both end a line
    "header": ("# lead\n", "\n", " "),  # before the header or its first field
}
_CLEAN_KEYS = [(year, country, indicator) for year in ("2001", "2002", "2003")
               for country in ("A", "B", "C") for indicator in ("TI", "IS")]
_VALUE = st.one_of(st.sampled_from(["3.5", "4", "1e2", "-0.0", "7", ".5"]),
                   st.floats(-1e6, 1e6, allow_nan=False).map(repr))


def _inject(lines, kind, token, at, field):
    """Put fault `kind` with `token` into the data lines at line `at`."""
    i = at % len(lines)
    fields = lines[i].split(",")
    j = field % len(fields)
    if kind == "short":
        lines[i] = ",".join(fields[:-1])
    elif kind == "long":
        lines[i] += "," + token
    elif kind == "misaligned" and i + 1 < len(lines):
        lines[i], lines[i + 1] = ",".join(fields[:-1]), token + "," + lines[i + 1]
    elif kind in ("blank", "comment"):
        lines.insert(i, token)
    elif kind in ("commented", "crlf"):
        lines[i] = token + lines[i] if kind == "commented" else lines[i] + token
    elif kind == "hash":
        fields[(1 + field % 2) % len(fields)] += token
    elif kind == "padding":
        fields[j] = token + fields[j] if field % 2 else fields[j] + token
    elif kind in ("value", "year", "country"):
        fields[{"year": 0, "country": 1}.get(kind, -1) % len(fields)] = token
    elif kind == "duplicate":
        lines.insert(i + 1, lines[i])
    if kind in ("hash", "padding", "value", "year", "country"):
        lines[i] = ",".join(fields)


@st.composite
def _faulty_panels(draw):
    """(panel text, class map or None): a clean panel of 0-12 rows with 0-3
    faults put in, with or without a final newline."""
    keys = draw(st.lists(st.sampled_from(_CLEAN_KEYS), max_size=12, unique=True))
    lines = [",".join((*key, draw(_VALUE))) for key in keys]
    header = "year,country,indicator,value"
    for kind in draw(st.lists(st.sampled_from(sorted(_FAULTS)), max_size=3)):
        token = draw(st.sampled_from(_FAULTS[kind]))
        if kind == "header":
            header = token + header
        elif lines:
            _inject(lines, kind, token, draw(st.integers(0, 20)), draw(st.integers(0, 7)))
    text = "\n".join([header, *lines]) + draw(st.sampled_from(["\n", ""]))
    classes = draw(st.sampled_from([
        None,
        {"A": InnovatorClass.CORE, "B": InnovatorClass.NONCORE, "C": InnovatorClass.CORE},
        {"A": InnovatorClass.CORE},
    ]))
    return text, classes


@settings(max_examples=300, deadline=None)
@given(case=_faulty_panels())
@example(case=("year,country,indicator,value\n2001,C1,IS\n2001,2001,C2,IS,4\n", None))
@example(case=("year,country,indicator,value\n2001,A,TI,3\n# x\n2001,A,TI,4", None))
def test_columnar_and_row_panel_reads_agree(case):
    text, classes = case
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "panel.csv"
        path.write_text(text, encoding="utf-8", newline="")
        columnar, rows = _both_reads(load_panel, path, classes)
    assert columnar == rows


_CLASS_LINES = ("A,core", "B,NonCore", "C#1,CORE", "A,noncore", "D,middling", " E ,core",
                "", "# note", "F,core,x", "G", ",core", "H,")


@settings(max_examples=100, deadline=None)
@given(lines=st.lists(st.sampled_from(_CLASS_LINES), max_size=6),
       end=st.sampled_from(["\n", ""]))
def test_columnar_and_row_class_reads_agree(lines, end):
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "classes.csv"
        path.write_text("\n".join(["country,class", *lines]) + end, encoding="utf-8")
        columnar, rows = _both_reads(load_classes, path)
    assert columnar == rows


def test_misaligned_lines_fail_at_the_short_one(tmp_path):
    # 8 fields in all, two rows' worth, but the first line holds only 3
    path = tmp_path / "panel.csv"
    path.write_text("year,country,indicator,value\n2001,C1,IS\n2001,2001,C2,IS,4\n")
    with pytest.raises(ParseError) as err:
        load_panel(path)
    assert str(err.value) == f"{path}:2: expected 4 fields (year,country,indicator,value), got 3"


def test_clean_panels_take_the_columnar_path(tmp_path, monkeypatch):
    # the bundled panel, with its comment lines, and one shaped like the
    # benchmark's: 40 countries, 10 years, 5 leaves, no padding
    rng = Random(1)
    names = [f"C{i:04d}" for i in range(1, 41)]
    (tmp_path / "panel.csv").write_text("year,country,indicator,value\n" + "".join(
        f"{year},{name},{leaf},{1 + 6 * rng.random():.4f}\n" for name in names
        for year in range(2001, 2011) for leaf in ("IS", "TTS", "ICTS", "PII", "MEI")))
    (tmp_path / "classes.csv").write_text("country,class\n" + "".join(
        f"{name},{rng.choice(['core', 'noncore'])}\n" for name in names))
    read = []
    real = ingest._columns

    def spy(text, header):
        read.append(real(text, header) is not None)
        return real(text, header)
    monkeypatch.setattr(ingest, "_columns", spy)
    for panel, classes in [(fixture_path(BALKANS_PANEL), fixture_path(BALKANS_CLASSES)),
                           (tmp_path / "panel.csv", tmp_path / "classes.csv")]:
        columnar = _outcome(load_panel, panel, load_classes(classes))
        assert read == [True, True]  # the class map, then the panel
        read.clear()
        with _row_read_only():
            assert _outcome(load_panel, panel, load_classes(classes)) == columnar
        assert not isinstance(columnar[0], type)  # a panel, not an error


def test_a_hash_inside_a_field_keeps_the_columnar_path(tmp_path, monkeypatch):
    # '#' in a country and an indicator, but no line starts with it: no
    # comment line to drop, so the file is clean
    path = tmp_path / "panel.csv"
    path.write_text("year,country,indicator,value\n2005,C#1,TI,3.5\n2005,A,TI#2,4\n")
    read = []
    real = ingest._columns

    def spy(text, header):
        read.append(real(text, header) is not None)
        return real(text, header)
    monkeypatch.setattr(ingest, "_columns", spy)
    columnar = _outcome(load_panel, path)
    assert read == [True]
    with _row_read_only():
        assert _outcome(load_panel, path) == columnar
    assert columnar[1] == ("A", "C#1")


def test_clean_panel_parses_each_year_field_once(tmp_path, monkeypatch):
    # '2005' and '02005' are two fields of one year; '2006' is a second year
    path = tmp_path / "panel.csv"
    path.write_text("year,country,indicator,value\n2005,A,TI,3.5\n02005,B,TI,3.5\n"
                    "2006,A,TI,3.5\n2005,A,PI,3.5\n2006,B,TI,3.5\n")
    calls = Counter()

    def counted(token):
        calls[token] += 1
        return int(token)
    monkeypatch.setattr(ingest, "int", counted, raising=False)
    panel = load_panel(path)
    assert panel.years() == (2005, 2006) and len(panel) == 5
    assert calls == Counter({"2005": 1, "02005": 1, "2006": 1})


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
            {"root": "R", "nodes": 5},  # nodes not a list
            # infinite bounds, as a string and as the Infinity literal
            {"root": "R", "nodes": [{"id": "R", "normalization": {"min": 0, "max": "inf"}}]},
            {"root": "R", "nodes": [{"id": "R", "normalization": {"min": 0, "max": math.inf}}]},
            # JSON booleans are not numbers: a weight, then bounds
            {"root": "R", "nodes": [{"id": "R", "children": [{"id": "a", "weight": True}]},
                                    {"id": "a", "normalization": {"min": False, "max": True}}]},
            {"root": "R", "nodes": [{"id": "R", "children": [{"id": "a", "weight": "1"}]},
                                    {"id": "a", "normalization": {"min": False, "max": True}}]},
        ]
        for i, doc in enumerate(cases):
            path = tmp_path / f"schema{i}.json"
            path.write_text(json.dumps(doc))
            with pytest.raises(SchemaError):
                load_tree(path)

    def test_children_and_weights_by_class_are_exclusive(self, tmp_path):
        path = tmp_path / "tree.json"
        edges = [{"id": "a", "weight": "1"}]
        path.write_text(json.dumps({"root": "R", "nodes": [
            {"id": "R", "children": edges, "weights_by_class": {"core": edges}}, {"id": "a"},
        ]}))
        with pytest.raises(SchemaError) as err:
            load_tree(path)
        assert str(err.value) == f"{path}: node R: shared and per-class edges are exclusive"


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
    """`text` with every field of the header and of every data row (not
    blank or '#' lines) wrapped in 0-3 padding characters on each side, taken
    in turn from _PADDING starting at `offset`, so a file uses every one of
    them."""
    lines = text.split("\n")
    data = [i for i, line in enumerate(lines)
            if line.strip() and not line.strip().startswith("#")]
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
                {year: {k: v for k, v in panel.year_values(year).items() if k[1] in indicators}
                 for year in panel.years()})
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


#: Name characters that json escapes (a quote, a backslash, DEL, 'é' and a
#: character outside the BMP, written as a surrogate pair), that svg would
#: (<&>), that a '%' or str.format template would read (%{}) and a csv
#: separator (,).
_NAME = st.text(st.sampled_from('"\\é\U0001d11e\x7f<&>A%{},'), min_size=1, max_size=3)
#: Every kind of score a ScoreTable holds: floats at and next to the scale's
#: ends and where the sixth decimal rounds, ints, a bool and Fractions.
_SCORE = st.one_of(
    st.sampled_from([1.0, 7.0, 1.0000005, 6.9999995, 4.0000005, 1, 7, True, Fraction(9, 2)]),
    st.floats(1.0, 7.0),
    st.integers(1, 7),
    st.fractions(1, 7, max_denominator=10**7),
)


@st.composite
def _score_table(draw, year):
    """A table in which any country may lack any node, as renormalize leaves it."""
    countries = draw(st.lists(_NAME, max_size=5, unique=True))
    nodes = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
    return ScoreTable(year, {(c, n): draw(_SCORE) for c in countries for n in nodes
                             if draw(st.booleans())})


@st.composite
def _year_tables(draw):
    years = draw(st.lists(st.integers(1990, 2100), max_size=3, unique=True))
    return {year: draw(_score_table(year)) for year in years}


def _per_cell_reports(results, node=None):
    """(csv, json) of a score report, one cell at a time: the rows in sorted
    entry order, each score through float() and 6 decimals, and the json
    document through json.dumps."""
    if isinstance(results, ScoreTable):
        rows = [(results.year, c, n, s) for (c, n), s in sorted(results.entries.items())]
        doc = {"year": results.year, "scores": [
            {"country": c, "node": n, "score": float(f"{float(s):.6f}")} for _, c, n, s in rows]}
    else:
        rows = [(y, c, n, s) for y, table in sorted(results.items())
                for (c, n), s in sorted(table.entries.items()) if n == node]
        doc = {"scores": [{"year": y, "country": c, "node": n, "score": float(f"{float(s):.6f}")}
                          for y, c, n, s in rows]}
    csv = "year,country,node,score\n" + "".join(
        f"{y},{c},{n},{float(s):.6f}\n" for y, c, n, s in rows)
    return csv, json.dumps(doc, indent=2, sort_keys=True) + "\n"


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


def _computed(ids, classes, policy, rows):
    """{year: compute_all's table} for each year of `rows`, (year, country,
    leaf, value), on a tree with the node ids `ids` = (R, A, S1, S2, B, H):
    R over A (S1, S2), B and H for non-core, over A and H for core; H is hard
    data on fixed 0-100 bounds, the other leaves survey data."""
    r, a, s1, s2, b, h = ids
    tree = validate_tree(IndexTree({
        r: Node(r, edges_by_class={InnovatorClass.CORE: ((a, _HALF), (h, _HALF)),
                                   InnovatorClass.NONCORE: ((a, _THIRD), (b, _THIRD), (h, _THIRD))}),
        a: Node(a, edges=((s1, _HALF), (s2, _HALF))),
        s1: Node(s1), s2: Node(s2), b: Node(b), h: Node(h, normalize=Normalization(0.0, 100.0)),
    }, r))
    panel = Panel(rows, classes)
    return {year: compute_all(tree, panel, year, policy) for year in panel.years()}


@st.composite
def _computed_tables(draw):
    """compute_all's tables for odd node ids and countries under either
    policy; under RENORMALIZE any leaf may be absent, so a country's walk may
    drop leaves and A, but each keeps one leaf and so its root."""
    ids = tuple(draw(st.lists(_NAME, min_size=6, max_size=6, unique=True)))
    countries = draw(st.lists(_NAME, min_size=1, max_size=4, unique=True))
    classes = {c: draw(st.sampled_from(InnovatorClass)) for c in countries}
    policy = draw(st.sampled_from(MissingPolicy))
    rows = []
    for year in draw(st.lists(st.integers(1990, 2100), min_size=1, max_size=2, unique=True)):
        for c in countries:
            leaves = ids[2:4] + ids[5:] + (ids[4:5] if classes[c] is InnovatorClass.NONCORE else ())
            kept = [leaf for leaf in leaves
                    if policy is MissingPolicy.STRICT or draw(st.booleans())] or [ids[5]]
            rows += [(year, c, leaf, draw(st.floats(0.0, 100.0) if leaf == ids[5]
                                          else st.floats(1.0, 7.0))) for leaf in kept]
    return _computed(ids, classes, policy, rows)


#: Node ids and countries that a '%' template would read, as the two
#: policies score them: under RENORMALIZE, '%s' lacks both S leaves, so its
#: walk drops them and A, and 'C{' lacks B.
_ODD_IDS = ("R%s", "A{0}", "%", "S,2", "}", "H%%")
_ODD_CLASSES = {"%s": InnovatorClass.NONCORE, "C{": InnovatorClass.NONCORE,
                ",": InnovatorClass.CORE, "%d": InnovatorClass.CORE}
_ODD_ROWS = [(year, c, leaf, 1.5 + 0.25 * i + 0.5 * j + (year - 2005))
             for year in (2005, 2006) for i, c in enumerate(_ODD_CLASSES)
             for j, leaf in enumerate(("%", "S,2", "}", "H%%"))
             if leaf != "}" or _ODD_CLASSES[c] is InnovatorClass.NONCORE]
_ODD_DROPPED = [row for row in _ODD_ROWS
                if (row[1], row[2]) not in {("%s", "%"), ("%s", "S,2"), ("C{", "}")}]

_ODD_NAMES = ['"', "\\", "é", "\U0001d11e", "\x7f", "<&>", "%s", "{0}", ","]
_ODD_SCORES = [1.0, 7.0, 1.0000005, 6.9999995, 3, True, Fraction(13, 3)]


_ODD_TABLE = ScoreTable(2006, {(c, n): _ODD_SCORES[(i + j) % 7]
                               for i, c in enumerate(_ODD_NAMES)
                               for j, n in enumerate(_ODD_NAMES) if i != j})
_ODD_TABLES = {2007: ScoreTable(2007, {("é", "<&>"): 6.9999995, ("\x7f", '"'): Fraction(7)}),
               2005: ScoreTable(2005, {("\U0001d11e", "%s"): True, ("\\", "<&>"): 1.0000005})}


@settings(max_examples=150, deadline=None)
@given(table=_score_table(2006), tables=_year_tables(), computed=_computed_tables())
@example(table=_ODD_TABLE, tables=_ODD_TABLES,
         computed=_computed(_ODD_IDS, _ODD_CLASSES, MissingPolicy.STRICT, _ODD_ROWS))
@example(table=_ODD_TABLE, tables=_ODD_TABLES,
         computed=_computed(_ODD_IDS, _ODD_CLASSES, MissingPolicy.RENORMALIZE, _ODD_DROPPED))
def test_score_reports_match_a_per_cell_oracle(table, tables, computed):
    assert (render_report(table, "csv"), render_report(table, "json")) == _per_cell_reports(table)
    # compute_all's tables render as the same entries in a table of their own
    plain = {year: ScoreTable(year, dict(t.entries)) for year, t in computed.items()}
    for year, t in computed.items():
        assert (render_report(t, "csv"), render_report(t, "json")) == _per_cell_reports(t)
        for format in ("csv", "json"):
            assert render_report(t, format) == render_report(plain[year], format)
        for node in plain[year].nodes():
            assert render_report(t, "svg", node) == render_report(plain[year], "svg", node)
    for node in sorted({n for t in plain.values() for n in t.nodes()}):
        assert (render_report(computed, "csv", node),
                render_report(computed, "json", node)) == _per_cell_reports(computed, node)
        for format in ("csv", "json", "svg"):
            assert render_report(computed, format, node) == render_report(plain, format, node)
    # every node a table holds, and one none holds: a header-only csv, "scores": []
    for node in sorted({n for t in tables.values() for _, n in t.entries}) + ["not-a-node"]:
        assert (render_report(tables, "csv", node),
                render_report(tables, "json", node)) == _per_cell_reports(tables, node)
    assert render_report(tables, "csv", "not-a-node") == "year,country,node,score\n"
    assert json.loads(render_report(tables, "json", "not-a-node")) == {"scores": []}
