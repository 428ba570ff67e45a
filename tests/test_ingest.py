import json
import xml.etree.ElementTree as ET

import pytest

from gcindex.data import (
    BALKANS_CLASSES,
    BALKANS_PANEL,
    BALKANS_TREE,
    WEF_TREE_CONFIG,
    fixture_path,
)
from gcindex.engine import compute_all
from gcindex.errors import (
    DuplicateKeyError,
    ParseError,
    SchemaError,
    UnsupportedFormatError,
    WeightSumError,
)
from gcindex.ingest import (
    DatasetManifest,
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
        with pytest.raises(DuplicateKeyError, match=r"dup\.csv:3"):
            load_panel(path)

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


class TestDatasetManifest:
    def test_load_bundled(self):
        manifest = DatasetManifest(
            panel=fixture_path(BALKANS_PANEL),
            classes=fixture_path(BALKANS_CLASSES),
            tree=fixture_path(BALKANS_TREE),
        )
        panel, tree, policy = manifest.load()
        assert panel.years() == (2001, 2002, 2003, 2004, 2005, 2006)
        assert tree.root == "GCI"
        assert policy.value == "strict"

    def test_bad_policy(self):
        manifest = DatasetManifest(panel=fixture_path(BALKANS_PANEL), policy="lenient")
        with pytest.raises(SchemaError):
            manifest.load()
