import math
import sys
from fractions import Fraction

import pytest

from gcindex.errors import (
    CycleError,
    DanglingChildError,
    DuplicateKeyError,
    MissingClassError,
    WeightSumError,
)
from gcindex.ingest import default_wef_tree
from gcindex.model import (
    OBSERVED,
    IndexTree,
    InnovatorClass,
    Node,
    Normalization,
    Panel,
    RankTable,
    ScoreTable,
    validate_tree,
)

# The paper's ICT leaves, spelled out here so the tree tests do not read
# the tree's own config.
ICT_SURVEY_LEAVES = (
    "internet_access_in_schools",
    "isp_competition_quality",
    "gov_ict_prioritization",
    "gov_ict_promotion_success",
    "ict_laws",
)
ICT_HARD_LEAVES = (
    "cellular_telephones",
    "internet_users",
    "internet_hosts",
    "telephone_lines",
    "personal_computers",
)


def test_observation_rejects_bad_year():
    with pytest.raises(ValueError):
        Panel([(1980, "A", "x", 1.0)])
    with pytest.raises(ValueError):
        Panel([(2101, "A", "x", 1.0)])


@pytest.mark.parametrize("country,indicator", [("", "x"), ("A B", "x"), ("A", ""), ("A", "x y")])
def test_observation_rejects_whitespace_tokens(country, indicator):
    with pytest.raises(ValueError):
        Panel([(2005, country, indicator, 1.0)])


def test_observation_whitespace_is_str_isspace():
    # Exactly the characters str.isspace() accepts are rejected, NBSP and
    # the information separators (\x1c-\x1f) included.
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    Panel([(2005, "".join(ch for ch in chars if not ch.isspace()), "x", 1.0)])
    spaces = [ch for ch in chars if ch.isspace()]
    assert {"\xa0", "\x1c", "\u2003", " "} <= set(spaces)
    for ch in spaces:
        token = f"x{ch}y"
        with pytest.raises(ValueError) as err:
            Panel([(2005, "A", token, 1.0)])
        assert str(err.value) == f"indicator must be non-empty without whitespace: {token!r}"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_observation_rejects_non_finite_value(value):
    with pytest.raises(ValueError):
        Panel([(2005, "A", "x", value)])


def test_panel_rejects_duplicate_keys():
    obs = [
        (2005, "A", "x", 1.0),
        (2005, "A", "x", 2.0),
    ]
    with pytest.raises(DuplicateKeyError) as err:
        Panel(obs)
    assert str(err.value) == "duplicate observation (2005, 'A', 'x')"


def test_panel_requires_class_for_every_country():
    obs = [(2005, "A", "x", 1.0), (2005, "B", "x", 2.0)]
    with pytest.raises(MissingClassError):
        Panel(obs, {"A": InnovatorClass.CORE})


def test_panel_defaults_to_noncore():
    panel = Panel([(2005, "A", "x", 1.0)])
    assert panel.innovator_class("A") is InnovatorClass.NONCORE


def test_value_reads_one_cell_of_one_year():
    panel = Panel([(2005, "A", "x", 1.0), (2005, "B", "y", 2.0), (2006, "A", "x", 3.0)])
    assert (panel.value(2005, "A", "x"), panel.value(2005, "B", "y")) == (1.0, 2.0)
    assert panel.value(2006, "A", "x") == 3.0
    assert panel.value(2006, "B", "y") is None
    assert panel.value(2004, "A", "x") is None
    assert panel.value(2005, "C", "x") is None


def test_normalization_requires_max_above_min():
    with pytest.raises(ValueError):
        Normalization(min=3.0, max=3.0)


@pytest.mark.parametrize("lo,hi", [(0.0, float("inf")), (float("-inf"), 1.0), (float("nan"), 1.0)])
def test_normalization_requires_finite_bounds(lo, hi):
    with pytest.raises(ValueError) as err:
        Normalization(min=lo, max=hi)
    assert str(err.value) == f"normalization needs finite bounds, got [{lo}, {hi}]"


def test_nested_cache_builds_stay_kept(monkeypatch):
    # A kept result whose build keeps another (ascending -> column ->
    # countries, plan -> walk order) keeps all of them.
    table = ScoreTable(year=2005, entries={("A", "GCI"): 4.0, ("B", "GCI"): 3.0})
    assert table._ascending("GCI") == [3.0, 4.0]
    assert set(table._cache) == {("ascending", "GCI"), ("column", "GCI"), ("countries",)}
    walks = []
    walk = IndexTree._walk
    monkeypatch.setattr(IndexTree, "_walk", lambda self, cls: walks.append(cls) or walk(self, cls))
    tree = IndexTree({"R": Node("R", edges=(("a", Fraction(1)),)), "a": Node("a")}, "R")
    tree.plan(InnovatorClass.CORE)
    assert tree.reachable(InnovatorClass.CORE) == ("a", "R")
    assert walks == [InnovatorClass.CORE]


def test_country_tuple_is_kept_outside_equality():
    entries = {("B", "TI"): 3.0, ("A", "GCI"): 4.0, ("A", "TI"): 2.0}
    warm, cold = ScoreTable(2005, entries), ScoreTable(2005, dict(entries))
    assert warm.countries() is warm.countries() == ("A", "B")
    assert warm == cold and repr(warm) == repr(cold)


class TestValidateTree:
    def test_default_tree_is_valid(self):
        tree = default_wef_tree()
        assert validate_tree(tree) == tree

    def test_validation_is_idempotent(self, wef_tree):
        once = validate_tree(wef_tree)
        twice = validate_tree(once)
        assert once == twice == wef_tree

    def test_weight_sum_violation(self):
        # 1/2 + 1/4 + 1/3 = 13/12
        nodes = {
            "GCI": Node("GCI", edges=(
                ("TI", Fraction(1, 2)), ("PII", Fraction(1, 4)), ("MEI", Fraction(1, 3)),
            )),
            "TI": Node("TI"), "PII": Node("PII"), "MEI": Node("MEI"),
        }
        with pytest.raises(WeightSumError):
            validate_tree(IndexTree(nodes=nodes, root="GCI"))

    def test_cycle_detection(self):
        nodes = {
            "GCI": Node("GCI", edges=(("TI", Fraction(1)),)),
            "TI": Node("TI", edges=(("GCI", Fraction(1)),)),
        }
        with pytest.raises(CycleError):
            validate_tree(IndexTree(nodes=nodes, root="GCI"))

    def test_dangling_child(self):
        nodes = {"GCI": Node("GCI", edges=(("TI", Fraction(1)),))}
        with pytest.raises(DanglingChildError, match="^node 'GCI' references unknown child 'TI'$"):
            validate_tree(IndexTree(nodes=nodes, root="GCI"))

    def test_nonpositive_weight_rejected(self):
        nodes = {
            "GCI": Node("GCI", edges=(("TI", Fraction(3, 2)), ("PII", Fraction(-1, 2)))),
            "TI": Node("TI"), "PII": Node("PII"),
        }
        with pytest.raises(WeightSumError):
            validate_tree(IndexTree(nodes=nodes, root="GCI"))

    def test_cached_order_keeps_equality_and_repr(self, wef_tree):
        fresh = IndexTree(wef_tree.nodes, wef_tree.root)
        text = repr(fresh)
        assert fresh.reachable(InnovatorClass.CORE) is fresh.reachable(InnovatorClass.CORE)
        assert fresh == IndexTree(wef_tree.nodes, wef_tree.root)
        assert repr(fresh) == text

    def test_reachability_is_single_traversal(self, wef_tree):
        reachable = wef_tree.reachable()
        assert len(reachable) == len(set(reachable)) == len(wef_tree.nodes)


class TestDefaultTree:
    def test_node_ids(self, wef_tree):
        assert set(wef_tree.nodes) == {
            "GCI", "TI", "PII", "MEI", "IS", "TTS", "ICTS", "ICTsd", "ICThd",
            "CLS", "CS", "MSS", "CCR", "GW", *ICT_SURVEY_LEAVES, *ICT_HARD_LEAVES,
        }
        assert wef_tree.root == "GCI"

    def test_only_hard_leaves_use_observed_bounds(self, wef_tree):
        for node_id, node in wef_tree.nodes.items():
            expected = OBSERVED if node_id in ICT_HARD_LEAVES else None
            assert node.normalize == expected, node_id

    def test_noncore_gci_weights_are_thirds(self, wef_tree):
        edges = dict(wef_tree.node("GCI").children(InnovatorClass.NONCORE))
        assert edges == {"TI": Fraction(1, 3), "PII": Fraction(1, 3), "MEI": Fraction(1, 3)}

    def test_core_gci_weights(self, wef_tree):
        edges = dict(wef_tree.node("GCI").children(InnovatorClass.CORE))
        assert edges == {"TI": Fraction(1, 2), "PII": Fraction(1, 4), "MEI": Fraction(1, 4)}

    def test_technology_split_per_class(self, wef_tree):
        core = dict(wef_tree.node("TI").children(InnovatorClass.CORE))
        noncore = dict(wef_tree.node("TI").children(InnovatorClass.NONCORE))
        assert core == {"IS": Fraction(1, 2), "ICTS": Fraction(1, 2)}
        assert noncore == {
            "IS": Fraction(1, 8), "TTS": Fraction(3, 8), "ICTS": Fraction(1, 2),
        }

    def test_ict_subindex_weights(self, wef_tree):
        edges = dict(wef_tree.node("ICTS").children(InnovatorClass.NONCORE))
        assert edges == {"ICTsd": Fraction(1, 3), "ICThd": Fraction(2, 3)}

    def test_hard_data_leaves(self, wef_tree):
        edges = wef_tree.node("ICThd").children(InnovatorClass.CORE)
        assert tuple(c for c, _ in edges) == ICT_HARD_LEAVES
        assert all(w == Fraction(1, 5) for _, w in edges)
        for leaf in ICT_HARD_LEAVES:
            assert wef_tree.node(leaf).normalize == OBSERVED

    def test_survey_leaves_equal_weights(self, wef_tree):
        edges = wef_tree.node("ICTsd").children(InnovatorClass.NONCORE)
        assert tuple(c for c, _ in edges) == ICT_SURVEY_LEAVES
        assert all(w == Fraction(1, 5) for _, w in edges)
        for leaf in ICT_SURVEY_LEAVES:
            assert wef_tree.node(leaf).normalize is None

    def test_institution_and_macro_branches(self, wef_tree):
        pii = dict(wef_tree.node("PII").children(InnovatorClass.NONCORE))
        mei = dict(wef_tree.node("MEI").children(InnovatorClass.NONCORE))
        assert pii == {"CLS": Fraction(1, 2), "CS": Fraction(1, 2)}
        assert mei == {"MSS": Fraction(1, 2), "CCR": Fraction(1, 4), "GW": Fraction(1, 4)}

    def test_tts_not_reachable_for_core(self, wef_tree):
        assert "TTS" in wef_tree.reachable(InnovatorClass.NONCORE)
        assert "TTS" not in wef_tree.reachable(InnovatorClass.CORE)


def test_score_table_rejects_out_of_scale():
    with pytest.raises(ValueError):
        ScoreTable(year=2005, entries={("A", "GCI"): 7.5})


@pytest.mark.parametrize("entries,message", [
    ({("A", "GCI"): 4.0, ("A", "TI"): math.nan, ("B", "GCI"): 5.0},
     "score nan for (A, TI) outside [1, 7]"),
    ({("A", "GCI"): 4.0, ("B", "GCI"): 1.0, ("B", "TI"): 7.5, ("C", "GCI"): 0.5},
     "score 7.5 for (B, TI) outside [1, 7]"),
])
def test_score_table_names_the_first_offender_in_entry_order(entries, message):
    with pytest.raises(ValueError) as err:
        ScoreTable(year=2005, entries=entries)
    assert str(err.value) == message


def test_rank_table_rejects_nonpositive_rank():
    with pytest.raises(ValueError):
        RankTable(year=2005, ranks={"A": 0})
