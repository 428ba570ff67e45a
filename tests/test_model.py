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
    Observation,
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
        Observation(year=1980, country="A", indicator="x", value=1.0)
    with pytest.raises(ValueError):
        Observation(year=2101, country="A", indicator="x", value=1.0)


@pytest.mark.parametrize("country,indicator", [("", "x"), ("A B", "x"), ("A", ""), ("A", "x y")])
def test_observation_rejects_whitespace_tokens(country, indicator):
    with pytest.raises(ValueError):
        Observation(year=2005, country=country, indicator=indicator, value=1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_observation_rejects_non_finite_value(value):
    with pytest.raises(ValueError):
        Observation(year=2005, country="A", indicator="x", value=value)


def test_panel_rejects_duplicate_keys():
    obs = [
        Observation(2005, "A", "x", 1.0),
        Observation(2005, "A", "x", 2.0),
    ]
    with pytest.raises(DuplicateKeyError):
        Panel(obs)


def test_panel_requires_class_for_every_country():
    obs = [Observation(2005, "A", "x", 1.0), Observation(2005, "B", "x", 2.0)]
    with pytest.raises(MissingClassError):
        Panel(obs, {"A": InnovatorClass.CORE})


def test_panel_defaults_to_noncore():
    panel = Panel([Observation(2005, "A", "x", 1.0)])
    assert panel.innovator_class("A") is InnovatorClass.NONCORE


def test_normalization_requires_max_above_min():
    with pytest.raises(ValueError):
        Normalization(min=3.0, max=3.0)


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


@pytest.mark.parametrize("bad", [float("nan"), 0.5, 7.5])
def test_with_overrides_rejects_out_of_scale_update(bad):
    table = ScoreTable(year=2005, entries={("A", "GCI"): 4.0, ("A", "TI"): 4.0})
    with pytest.raises(ValueError):
        table.with_overrides("A", {"TI": 4.5, "GCI": bad})


def test_with_overrides_keeps_equality_and_country_index():
    table = ScoreTable(year=2005, entries={("A", "GCI"): 4.0, ("B", "GCI"): 3.0})
    assert table.countries() == ("A", "B")
    same = table.with_overrides("B", {"GCI": 3.0})
    assert same == table
    assert same.countries() is table.countries()
    grown = table.with_overrides("C", {"GCI": 5.0})
    assert grown.countries() == ("A", "B", "C")
    assert grown == ScoreTable(2005, {("A", "GCI"): 4.0, ("B", "GCI"): 3.0, ("C", "GCI"): 5.0})


def test_rank_table_rejects_nonpositive_rank():
    with pytest.raises(ValueError):
        RankTable(year=2005, ranks={"A": 0})
