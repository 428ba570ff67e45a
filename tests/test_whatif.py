from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, strategies as st

from gcindex import whatif
from gcindex.engine import MissingPolicy, compute_all
from gcindex.errors import (
    MissingNodeError,
    NotAnAncestorPathError,
    OverrideOutOfScaleError,
    UnknownCountryError,
)
from gcindex.ingest import emit_report, load_score_table
from gcindex.model import (
    IndexTree,
    InnovatorClass,
    Node,
    Panel,
    ScoreTable,
    validate_tree,
)
from gcindex.ranking import rank_scores, score_column
from gcindex.whatif import (
    STRICT_MARGIN,
    Scenario,
    apply_scenario,
    min_delta_for_rank_gain,
    min_delta_to_overtake,
    path_weight,
)
from util import oracle_eval

NONCORE = InnovatorClass.NONCORE
CORE = InnovatorClass.CORE


def _three_country_table(component_tree, gci_targets):
    """Panel where every component equals the GCI target, so GCI == target."""
    rows = []
    for country, g in gci_targets.items():
        for leaf in ("TI", "CLS", "CS", "MSS", "CCR", "GW"):
            rows.append((2006, country, leaf, g))
    panel = Panel(rows)
    return compute_all(component_tree, panel, 2006), panel.classes


def _scenario_table(base, outcome):
    """The whole table under the scenario: `base`'s entries with the
    outcome's re-derived scores for its country."""
    changed = {(outcome.country, node): s for node, s in outcome.new_scores.items()}
    return ScoreTable(base.year, {**base.entries, **changed})


def _wef_table(wef_tree):
    """compute_all table of the WEF tree over four countries with every leaf,
    two core and two non-core."""
    rng = Random(5)
    classes = {f"w{i}": (CORE if i % 2 else NONCORE) for i in range(4)}
    rows = [(2006, country, leaf, round(rng.uniform(2.0, 6.0), 2))
            for country in classes for leaf in wef_tree.leaves()]
    return compute_all(wef_tree, Panel(rows, classes), 2006), classes


class TestPathWeight:
    def test_direct_component(self, component_tree):
        assert path_weight(component_tree, "TI", NONCORE) == Fraction(1, 3)
        assert path_weight(component_tree, "TI", CORE) == Fraction(1, 2)

    def test_two_level_product(self, component_tree):
        # GCI <- MEI <- CCR: 1/3 * 1/4 for non-core
        assert path_weight(component_tree, "CCR", NONCORE) == Fraction(1, 12)

    def test_root_is_unity(self, component_tree):
        assert path_weight(component_tree, "GCI", NONCORE) == Fraction(1)

    def test_unreachable_node_for_class(self, wef_tree):
        assert path_weight(wef_tree, "TTS", CORE) == Fraction(0)
        assert path_weight(wef_tree, "TTS", NONCORE) == Fraction(3, 8) * Fraction(1, 3)


    def test_shared_child_sums_both_paths(self):
        # S feeds both A and B: R <- A <- S and R <- B <- S
        nodes = {
            "R": Node("R", edges=(("A", Fraction(1, 2)), ("B", Fraction(1, 2)))),
            "A": Node("A", edges=(("S", Fraction(1, 3)), ("X", Fraction(2, 3)))),
            "B": Node("B", edges=(("S", Fraction(3, 4)), ("Y", Fraction(1, 4)))),
            "S": Node("S"),
            "X": Node("X"),
            "Y": Node("Y"),
        }
        tree = validate_tree(IndexTree(nodes=nodes, root="R"))
        weight = path_weight(tree, "S", NONCORE)
        assert weight == Fraction(1, 2) * Fraction(1, 3) + Fraction(1, 2) * Fraction(3, 4)
        leaves = {("c", "S"): 3.0, ("c", "X"): 5.0, ("c", "Y"): 2.0}
        base = oracle_eval(tree, "R", NONCORE, leaves, "c")
        moved = oracle_eval(tree, "R", NONCORE, {**leaves, ("c", "S"): 4.0}, "c")
        assert moved - base == pytest.approx(float(weight), abs=1e-12)


class TestApplyScenario:
    def test_noop_scenario(self, component_tree):
        scores, classes = _three_country_table(
            component_tree, {"A": 4.0, "B": 3.9, "C": 3.5}
        )
        outcome = apply_scenario(
            component_tree, scores, classes, Scenario("C", "TI", scores.score("C", "TI"))
        )
        assert outcome.delta_rank == 0
        assert outcome.new_gci == outcome.baseline_gci
        assert outcome.new_rank == outcome.baseline_rank == 3

    def test_technology_lift_overtakes_second(self, component_tree):
        scores, classes = _three_country_table(
            component_tree, {"A": 4.0, "B": 3.9, "C": 3.5}
        )
        # dGCI = dTI / 3: lifting TI by 1.35 raises GCI by 0.45, past B but
        # short of A.
        outcome = apply_scenario(component_tree, scores, classes, Scenario("C", "TI", 4.85))
        assert outcome.new_gci == pytest.approx(3.95, abs=1e-12)
        assert outcome.new_rank == 2
        assert outcome.delta_rank == 1

    def test_exact_tie_shares_the_rank(self, component_tree):
        # rational accumulation makes (5.0 + 3.5 + 3.5) / 3 tie A exactly
        scores, classes = _three_country_table(
            component_tree, {"A": 4.0, "B": 3.9, "C": 3.5}
        )
        outcome = apply_scenario(component_tree, scores, classes, Scenario("C", "TI", 5.0))
        assert outcome.new_gci == pytest.approx(4.0, abs=1e-15)
        assert outcome.new_rank == 1

    def test_matches_full_recomputation(self, component_tree):
        rows = []
        rng = Random(42)
        for country in ("A", "B", "C", "D"):
            for leaf in ("TI", "CLS", "CS", "MSS", "CCR", "GW"):
                rows.append((2006, country, leaf, round(rng.uniform(2.0, 6.0), 2)))
        panel = Panel(rows)
        scores = compute_all(component_tree, panel, 2006)
        override = 5.5
        outcome = apply_scenario(
            component_tree, scores, panel.classes, Scenario("B", "CS", override)
        )
        mutated = [
            o if o[1:3] != ("B", "CS")
            else (2006, "B", "CS", override)
            for o in rows
        ]
        recomputed = compute_all(component_tree, Panel(mutated), 2006)
        table = _scenario_table(scores, outcome)
        for (country, node), score in recomputed.entries.items():
            assert table.score(country, node) == pytest.approx(score, abs=1e-12)

    def test_linearity_slope_is_path_weight(self, component_tree):
        scores, classes = _three_country_table(
            component_tree, {"A": 4.0, "B": 3.9, "C": 3.5}
        )
        w = float(path_weight(component_tree, "MSS", NONCORE))
        gci = {}
        for override in (2.0, 3.0, 5.0, 6.5):
            outcome = apply_scenario(component_tree, scores, classes, Scenario("C", "MSS", override))
            gci[override] = outcome.new_gci
        slopes = [
            (gci[b] - gci[a]) / (b - a)
            for a, b in [(2.0, 3.0), (3.0, 5.0), (5.0, 6.5)]
        ]
        for slope in slopes:
            assert slope == pytest.approx(w, abs=1e-12)

    def test_monotone_outcome_in_override(self, component_tree):
        scores, classes = _three_country_table(
            component_tree, {"A": 4.0, "B": 3.9, "C": 3.5, "D": 3.7}
        )
        ranks = [
            apply_scenario(component_tree, scores, classes, Scenario("C", "TI", v)).new_rank
            for v in (1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.0)
        ]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    @pytest.mark.parametrize("cls", [CORE, NONCORE])
    def test_new_scores_are_the_node_and_its_ancestors(self, wef_tree, cls):
        scores, classes = _wef_table(wef_tree)
        country = min(c for c in classes if classes[c] is cls)
        plan = wef_tree.reachable(cls)

        def reaches(start, node):
            return start == node or any(reaches(child, node)
                                        for child, _ in wef_tree.node(start).children(cls))

        for node in plan:
            outcome = apply_scenario(wef_tree, scores, classes, Scenario(country, node, 6.5))
            assert set(outcome.new_scores) == {n for n in plan if reaches(n, node)}
            assert outcome.new_scores[node] == 6.5
            assert outcome.new_scores[wef_tree.root] == outcome.new_gci

    def test_node_off_the_class_plan_changes_nothing_else(self, wef_tree):
        scores, classes = _wef_table(wef_tree)
        assert "TTS" not in wef_tree.reachable(CORE)
        outcome = apply_scenario(wef_tree, scores, classes, Scenario("w1", "TTS", 6.5))
        assert outcome.new_scores == {"TTS": 6.5}
        assert outcome.new_gci == outcome.baseline_gci == scores.score("w1", "GCI")
        assert outcome.delta_rank == 0

    def test_unknown_country(self, component_tree):
        scores, classes = _three_country_table(component_tree, {"A": 4.0, "B": 3.9})
        with pytest.raises(UnknownCountryError):
            apply_scenario(component_tree, scores, classes, Scenario("Z", "TI", 4.0))

    def test_override_out_of_scale(self):
        with pytest.raises(OverrideOutOfScaleError):
            Scenario("A", "TI", 7.5)
        with pytest.raises(OverrideOutOfScaleError):
            Scenario("A", "TI", 0.5)


class TestMinDeltaForRankGain:
    def test_direct_component_closed_form(self, component_tree):
        # C is 0.30 behind B on the composite; the technology path weight is
        # 1/3, so the required component lift is 0.90 plus the strict margin.
        scores, classes = _three_country_table(
            component_tree, {"A": 4.4, "B": 3.8, "C": 3.5}
        )
        delta = min_delta_for_rank_gain(component_tree, scores, classes, "C", 1, "TI")
        assert delta == pytest.approx(0.90, abs=1e-6)
        assert delta > 0.90  # strictly above the tie point

    def test_gain_two_targets_second_score_above(self, component_tree):
        scores, classes = _three_country_table(
            component_tree, {"A": 4.4, "B": 3.8, "C": 3.5}
        )
        delta = min_delta_for_rank_gain(component_tree, scores, classes, "C", 2, "TI")
        assert delta == pytest.approx((4.4 - 3.5) * 3.0, abs=1e-6)

    def test_infeasible_when_gain_exceeds_field(self, component_tree):
        scores, classes = _three_country_table(
            component_tree, {"A": 4.0, "B": 3.9, "C": 3.5}
        )
        assert min_delta_for_rank_gain(component_tree, scores, classes, "C", 99, "TI") is None

    def test_infeasible_when_scale_runs_out(self, component_tree):
        # B needs +3 GCI via MSS whose path weight is 1/12: impossible.
        scores, classes = _three_country_table(component_tree, {"A": 6.9, "B": 3.0})
        assert min_delta_for_rank_gain(component_tree, scores, classes, "B", 1, "MSS") is None

    def test_infeasibility_matches_override_seven(self, component_tree):
        rng = Random(77)
        for _ in range(40):
            targets = {c: round(rng.uniform(2.0, 6.8), 2) for c in "ABCDE"}
            scores, classes = _three_country_table(component_tree, targets)
            country = rng.choice(list(targets))
            k = rng.randint(1, 4)
            node = rng.choice(["TI", "MSS", "CLS"])
            delta = min_delta_for_rank_gain(component_tree, scores, classes, country, k, node)
            best = apply_scenario(
                component_tree, scores, classes, Scenario(country, node, 7.0)
            )
            baseline = rank_scores(scores, "GCI").rank(country)
            achievable = baseline - best.new_rank >= k
            assert (delta is not None) == achievable

    def test_consistency_with_apply_scenario(self, component_tree):
        scores, classes = _three_country_table(
            component_tree, {"A": 4.4, "B": 3.8, "C": 3.5, "D": 4.1}
        )
        for k in (1, 2, 3):
            delta = min_delta_for_rank_gain(component_tree, scores, classes, "C", k, "TI")
            assert delta is not None
            current = scores.score("C", "TI")
            achieved = apply_scenario(
                component_tree, scores, classes, Scenario("C", "TI", current + delta)
            )
            assert achieved.delta_rank >= k
            short = apply_scenario(
                component_tree, scores, classes,
                Scenario("C", "TI", current + delta - 2 * STRICT_MARGIN),
            )
            assert short.delta_rank < k

    def test_closed_form_matches_grid_scan(self, component_tree):
        scores, classes = _three_country_table(
            component_tree, {"A": 4.4, "B": 3.8, "C": 3.5, "D": 4.1}
        )
        step = 1e-4
        for k in (1, 2, 3):
            delta = min_delta_for_rank_gain(component_tree, scores, classes, "C", k, "TI")
            current = scores.score("C", "TI")
            baseline = rank_scores(scores, "GCI").rank("C")
            scanned = None
            for i in range(int((7.0 - current) / step) + 1):
                candidate = i * step
                outcome = apply_scenario(
                    component_tree, scores, classes, Scenario("C", "TI", current + candidate)
                )
                if baseline - outcome.new_rank >= k:
                    scanned = candidate
                    break
            assert scanned is not None
            assert abs(delta - scanned) <= step

    def test_not_an_ancestor_path(self, component_tree):
        scores, classes = _three_country_table(component_tree, {"A": 4.0, "B": 3.5})
        with pytest.raises(NotAnAncestorPathError):
            min_delta_for_rank_gain(component_tree, scores, classes, "B", 1, "nonexistent")


class TestMinDeltaToOvertake:
    def test_already_strictly_above_costs_nothing(self, component_tree):
        scores, classes = _three_country_table(component_tree, {"A": 4.0, "B": 3.5})
        assert min_delta_to_overtake(component_tree, scores, classes, "A", "B", "TI") == 0.0

    def test_matches_rank_gain_for_adjacent_target(self, component_tree):
        scores, classes = _three_country_table(
            component_tree, {"A": 4.4, "B": 3.8, "C": 3.5}
        )
        via_gain = min_delta_for_rank_gain(component_tree, scores, classes, "C", 1, "TI")
        via_target = min_delta_to_overtake(component_tree, scores, classes, "C", "B", "TI")
        assert via_target == pytest.approx(via_gain, abs=1e-15)

    def test_infeasible_target(self, component_tree):
        scores, classes = _three_country_table(component_tree, {"A": 6.9, "B": 3.0})
        assert min_delta_to_overtake(component_tree, scores, classes, "B", "A", "MSS") is None


def test_scenario_on_renormalized_table(component_tree):
    # B has no CCR/GW data; the macro branch collapsed onto MSS.  An MSS
    # override must re-derive with the same rescaled weights.
    rows = [(2006, "A", leaf, 4.5)
            for leaf in ("TI", "CLS", "CS", "MSS", "CCR", "GW")]
    rows += [(2006, "B", leaf, 4.0) for leaf in ("TI", "CLS", "CS", "MSS")]
    panel = Panel(rows)
    scores = compute_all(component_tree, panel, 2006, MissingPolicy.RENORMALIZE)
    outcome = apply_scenario(
        component_tree, scores, panel.classes, Scenario("B", "MSS", 5.5)
    )
    assert _scenario_table(scores, outcome).score("B", "MEI") == pytest.approx(5.5, abs=1e-12)
    assert outcome.new_gci == pytest.approx((4.0 + 4.0 + 5.5) / 3.0, abs=1e-12)


def test_scenario_against_regional_dataset(balkans):
    panel, tree = balkans
    scores = compute_all(tree, panel, 2006)
    classes = panel.classes
    baseline = rank_scores(scores, "GCI").rank("Macedonia")
    outcome = apply_scenario(tree, scores, classes, Scenario("Macedonia", "TI", 4.2))
    assert outcome.baseline_rank == baseline == 8
    assert outcome.new_rank < baseline
    # one-step gain via the technology index
    delta = min_delta_for_rank_gain(tree, scores, classes, "Macedonia", 1, "TI")
    gci_gap = scores.score("Serbia_and_Montenegro", "GCI") - scores.score("Macedonia", "GCI")
    assert delta == pytest.approx(3.0 * gci_gap, abs=1e-6)


def test_solvers_use_the_renormalized_path_weight(component_tree):
    # B has no CCR/GW data, so under renormalize its MEI is MSS alone and
    # the MSS -> GCI slope is 1/3, not the tree's fixed 1/6.  With the fixed
    # weight both solvers would ask for MSS = 9 and report infeasible.
    rows = [(2006, "A", leaf, 4.5)
            for leaf in ("TI", "CLS", "CS", "MSS", "CCR", "GW")]
    rows += [(2006, "B", leaf, 4.0) for leaf in ("TI", "CLS", "CS")]
    rows.append((2006, "B", "MSS", 2.0))
    panel = Panel(rows)
    scores = compute_all(component_tree, panel, 2006, MissingPolicy.RENORMALIZE)
    delta = min_delta_for_rank_gain(component_tree, scores, panel.classes, "B", 1, "MSS")
    assert delta == pytest.approx(3.5, abs=1e-6)
    outcome = apply_scenario(
        component_tree, scores, panel.classes, Scenario("B", "MSS", 2.0 + delta)
    )
    assert outcome.delta_rank == 1
    overtake = min_delta_to_overtake(component_tree, scores, panel.classes, "B", "A", "MSS")
    assert overtake == delta


def test_solved_deltas_reach_the_gain_on_a_reloaded_score_csv(component_tree, tmp_path):
    # A score CSV keeps 6 decimals, so a stored root can differ from the one
    # apply_scenario re-derives from the stored children by ~1e-6, far more
    # than the solvers' strict margin.
    rng = Random(5)
    rows = [
        (2006, f"C{i:02d}", leaf, rng.uniform(2.0, 6.0))
        for i in range(30)
        for leaf in ("TI", "CLS", "CS", "MSS", "CCR", "GW")
    ]
    panel = Panel(rows)
    path = emit_report(compute_all(component_tree, panel, 2006), "csv", tmp_path / "s.csv")
    scores = load_score_table(path)
    order = sorted(scores.countries(), key=lambda c: -scores.score(c, "GCI"))
    solved = 0
    for above, country in zip(order, order[1:]):
        for node in ("TI", "CS", "MSS"):
            for delta in (
                min_delta_for_rank_gain(component_tree, scores, panel.classes, country, 1, node),
                min_delta_to_overtake(component_tree, scores, panel.classes, country, above, node),
            ):
                if delta is None:
                    continue
                solved += 1
                override = scores.score(country, node) + delta
                outcome = apply_scenario(
                    component_tree, scores, panel.classes, Scenario(country, node, override)
                )
                assert outcome.new_gci > scores.score(above, "GCI")
                assert outcome.delta_rank >= 1
    assert solved >= 60


class _ScanCountingDict(dict):
    """Counts Python-level iterations over the keys, and get() reads per
    node; the C-level copy in a {**d} merge goes through neither."""

    scans = 0

    def __init__(self, *args):
        super().__init__(*args)
        self.reads = Counter()

    def __iter__(self):
        self.scans += 1
        return super().__iter__()

    def get(self, key, default=None):
        self.reads[key[1]] += 1
        return super().get(key, default)


def test_country_index_built_once_per_query(component_tree):
    targets = {c: 2.0 + i / 10 for i, c in enumerate("ABCDEFGH")}
    computed, classes = _three_country_table(component_tree, targets)
    entries = _ScanCountingDict(computed.entries)
    scores = ScoreTable(computed.year, entries)
    for i in range(20):
        country, k = "ABCDEFGH"[i % 8], 1 + i % 3
        delta = min_delta_for_rank_gain(component_tree, scores, classes, country, k, "TI")
        override = 7.0 if delta is None else scores.score(country, "TI") + delta
        outcome = apply_scenario(
            component_tree, scores, classes, Scenario(country, "TI", override)
        )
        # the oracle table is built over the plain entries, so that `scans`
        # and `reads` count only the library's reads
        oracle = _scenario_table(computed, outcome)
        assert rank_scores(oracle, "GCI").rank(country) == outcome.new_rank
        if delta is not None:
            assert outcome.delta_rank >= k
    assert entries.scans == 1
    # 20 queries read each country's root score once: one root column build
    assert entries.reads["GCI"] == len(targets)


def test_queries_reuse_the_walk_order(component_tree, monkeypatch):
    # Builds of a class's order (_walk) and of its integer weights (_weigh)
    # across compute_all and what-if queries: at most one per tree and class.
    walks = []

    def counting(kind, real):
        def build(self, cls):
            walks.append((kind, id(self), cls))
            return real(self, cls)
        return build

    monkeypatch.setattr(IndexTree, "_walk", counting("walk", IndexTree._walk))
    monkeypatch.setattr(IndexTree, "_weigh", counting("weigh", IndexTree._weigh))
    tree = IndexTree(component_tree.nodes, component_tree.root)
    rng = Random(11)
    rows = [(2006, f"C{i:02d}", leaf, rng.uniform(2.0, 6.0))
            for i in range(20)
            for leaf in ("TI", "CLS", "CS", "MSS", "CCR", "GW")]
    panel = Panel(rows, {f"C{i:02d}": (CORE if i % 2 else NONCORE) for i in range(20)})
    scores = compute_all(tree, panel, 2006)

    def query(country, node):
        delta = min_delta_for_rank_gain(tree, scores, panel.classes, country, 1, node)
        override = 7.0 if delta is None else scores.score(country, node) + delta
        apply_scenario(tree, scores, panel.classes, Scenario(country, node, override))

    query("C00", "TI")
    query("C01", "TI")
    assert len(walks) == len(set(walks))  # at most one build per (kind, tree, class)
    assert {(kind, cls) for kind, _, cls in walks} >= {("weigh", CORE), ("weigh", NONCORE)}
    walks.clear()
    for i in range(20):
        query(f"C{i:02d}", ("TI", "CS", "MSS", "GW")[i % 4])
    assert walks == []


def _gapped_wef_table(wef_tree):
    """renormalize compute_all table of the WEF tree over eight countries,
    four per class: two with every leaf and two without some, so that a
    what-if node's ancestors have off-path children without a score."""
    rng = Random(7)
    classes = {f"g{i}": (CORE if i % 2 else NONCORE) for i in range(8)}
    ictsd = {"internet_access_in_schools", "isp_competition_quality", "gov_ict_prioritization",
             "gov_ict_promotion_success", "ict_laws"}
    missing = {"g2": {"IS", "internet_hosts"}, "g3": {"IS", "internet_hosts"},
               "g4": {"TTS", "CCR", *ictsd}, "g5": {"CCR", *ictsd}}
    rows = [(2006, country, leaf, round(rng.uniform(2.0, 6.0), 2))
            for country in classes for leaf in wef_tree.leaves()
            if leaf not in missing.get(country, ())]
    return compute_all(wef_tree, Panel(rows, classes), 2006, MissingPolicy.RENORMALIZE), classes


# TTS is off the core plan of the WEF tree; IS has no score for g2 and g3
_GAPPED_NODES = ("internet_users", "ICThd", "ICTS", "TI", "TTS", "IS", "MSS", "GCI")


def _result(call):
    try:
        return repr(call())
    except (MissingNodeError, NotAnAncestorPathError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_kept_path_weights_do_not_leak_between_gap_patterns(wef_tree):
    # One tree answers every query, each class's gapped and complete
    # countries alternating on each node; each answer must be the one a
    # tree that has kept nothing gives, bit for bit.
    scores, classes = _gapped_wef_table(wef_tree)
    tree = IndexTree(wef_tree.nodes, wef_tree.root)
    top = max(scores.countries(), key=lambda c: scores.score(c, "GCI"))
    queries = {
        "rank gain": lambda t, c, n: min_delta_for_rank_gain(t, scores, classes, c, 1, n),
        "overtake": lambda t, c, n: min_delta_to_overtake(t, scores, classes, c, top, n),
        "apply": lambda t, c, n: apply_scenario(t, scores, classes, Scenario(c, n, 5.5)),
        "path weight": lambda t, c, n: path_weight(t, n, classes[c]),
    }
    order = ["g2", "g0", "g4", "g6", "g3", "g1", "g5", "g7"]
    for node in _GAPPED_NODES:
        for country in order + order[::-1]:
            for name, query in queries.items():
                cold = IndexTree(wef_tree.nodes, wef_tree.root)
                warm_result = _result(lambda: query(tree, country, node))
                assert warm_result == _result(lambda: query(cold, country, node)), (name, country, node)


def test_queries_build_each_ancestor_walk_and_path_weight_once(wef_tree, monkeypatch):
    # Builds of a node's ancestor steps and of its exact path weight across
    # many queries on one tree: one per (class, node) and one per (class,
    # node, gap pattern); a warm query does no Fraction arithmetic at all.
    builds, arithmetic = Counter(), Counter()

    def counting(counter, key, real):
        def call(*args):
            counter[key] += 1
            return real(*args)
        return call

    for kind, name in (("ancestors", "_find_ancestors"), ("weight", "_weigh_path")):
        monkeypatch.setattr(whatif, name, counting(builds, kind, getattr(whatif, name)))
    for op in ("add", "sub", "mul", "truediv"):
        for dunder in (f"__{op}__", f"__r{op}__"):
            monkeypatch.setattr(Fraction, dunder, counting(arithmetic, dunder, getattr(Fraction, dunder)))
    scores, classes = _gapped_wef_table(wef_tree)
    tree = IndexTree(wef_tree.nodes, wef_tree.root)

    def sweep():
        for node in _GAPPED_NODES:
            for k, country in enumerate(sorted(classes)):
                _result(lambda: min_delta_for_rank_gain(tree, scores, classes, country, 1 + k % 3, node))
                apply_scenario(tree, scores, classes, Scenario(country, node, 4.0))
                path_weight(tree, node, classes[country])

    sweep()
    # every build is kept under its own key: as many builds as keys
    kept = {kind: {key[1:] for key in tree._cache if key[0] == kind}
            for kind in ("ancestors", "weight")}
    assert builds == Counter({kind: len(keys) for kind, keys in kept.items()})
    assert kept["ancestors"] == {(cls, node) for cls in InnovatorClass for node in _GAPPED_NODES}
    assert {(CORE, "internet_users", ()), (NONCORE, "internet_users", ()),
            (CORE, "internet_users", ("internet_hosts", "IS")),
            (NONCORE, "ICTS", ("IS",)), (NONCORE, "ICTS", ("TTS",))} <= kept["weight"]
    assert arithmetic
    builds.clear()
    arithmetic.clear()
    for _ in range(3):
        sweep()
    assert builds == Counter()
    assert arithmetic == Counter()


def _scored(component_tree, levels):
    """compute_all table over one leaf row per entry of `levels`; country i
    is core when i is odd."""
    rows = [(2006, f"c{i}", leaf, value)
            for i, row in enumerate(levels)
            for leaf, value in zip(("TI", "CLS", "CS", "MSS", "CCR", "GW"), row)]
    panel = Panel(rows, {f"c{i}": (CORE if i % 2 else NONCORE) for i in range(len(levels))})
    return compute_all(component_tree, panel, 2006), panel.classes


_GRID = [2.0, 3.0, 3.5, 4.0, 5.0]
_SCORE = st.floats(1.0, 7.0)


@given(
    # a grid level on every leaf ties countries exactly on GCI, whatever
    # their class; free leaves give untied tables
    levels=st.lists(
        st.one_of(st.sampled_from(_GRID).map(lambda v: [v] * 6),
                  st.lists(_SCORE, min_size=6, max_size=6)),
        min_size=1, max_size=8),
    pick=st.integers(0, 7),
    node=st.sampled_from(["TI", "CS", "MSS", "GW", "PII", "MEI", "GCI"]),
    override=st.one_of(st.sampled_from(_GRID), _SCORE),
    k=st.integers(0, 10),
)
@example(levels=[[4.0] * 6, [4.0] * 6, [4.0] * 6, [3.0] * 6], pick=3, node="TI",
         override=3.0, k=1)  # three countries tied at the target score
@example(levels=[[4.0] * 6, [4.0] * 6, [3.0] * 6], pick=2, node="TI",
         override=3.0, k=3)  # k past the countries above
def test_counted_ranks_equal_rank_scores(component_tree, levels, pick, node, override, k):
    # ranks against rank_scores, and the solver against the linear target
    # (the k-th root strictly above the country's) solved as an overtake
    scores, classes = _scored(component_tree, levels)
    country = f"c{pick % len(levels)}"
    outcome = apply_scenario(component_tree, scores, classes, Scenario(country, node, override))
    assert outcome.baseline_rank == rank_scores(scores, "GCI").rank(country)
    assert outcome.new_rank == rank_scores(_scenario_table(scores, outcome), "GCI").rank(country)

    root = {c: scores.score(c, "GCI") for c in scores.countries()}
    above = sorted([s for s in root.values() if s > root[country]])
    if k <= 0:
        expected = 0.0
    elif k > len(above):
        expected = None
    else:
        # any country at the target score is the one to overtake
        target = min(c for c in root if root[c] == above[k - 1])
        expected = min_delta_to_overtake(component_tree, scores, classes, country, target, node)
    assert min_delta_for_rank_gain(component_tree, scores, classes, country, k, node) == expected


class TestColumnCache:
    def test_scenario_table_builds_its_own_root(self, component_tree):
        scores, classes = _three_country_table(
            component_tree, {"A": 4.0, "B": 3.9, "C": 3.5}
        )
        rank_scores(scores, "GCI")
        min_delta_for_rank_gain(component_tree, scores, classes, "C", 1, "TI")
        outcome = apply_scenario(component_tree, scores, classes, Scenario("C", "TI", 6.0))
        assert outcome.new_gci != outcome.baseline_gci
        table = _scenario_table(scores, outcome)
        assert score_column(table, "GCI")["C"] == outcome.new_gci
        assert rank_scores(table, "GCI").rank("C") == outcome.new_rank == 1
        again = apply_scenario(component_tree, table, classes,
                               Scenario("C", "TI", scores.score("C", "TI")))
        assert (again.baseline_rank, again.new_rank) == (1, 3)

    def test_mutating_a_returned_column_changes_nothing(self, component_tree):
        scores, classes = _three_country_table(
            component_tree, {"A": 4.0, "B": 3.9, "C": 3.5}
        )
        before = (
            rank_scores(scores, "GCI"),
            min_delta_for_rank_gain(component_tree, scores, classes, "C", 1, "TI"),
            apply_scenario(component_tree, scores, classes, Scenario("C", "TI", 4.85)).new_rank,
        )
        column = score_column(scores, "GCI")
        assert list(column) == ["A", "B", "C"]
        column["C"] = 7.0
        column["Z"] = 1.0
        assert score_column(scores, "GCI") == {"A": 4.0, "B": 3.9, "C": 3.5}
        assert before == (
            rank_scores(scores, "GCI"),
            min_delta_for_rank_gain(component_tree, scores, classes, "C", 1, "TI"),
            apply_scenario(component_tree, scores, classes, Scenario("C", "TI", 4.85)).new_rank,
        )

    def test_incomplete_root_raises_on_every_call(self, component_tree):
        scores = ScoreTable(2006, {("A", "GCI"): 4.0, ("A", "TI"): 4.0, ("B", "TI"): 3.0})
        classes = {"A": NONCORE, "B": NONCORE}
        calls = [
            lambda: score_column(scores, "GCI"),
            lambda: rank_scores(scores, "GCI"),
            lambda: min_delta_for_rank_gain(component_tree, scores, classes, "A", 1, "TI"),
            lambda: min_delta_to_overtake(component_tree, scores, classes, "A", "B", "TI"),
            lambda: apply_scenario(component_tree, scores, classes, Scenario("A", "TI", 5.0)),
        ]
        for call in calls + calls:
            with pytest.raises(MissingNodeError) as exc:
                call()
            assert str(exc.value) == "node 'GCI' has no score for: ['B']"
        # an unknown country wins, then an unknown node
        for error, call in [
            (UnknownCountryError,
             lambda: min_delta_for_rank_gain(component_tree, scores, classes, "Z", 1, "TI")),
            (UnknownCountryError,
             lambda: min_delta_to_overtake(component_tree, scores, classes, "A", "Z", "TI")),
            (UnknownCountryError,
             lambda: apply_scenario(component_tree, scores, classes, Scenario("Z", "NOPE", 5.0))),
            (NotAnAncestorPathError,
             lambda: apply_scenario(component_tree, scores, classes, Scenario("B", "NOPE", 5.0))),
        ]:
            with pytest.raises(error):
                call()

    def test_warm_columns_leave_equality_and_repr_alone(self, component_tree):
        scores, classes = _three_country_table(component_tree, {"A": 4.0, "B": 3.9})
        cold = ScoreTable(scores.year, dict(scores.entries))
        text = repr(scores)
        min_delta_for_rank_gain(component_tree, scores, classes, "B", 1, "TI")
        rank_scores(scores, "TI")
        assert scores == cold and repr(scores) == repr(cold) == text
        assert scores.entries == cold.entries


@pytest.mark.parametrize("node,error", [
    ("nonexistent", NotAnAncestorPathError),
    ("MEI", MissingNodeError),
])
def test_solvers_check_the_node_when_the_goal_is_held(component_tree, node, error):
    # B leads A but has no MEI data, so under renormalize no MEI score
    rows = [(2006, "A", leaf, 4.0)
            for leaf in ("TI", "CLS", "CS", "MSS", "CCR", "GW")]
    rows += [(2006, "B", leaf, 5.0) for leaf in ("TI", "CLS", "CS")]
    panel = Panel(rows)
    scores = compute_all(component_tree, panel, 2006, MissingPolicy.RENORMALIZE)
    for k in (0, 1):
        with pytest.raises(error):
            min_delta_for_rank_gain(component_tree, scores, panel.classes, "B", k, node)
    with pytest.raises(error):
        min_delta_to_overtake(component_tree, scores, panel.classes, "B", "A", node)
