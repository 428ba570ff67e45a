from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from gcindex.engine import MissingPolicy, compute_all
from gcindex.errors import (
    NotAnAncestorPathError,
    OverrideOutOfScaleError,
    UnknownCountryError,
)
from gcindex.ingest import emit_report, load_score_table
from gcindex.model import (
    IndexTree,
    InnovatorClass,
    Node,
    Observation,
    Panel,
    ScoreTable,
    validate_tree,
)
from gcindex.ranking import rank_scores
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
            rows.append(Observation(2006, country, leaf, g))
    panel = Panel(rows)
    return compute_all(component_tree, panel, 2006), panel.classes


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
                rows.append(Observation(2006, country, leaf, round(rng.uniform(2.0, 6.0), 2)))
        panel = Panel(rows)
        scores = compute_all(component_tree, panel, 2006)
        override = 5.5
        outcome = apply_scenario(
            component_tree, scores, panel.classes, Scenario("B", "CS", override)
        )
        mutated = [
            o if not (o.country == "B" and o.indicator == "CS")
            else Observation(2006, "B", "CS", override)
            for o in rows
        ]
        recomputed = compute_all(component_tree, Panel(mutated), 2006)
        for (country, node), score in recomputed.entries.items():
            assert outcome.new_scores.score(country, node) == pytest.approx(score, abs=1e-12)

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
    rows = [Observation(2006, "A", leaf, 4.5)
            for leaf in ("TI", "CLS", "CS", "MSS", "CCR", "GW")]
    rows += [Observation(2006, "B", leaf, 4.0) for leaf in ("TI", "CLS", "CS", "MSS")]
    panel = Panel(rows)
    scores = compute_all(component_tree, panel, 2006, MissingPolicy.RENORMALIZE)
    outcome = apply_scenario(
        component_tree, scores, panel.classes, Scenario("B", "MSS", 5.5)
    )
    assert outcome.new_scores.score("B", "MEI") == pytest.approx(5.5, abs=1e-12)
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
    rows = [Observation(2006, "A", leaf, 4.5)
            for leaf in ("TI", "CLS", "CS", "MSS", "CCR", "GW")]
    rows += [Observation(2006, "B", leaf, 4.0) for leaf in ("TI", "CLS", "CS")]
    rows.append(Observation(2006, "B", "MSS", 2.0))
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
        Observation(2006, f"C{i:02d}", leaf, rng.uniform(2.0, 6.0))
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


@given(
    levels=st.lists(st.sampled_from([2.0, 3.0, 3.5, 4.0, 5.0]), min_size=1, max_size=8),
    pick=st.integers(0, 7),
    override=st.sampled_from([1.0, 2.0, 3.0, 3.5, 4.0, 5.0, 7.0]),
)
def test_counted_ranks_equal_rank_scores(component_tree, levels, pick, override):
    # every component of a country holds its level, so equal levels tie on
    # GCI, and overrides from the same grid tie them again (exactly: the
    # aggregate is rounded once)
    targets = {f"c{i}": level for i, level in enumerate(levels)}
    scores, classes = _three_country_table(component_tree, targets)
    country = f"c{pick % len(levels)}"
    outcome = apply_scenario(component_tree, scores, classes, Scenario(country, "TI", override))
    assert outcome.baseline_rank == rank_scores(scores, "GCI").rank(country)
    assert outcome.new_rank == rank_scores(outcome.new_scores, "GCI").rank(country)


class _ScanCountingDict(dict):
    """Counts Python-level iterations over the keys; get() and the C-level
    copy in a {**d} merge do not iterate through __iter__."""

    scans = 0

    def __iter__(self):
        self.scans += 1
        return super().__iter__()


def test_country_index_built_once_per_query(component_tree):
    computed, classes = _three_country_table(
        component_tree, {c: 2.0 + i / 10 for i, c in enumerate("ABCDEFGH")}
    )
    entries = _ScanCountingDict(computed.entries)
    scores = ScoreTable(computed.year, entries)
    delta = min_delta_for_rank_gain(component_tree, scores, classes, "A", 3, "TI")
    outcome = apply_scenario(
        component_tree, scores, classes, Scenario("A", "TI", scores.score("A", "TI") + delta)
    )
    assert outcome.delta_rank >= 3
    assert rank_scores(outcome.new_scores, "GCI").rank("A") == outcome.new_rank
    assert entries.scans == 1
    # the scenario's table shares the base table's index instead of rescanning
    assert outcome.new_scores.countries() is scores.countries()


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
    rows = [Observation(2006, f"C{i:02d}", leaf, rng.uniform(2.0, 6.0))
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
