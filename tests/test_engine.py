import itertools
import math
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from gcindex import engine
from gcindex.engine import (
    MissingPolicy,
    _aggregate_columns,
    compute_all,
    evaluate_node,
)
from gcindex.errors import (
    DanglingChildError,
    DegenerateRangeError,
    MissingLeafError,
    OutOfScaleError,
)
from gcindex.model import (
    OBSERVED,
    IndexTree,
    InnovatorClass,
    Node,
    Normalization,
    Panel,
)
from util import aggregate, make_assignment, make_random_tree, oracle_eval, reference_scores

CORE = InnovatorClass.CORE
NONCORE = InnovatorClass.NONCORE


class TestNormalizeMinmax:
    def test_endpoints_and_midpoint(self):
        norm = Normalization(min=10.0, max=50.0)
        assert engine._normalize([10.0], norm)[0] == 1.0
        assert engine._normalize([50.0], norm)[0] == 7.0
        assert engine._normalize([30.0], norm)[0] == 4.0

    def test_clamps_outside_bounds(self):
        norm = Normalization(min=0.0, max=1.0)
        assert engine._normalize([-3.0], norm)[0] == 1.0
        assert engine._normalize([9.0], norm)[0] == 7.0

    def test_degenerate_range(self):
        norm = Normalization(min=0.0, max=1.0)
        object.__setattr__(norm, "max", 0.0)  # bypass the constructor check
        with pytest.raises(DegenerateRangeError):
            engine._normalize([0.5], norm)[0]

    @given(
        x=st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0]),
        lo=st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0]),
        span=st.floats(1e-3, 1e3),
        at=st.sampled_from([None, "min", "max"]),
    )
    def test_is_the_clamped_formula_bit_for_bit(self, x, lo, span, at):
        norm = Normalization(min=lo, max=lo + span)
        x = {None: x, "min": norm.min, "max": norm.max}[at]
        clamped = min(max(x, norm.min), norm.max)
        expected = min(7.0, max(1.0, 1.0 + 6.0 * (clamped - norm.min) / (norm.max - norm.min)))
        assert engine._normalize([x], norm)[0].hex() == expected.hex()

    @given(
        x=st.floats(-1e6, 1e6),
        lo=st.floats(-1e3, 1e3),
        span=st.floats(1e-3, 1e3),
    )
    def test_always_lands_on_scale(self, x, lo, span):
        score = engine._normalize([x], Normalization(min=lo, max=lo + span))[0]
        assert 1.0 <= score <= 7.0


class TestEvaluateNode:
    def test_ict_and_technology_noncore(self, technology_tree):
        leaves = {("X", "IS"): 4.0, ("X", "TTS"): 4.0,
                  ("X", "ICTsd"): 3.0, ("X", "ICThd"): 6.0}
        icts = evaluate_node(technology_tree, "ICTS", NONCORE, leaves, "X")
        ti = evaluate_node(technology_tree, "TI", NONCORE, leaves, "X")
        assert icts == pytest.approx(5.0, abs=1e-12)
        assert ti == pytest.approx(4.5, abs=1e-12)

    def test_technology_core_ignores_transfer(self, technology_tree):
        leaves = {("X", "IS"): 4.0, ("X", "TTS"): 4.0,
                  ("X", "ICTsd"): 3.0, ("X", "ICThd"): 6.0}
        ti = evaluate_node(technology_tree, "TI", CORE, leaves, "X")
        assert ti == pytest.approx(4.5, abs=1e-12)  # 1/2*4 + 1/2*5

    def test_equal_leaves_propagate(self, technology_tree):
        for s in (1.0, 3.3, 7.0):
            leaves = {("X", leaf): s for leaf in technology_tree.leaves()}
            for node in technology_tree.reachable(NONCORE):
                assert evaluate_node(technology_tree, node, NONCORE, leaves, "X") == pytest.approx(s, abs=1e-12)

    def test_missing_leaf_strict(self, technology_tree):
        with pytest.raises(MissingLeafError):
            evaluate_node(technology_tree, "TI", NONCORE, {("X", "IS"): 4.0}, "X")

    @pytest.mark.parametrize("node,absent", [
        ("TI", [("X", "ICThd"), ("X", "ICTsd"), ("X", "TTS")]),
        ("ICTS", [("X", "ICThd"), ("X", "ICTsd")]),
    ])
    def test_missing_leaves_listed_like_compute_all(self, technology_tree, node, absent):
        leaves = {("X", "IS"): 4.0}
        with pytest.raises(MissingLeafError) as err:
            evaluate_node(technology_tree, node, NONCORE, leaves, "X")
        assert list(err.value.missing) == absent
        subtree = IndexTree(technology_tree.nodes, node)
        with pytest.raises(MissingLeafError) as whole:
            compute_all(subtree, Panel([(2006, "X", "IS", 4.0)]), 2006)
        assert whole.value.missing == err.value.missing

    def test_unknown_node_is_a_domain_error(self, technology_tree):
        for _ in range(2):
            with pytest.raises(DanglingChildError, match="^unknown node 'NOPE'$"):
                evaluate_node(technology_tree, "NOPE", NONCORE, {("X", "IS"): 4.0}, "X")

    def test_unnormalized_leaf_out_of_scale(self, technology_tree):
        leaves = {("X", "IS"): 40.0, ("X", "TTS"): 4.0,
                  ("X", "ICTsd"): 3.0, ("X", "ICThd"): 6.0}
        with pytest.raises(OutOfScaleError):
            evaluate_node(technology_tree, "TI", NONCORE, leaves, "X")

    def test_matches_bruteforce_oracle_on_small_trees(self):
        rng = Random(20240210)
        for _ in range(60):
            tree = make_random_tree(rng)
            if len(tree.nodes) > 12:
                continue
            leaves = make_assignment(rng, tree)
            mine = evaluate_node(tree, tree.root, NONCORE, leaves, "X")
            ref = oracle_eval(tree, tree.root, NONCORE, leaves, "X")
            assert mine == pytest.approx(ref, abs=1e-12)


class TestComputeAll:
    def test_noncore_composite(self, component_tree):
        rows = [(2006, "A", "TI", 4.5), (2006, "A", "CLS", 3.0), (2006, "A", "CS", 5.0),
                (2006, "A", "MSS", 4.0), (2006, "A", "CCR", 6.0), (2006, "A", "GW", 2.0)]
        table = compute_all(component_tree, Panel(rows), 2006)
        assert table.score("A", "PII") == pytest.approx(4.0, abs=1e-12)
        assert table.score("A", "MEI") == pytest.approx(4.0, abs=1e-12)
        assert table.score("A", "GCI") == pytest.approx(25.0 / 6.0, abs=1e-12)

    def test_core_composite(self, component_tree):
        rows = [(2006, "A", "TI", 4.5), (2006, "A", "CLS", 3.0), (2006, "A", "CS", 5.0),
                (2006, "A", "MSS", 4.0), (2006, "A", "CCR", 6.0), (2006, "A", "GW", 2.0)]
        table = compute_all(component_tree, Panel(rows, {"A": CORE}), 2006)
        assert table.score("A", "GCI") == pytest.approx(4.25, abs=1e-12)

    def test_class_sensitivity(self, component_tree):
        # TI above the institutions/macro mean, so the 1/2 weight wins.
        rows = [(2006, "A", "TI", 4.5), (2006, "A", "CLS", 4.0), (2006, "A", "CS", 4.0),
                (2006, "A", "MSS", 4.0), (2006, "A", "CCR", 4.0), (2006, "A", "GW", 4.0)]
        core = compute_all(component_tree, Panel(rows, {"A": CORE}), 2006)
        noncore = compute_all(component_tree, Panel(rows, {"A": NONCORE}), 2006)
        assert core.score("A", "GCI") > noncore.score("A", "GCI")

    def test_missing_leaf_lists_all_pairs(self, component_tree):
        rows = [(2006, "A", "TI", 4.5), (2006, "B", "TI", 4.0)]
        with pytest.raises(MissingLeafError) as err:
            compute_all(component_tree, Panel(rows), 2006)
        assert ("A", "CLS") in err.value.missing
        assert ("B", "GW") in err.value.missing

    def test_year_not_found(self, component_tree):
        rows = [(2006, "A", "TI", 4.5)]
        with pytest.raises(MissingLeafError, match="year 1999 not found"):
            compute_all(component_tree, Panel(rows), 1999)

    def test_renormalize_drops_missing_children(self, component_tree):
        # B lacks CCR and GW: MEI collapses onto MSS alone.
        rows = [(2006, "B", "TI", 4.0), (2006, "B", "CLS", 4.0), (2006, "B", "CS", 4.0),
                (2006, "B", "MSS", 5.0)]
        table = compute_all(component_tree, Panel(rows), 2006, MissingPolicy.RENORMALIZE)
        assert table.score("B", "MEI") == pytest.approx(5.0, abs=1e-12)
        assert table.score("B", "GCI") == pytest.approx((4.0 + 4.0 + 5.0) / 3.0, abs=1e-12)
        assert table.get("B", "CCR") is None

    def test_renormalize_still_fails_with_no_data(self, component_tree):
        rows = [(2006, "A", "TI", 4.0), (2006, "A", "CLS", 4.0), (2006, "A", "CS", 4.0),
                (2006, "A", "MSS", 4.0), (2006, "A", "CCR", 4.0), (2006, "A", "GW", 4.0),
                (2006, "B", "unrelated", 1.0)]
        with pytest.raises(MissingLeafError):
            compute_all(component_tree, Panel(rows), 2006, MissingPolicy.RENORMALIZE)

    def test_observed_bounds_normalization(self, wef_tree):
        # Three countries span each hard indicator; the middle one lands mid-scale.
        rows = []
        for country, survey, hard in (("LO", 1.0, 0.0), ("MID", 3.0, 50.0), ("HI", 5.0, 100.0)):
            for leaf in wef_tree.leaves(NONCORE):
                hard_leaf = wef_tree.node(leaf).normalize is not None
                rows.append((2006, country, leaf, hard if hard_leaf else survey))
        table = compute_all(wef_tree, Panel(rows), 2006)
        assert table.score("LO", "ICThd") == pytest.approx(1.0, abs=1e-12)
        assert table.score("MID", "ICThd") == pytest.approx(4.0, abs=1e-12)
        assert table.score("HI", "ICThd") == pytest.approx(7.0, abs=1e-12)

    def test_observed_bounds_span_countries_whose_class_skips_the_leaf(self):
        # H is scored for core countries only; the non-core value 0.0 still
        # sets its observed minimum.
        tree = IndexTree({
            "R": Node("R", edges_by_class={CORE: (("H", Fraction(1, 2)), ("S", Fraction(1, 2))),
                                           NONCORE: (("S", Fraction(1)),)}),
            "H": Node("H", normalize=OBSERVED), "S": Node("S"),
        }, "R")
        rows = [(2006, "A", "H", 10.0), (2006, "A", "S", 2.0), (2006, "B", "H", 20.0),
                (2006, "B", "S", 2.0), (2006, "C", "H", 0.0), (2006, "C", "S", 2.0)]
        panel = Panel(rows, {"A": CORE, "B": CORE, "C": NONCORE})
        table = compute_all(tree, panel, 2006)
        assert (table.score("A", "H"), table.score("B", "H")) == (4.0, 7.0)
        assert table.get("C", "H") is None
        wanted = set(tree.leaves())
        leaves = {k: v for k, v in panel.year_values(2006).items() if k[1] in wanted}
        assert evaluate_node(tree, "H", CORE, leaves, "A") == 4.0

    def test_observed_bounds_degenerate_when_constant(self, wef_tree):
        rows = []
        for country in ("A", "B"):
            for leaf in wef_tree.leaves(NONCORE):
                rows.append((2006, country, leaf, 4.0))
        with pytest.raises(DegenerateRangeError):
            compute_all(wef_tree, Panel(rows), 2006)

    def test_determinism(self, balkans):
        panel, tree = balkans
        first = compute_all(tree, panel, 2006)
        second = compute_all(tree, panel, 2006)
        assert first.entries == second.entries
        for key in first.entries:
            assert math.copysign(1.0, first.entries[key]) == math.copysign(1.0, second.entries[key])


class TestTreeProperties:
    def test_convexity_and_monotonicity(self):
        rng = Random(987)
        for _ in range(120):
            tree = make_random_tree(rng)
            leaves = make_assignment(rng, tree)
            scores = {
                node: evaluate_node(tree, node, NONCORE, leaves, "X")
                for node in tree.reachable(NONCORE)
            }
            for node_id in tree.reachable(NONCORE):
                node = tree.node(node_id)
                if node.is_leaf:
                    continue
                child_scores = [scores[c] for c, _ in node.children(NONCORE)]
                assert min(child_scores) <= scores[node_id] <= max(child_scores)
            # bump one leaf: no ancestor may decrease
            leaf = rng.choice(list(tree.leaves()))
            bumped = dict(leaves)
            bumped[("X", leaf)] = min(7.0, leaves[("X", leaf)] + rng.uniform(0.0, 1.0))
            for node_id in tree.reachable(NONCORE):
                after = evaluate_node(tree, node_id, NONCORE, bumped, "X")
                assert after >= scores[node_id] - 1e-15


def _wefPanel(tree, n_countries, seed, drop=()):
    """One complete 2006 year for n countries, a fifth of them core; leaves in
    `drop` are absent for everyone."""
    rng = Random(seed)
    rows, classes = [], {}
    for i in range(n_countries):
        country = f"C{i:04d}"
        classes[country] = CORE if i % 5 == 0 else NONCORE
        for leaf in tree.leaves():
            if leaf in drop:
                continue
            hard = tree.node(leaf).normalize is not None
            value = rng.uniform(0.0, 500.0) if hard else rng.uniform(1.0, 7.0)
            rows.append((2006, country, leaf, value))
    return Panel(rows, classes)


class TestLinearCost:
    @pytest.mark.parametrize("n_countries", [10, 200])
    @pytest.mark.parametrize("policy,drop", [
        (MissingPolicy.STRICT, ()),
        (MissingPolicy.RENORMALIZE, ("internet_hosts",)),
    ])
    def test_bounds_once_per_leaf_and_one_walk_per_class(
        self, wef_tree, monkeypatch, n_countries, policy, drop
    ):
        tree = IndexTree(wef_tree.nodes, wef_tree.root)  # nothing walked or weighed yet
        panel = _wefPanel(tree, n_countries, seed=n_countries, drop=drop)
        observed = {leaf for leaf in tree.leaves() if tree.node(leaf).normalize == OBSERVED}
        bounds_calls = Counter()
        walks = Counter()
        builds = Counter()
        real_bounds = engine.observed_bounds
        real_reachable = IndexTree.reachable

        def counting_bounds(values, leaf_id):
            bounds_calls[leaf_id] += 1
            return real_bounds(values, leaf_id)

        def counting_reachable(self, cls=None):
            walks[cls] += 1
            return real_reachable(self, cls)

        def counting_build(kind, real):
            def build(self, cls):
                builds[(kind, cls)] += 1
                return real(self, cls)
            return build

        monkeypatch.setattr(engine, "observed_bounds", counting_bounds)
        monkeypatch.setattr(IndexTree, "reachable", counting_reachable)
        monkeypatch.setattr(IndexTree, "_walk", counting_build("walk", IndexTree._walk))
        monkeypatch.setattr(IndexTree, "_weigh", counting_build("weigh", IndexTree._weigh))
        table = compute_all(tree, panel, 2006, policy)
        assert bounds_calls == Counter({leaf: 1 for leaf in observed - set(drop)})
        assert all(count == 1 for count in walks.values())
        assert len(table.countries()) == n_countries
        # one walk (order) and one integer weighting (plan) per class, ever;
        # the union order was walked above, to build the panel
        once = Counter({("walk", CORE): 1, ("walk", NONCORE): 1,
                        ("weigh", CORE): 1, ("weigh", NONCORE): 1})
        assert builds == once
        assert compute_all(tree, panel, 2006, policy) == table
        assert builds == once
        # evaluate_node below the root walks and weighs the rooted subtree
        # once per node and class, however often it is asked
        builds.clear()
        wanted = set(tree.leaves())
        leaves = {k: v for k, v in panel.year_values(2006).items() if k[1] in wanted}
        for i in range(20):
            country = table.countries()[i % 10]  # C0000 and C0005 are core
            score = evaluate_node(tree, "TI", panel.innovator_class(country), leaves, country,
                                  policy)
            assert score == table.score(country, "TI")
        assert builds == once

    def test_reads_only_its_year(self, component_tree):
        # Every key comparison against a year other than the scored one is a
        # row of that year read; scoring 2006 must read none of them.
        touched = Counter()

        class Year(int):
            __hash__ = int.__hash__

            def __eq__(self, other):
                touched[int(self)] += 1
                return int.__eq__(self, other)

        leaves = ("TI", "CLS", "CS", "MSS", "CCR", "GW")
        rows = [(Year(year), country, leaf, 1.0 + (year - 2003) + 0.5 * i)
                for year in (2003, 2004, 2005, 2006, 2007)
                for i, country in enumerate(("A", "B", "C"))
                for leaf in leaves]
        panel = Panel(rows)
        touched.clear()
        table = compute_all(component_tree, panel, 2006)
        assert {year: n for year, n in touched.items() if year != 2006} == {}
        only = Panel([(int(y), c, leaf, v) for y, c, leaf, v in rows if y == 2006])
        assert table == compute_all(component_tree, only, 2006)


def _one_country(parts):
    """_aggregate_columns over one country's (integer weight, score) pairs."""
    return _aggregate_columns([(a, [s]) for a, s in parts], 1)[0]


class TestExactSum:
    #: Scores on the edges of the 2**-52 grid: the scale ends, the first
    #: float above 1, and the last floats below 2 and 7.
    EDGES = (1.0, math.nextafter(1.0, 2.0), math.nextafter(2.0, 1.0),
             math.nextafter(7.0, 1.0), 7.0)

    def test_matches_fraction_sum_bit_for_bit(self):
        # _aggregate_columns takes the plan's integer weights, here down
        # one-country columns; the oracle sums the node's rational weights as
        # Fractions and rounds once.
        rng = Random(31337)
        checked = 0
        for _ in range(500):
            tree = make_random_tree(rng, max_depth=3, max_children=6)
            for node_id, _, weights in tree.plan(NONCORE):
                if not weights:
                    continue
                edges = tree.node(node_id).children(NONCORE)
                assert [child for child, _ in weights] == [child for child, _ in edges]
                scores = [rng.uniform(1.0, 7.0) for _ in edges]
                if rng.random() < 0.3:
                    scores = [rng.choice(self.EDGES + (1.0 + 2.0 ** -51, 7.0 - 2.0 ** -50, 4.0))
                              for _ in edges]
                full = list(zip((w for _, w in edges), scores))
                ints = list(zip((a for _, a in weights), scores))
                assert _one_country(ints) == float(sum(w * Fraction(s) for w, s in full))
                # renormalized: drop a random proper subset of the children
                kept = [i for i in range(len(full)) if rng.random() < 0.6] or [0]
                if len(kept) < len(full):
                    total = sum(full[i][0] for i in kept)
                    expected = float(sum((full[i][0] / total) * Fraction(full[i][1]) for i in kept))
                    assert _one_country([ints[i] for i in kept]) == expected
                checked += 1
        assert checked > 500

    @pytest.mark.parametrize("weights", [(1, 1), (1, 2, 3), (7, 1, 5, 3), (1,)])
    def test_grid_edge_scores(self, weights):
        for scores in itertools.product(self.EDGES, repeat=len(weights)):
            parts = list(zip(weights, scores))
            total = sum(weights)
            expected = float(sum(Fraction(a, total) * Fraction(s) for a, s in parts))
            assert _one_country(parts).hex() == expected.hex()
            assert min(scores) <= _one_country(parts) <= max(scores)

    @pytest.mark.parametrize("weights", [(1, 1), (1, 2, 3), (7, 1, 5, 3), (1,)])
    @pytest.mark.parametrize("gaps", [False, True])
    def test_columns_are_aggregate_bit_for_bit(self, weights, gaps):
        # one country per combination of grid-edge scores; with gaps, None
        # (a dropped child) is one more choice in every position
        rows = list(itertools.product(self.EDGES + ((None,) if gaps else ()), repeat=len(weights)))
        columns = [list(column) for column in zip(*rows)]
        got = _aggregate_columns(list(zip(weights, columns)), len(rows))
        for row, score in zip(rows, got):
            parts = [(a, s) for a, s in zip(weights, row) if s is not None]
            if not parts:
                assert score is None
                continue
            assert score.hex() == aggregate(parts).hex()

    @pytest.mark.parametrize("weights,gapped", [
        ((1, 1), (0,)),  # a gap-free column after a gapped one
        ((2, 1, 3), (0,)),
        ((3, 1), (1,)),  # a gapped column after a gap-free one
        ((1, 3, 1, 2), (1, 3)),  # weights of 1 and above, each gap-free and gapped
    ])
    def test_columns_with_gaps_in_some_children(self, weights, gapped):
        # only the children in `gapped` have gaps: a gap-free child's weight
        # counts for every country, a gapped one's only where it scores
        pools = [self.EDGES + ((None,) if i in gapped else ()) for i in range(len(weights))]
        rows = list(itertools.product(*pools))
        columns = [list(column) for column in zip(*rows)]
        assert [None in column for column in columns] == [i in gapped for i in range(len(weights))]
        got = _aggregate_columns(list(zip(weights, columns)), len(rows))
        for row, score in zip(rows, got):
            parts = [(a, s) for a, s in zip(weights, row) if s is not None]
            assert score.hex() == aggregate(parts).hex()

    def test_columns_without_children_have_no_scores(self):
        assert _aggregate_columns([], 3) == [None, None, None]


class TestMatchesReference:
    """compute_all against tests/util.reference_scores, bit for bit."""

    @staticmethod
    def _assert_bit_identical(table, expected):
        assert {k: v.hex() for k, v in table.entries.items()} == \
            {k: v.hex() for k, v in expected.items()}

    @pytest.mark.parametrize("policy", list(MissingPolicy))
    def test_random_per_class_trees(self, policy):
        rng = Random(4242)
        for _ in range(60):
            tree = make_random_tree(rng, max_depth=4, max_children=5, per_class=True)
            rows, classes = [], {}
            for i in range(8):
                country = f"C{i}"
                classes[country] = CORE if i % 3 == 0 else NONCORE
                needed = tree.leaves(classes[country])
                for j, leaf in enumerate(tree.leaves()):
                    if policy is MissingPolicy.RENORMALIZE and leaf != needed[0] \
                            and rng.random() < 0.3:
                        continue  # dropped; the class's first leaf always stays
                    value = rng.choice((1.0, math.nextafter(1.0, 2.0), math.nextafter(2.0, 1.0),
                                        math.nextafter(7.0, 1.0), 7.0, rng.uniform(1.0, 7.0)))
                    rows.append((2006, country, leaf, value))
            panel = Panel(rows, classes)
            self._assert_bit_identical(compute_all(tree, panel, 2006, policy),
                                       reference_scores(tree, panel, 2006))

    @pytest.mark.parametrize("policy,drop", [
        (MissingPolicy.STRICT, ()),
        (MissingPolicy.RENORMALIZE, ("internet_hosts", "TTS")),
    ])
    def test_wef_tree_with_observed_bounds(self, wef_tree, policy, drop):
        panel = _wefPanel(wef_tree, 60, seed=17, drop=drop)
        assert any(wef_tree.node(leaf).normalize == OBSERVED for leaf in wef_tree.leaves())
        self._assert_bit_identical(compute_all(wef_tree, panel, 2006, policy),
                                   reference_scores(wef_tree, panel, 2006))


#: R over A (S1, S2), B and H for non-core, over A and H for core; H takes
#: observed bounds, the other leaves are survey data.  Plans: core S1 S2 A H R,
#: non-core S1 S2 A B H R.
_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)
_FAULT_TREE = IndexTree({
    "R": Node("R", edges_by_class={CORE: (("A", _HALF), ("H", _HALF)),
                                   NONCORE: (("A", _THIRD), ("B", _THIRD), ("H", _THIRD))}),
    "A": Node("A", edges=(("S1", _HALF), ("S2", _HALF))),
    "S1": Node("S1"), "S2": Node("S2"), "B": Node("B"), "H": Node("H", normalize=OBSERVED),
}, "R")
_FAULT_COUNTRIES = tuple(f"C{i}" for i in range(6))
_FAULT_CLASSES = {c: CORE if i % 2 else NONCORE for i, c in enumerate(_FAULT_COUNTRIES)}


def _fault_panel(changes):
    """One clean 2006 year for C0..C5 (odd ones core) with `changes` applied;
    a None value drops the cell."""
    cells = {(c, leaf): 1.5 + 0.25 * i + 0.5 * j
             for i, c in enumerate(_FAULT_COUNTRIES) for j, leaf in enumerate(("S1", "S2", "B"))}
    cells.update({(c, "H"): 10.0 * i for i, c in enumerate(_FAULT_COUNTRIES)})
    cells.update(changes)
    return Panel([(2006, c, leaf, v) for (c, leaf), v in cells.items() if v is not None],
                 _FAULT_CLASSES)


def _scale(leaf, country, value):
    return (OutOfScaleError,
            f"leaf {leaf!r} for {country}: {value} outside [1, 7] and no normalization")


_FLAT_H = {(c, "H"): 3.0 for c in _FAULT_COUNTRIES}
_DEGENERATE = (DegenerateRangeError,
               "observed range for leaf 'H' is degenerate: all values equal 3.0")
_NO_DATA = {("C1", "S1"): None, ("C1", "S2"): None, ("C1", "B"): None, ("C1", "H"): None,
            ("C1", "X"): 1.0}
_CLEAN = {"C0": "0x1.c000000000000p+0", "C1": "0x1.0cccccccccccdp+1",
          "C2": "0x1.7111111111111p+1", "C3": "0x1.c666666666666p+1",
          "C4": "0x1.0111111111111p+2", "C5": "0x1.4000000000000p+2"}

#: name -> (changed cells, compute_all's error under STRICT, under RENORMALIZE,
#: evaluate_node's outcome per country under STRICT (an error or the root
#: score's hex), the countries whose outcome differs under RENORMALIZE).
#: Every expectation was recorded while scoring still walked one country at a
#: time: the error is the first fault in country order, then plan order,
#: after STRICT's list of absent leaves.
_FAULT_CASES = {
    "scale faults: the first country's comes latest in its plan": (
        {("C2", "B"): 8.5, ("C4", "S1"): 0.5, ("C3", "S2"): 9.0},
        _scale("B", "C2", 8.5), _scale("B", "C2", 8.5),
        {**_CLEAN, "C2": _scale("B", "C2", 8.5), "C3": _scale("S2", "C3", 9.0),
         "C4": _scale("S1", "C4", 0.5)}, {}),
    "a core country's scale fault before a non-core one's": (
        {("C1", "S2"): 7.5, ("C2", "S1"): 0.25},
        _scale("S2", "C1", 7.5), _scale("S2", "C1", 7.5),
        {**_CLEAN, "C1": _scale("S2", "C1", 7.5), "C2": _scale("S1", "C2", 0.25)}, {}),
    "degenerate bounds at the first country, a scale fault at the second": (
        {**_FLAT_H, ("C1", "S1"): 8.0},
        _DEGENERATE, _DEGENERATE,
        {**{c: _DEGENERATE for c in _FAULT_COUNTRIES}, "C1": _scale("S1", "C1", 8.0)}, {}),
    "a scale fault at the first country before degenerate bounds": (
        {**_FLAT_H, ("C0", "B"): 0.0},
        _scale("B", "C0", 0.0), _scale("B", "C0", 0.0),
        {**{c: _DEGENERATE for c in _FAULT_COUNTRIES}, "C0": _scale("B", "C0", 0.0)}, {}),
    "absent leaves listed before any scale fault": (
        {("C4", "S2"): None, ("C1", "H"): None, ("C0", "S1"): 9.0, ("C5", "B"): None},
        (MissingLeafError, "missing leaf values: (('C1', 'H'), ('C4', 'S2'))"),
        _scale("S1", "C0", 9.0),
        {**_CLEAN, "C0": _scale("S1", "C0", 9.0),
         "C1": (MissingLeafError, "missing leaf values: (('C1', 'H'),)"),
         "C4": (MissingLeafError, "missing leaf values: (('C4', 'S2'),)")},
        {"C1": "0x1.0000000000000p+1", "C4": "0x1.f777777777777p+1"}),
    "a country without root data before a later scale fault": (
        {**_NO_DATA, ("C3", "S1"): 0.0},
        (MissingLeafError, "missing leaf values: (('C1', 'H'), ('C1', 'S1'), ('C1', 'S2'))"),
        (MissingLeafError, "country 'C1' has no usable data for 2006"),
        {**_CLEAN, "C1": (MissingLeafError,
                          "missing leaf values: (('C1', 'H'), ('C1', 'S1'), ('C1', 'S2'))"),
         "C3": _scale("S1", "C3", 0.0)}, {}),
    "a scale fault before a country without root data": (
        {**{("C3", leaf): None for leaf in ("S1", "S2", "B", "H")}, ("C3", "X"): 1.0,
         ("C2", "H"): None, ("C2", "B"): 7.25, ("C5", "S1"): 9.5},
        (MissingLeafError,
         "missing leaf values: (('C2', 'H'), ('C3', 'H'), ('C3', 'S1'), ('C3', 'S2'))"),
        _scale("B", "C2", 7.25),
        {**_CLEAN, "C2": (MissingLeafError, "missing leaf values: (('C2', 'H'),)"),
         "C3": (MissingLeafError, "missing leaf values: (('C3', 'H'), ('C3', 'S1'), ('C3', 'S2'))"),
         "C5": _scale("S1", "C5", 9.5)},
        {"C2": _scale("B", "C2", 7.25)}),
}


class TestFirstFault:
    """Several bad cells in one year: compute_all raises the first fault in
    country order, then plan order (STRICT's absent list first), and
    evaluate_node the first of its own country."""

    @pytest.mark.parametrize("case", list(_FAULT_CASES))
    @pytest.mark.parametrize("policy", list(MissingPolicy))
    def test_compute_all_raises_the_first_fault(self, case, policy):
        changes, strict, renormalize, _, _ = _FAULT_CASES[case]
        error, message = strict if policy is MissingPolicy.STRICT else renormalize
        with pytest.raises(error) as raised:
            compute_all(_FAULT_TREE, _fault_panel(changes), 2006, policy)
        assert type(raised.value) is error
        assert str(raised.value) == message

    def test_a_country_without_root_data_lists_its_class_leaves_in_plan_order(self):
        with pytest.raises(MissingLeafError) as raised:
            compute_all(_FAULT_TREE, _fault_panel(_NO_DATA), 2006, MissingPolicy.RENORMALIZE)
        assert raised.value.missing == (("C1", "S1"), ("C1", "S2"), ("C1", "H"))

    @pytest.mark.parametrize("case", list(_FAULT_CASES))
    @pytest.mark.parametrize("policy", list(MissingPolicy))
    def test_evaluate_node_raises_its_countrys_first_fault(self, case, policy):
        changes, _, _, outcomes, renormalized = _FAULT_CASES[case]
        if policy is MissingPolicy.RENORMALIZE:
            outcomes = {**outcomes, **renormalized}
        panel = _fault_panel(changes)
        wanted = set(_FAULT_TREE.leaves())
        leaves = {k: v for k, v in panel.year_values(2006).items() if k[1] in wanted}
        for country, expected in outcomes.items():
            cls = _FAULT_CLASSES[country]
            if isinstance(expected, str):
                score = evaluate_node(_FAULT_TREE, "R", cls, leaves, country, policy)
                assert score.hex() == expected
                continue
            error, message = expected
            with pytest.raises(error) as raised:
                evaluate_node(_FAULT_TREE, "R", cls, leaves, country, policy)
            assert type(raised.value) is error
            assert str(raised.value) == message


class TestEntryOrder:
    """ScoreTable entries come country by country, each in its class's plan
    order, so repr(table) does not depend on how the year was walked."""

    @pytest.mark.parametrize("policy", list(MissingPolicy))
    def test_country_order_then_plan_order(self, policy):
        rng = Random(2718)
        for _ in range(30):
            tree = make_random_tree(rng, max_depth=4, max_children=5, per_class=True)
            rows, classes = [], {}
            for i in range(9):
                country = f"K{(7 * i) % 9}"  # classes interleave in country order
                classes[country] = CORE if i % 3 == 1 else NONCORE
                needed = tree.leaves(classes[country])
                for leaf in tree.leaves():
                    if policy is MissingPolicy.RENORMALIZE and leaf != needed[0] \
                            and rng.random() < 0.3:
                        continue
                    rows.append((2006, country, leaf, rng.uniform(1.0, 7.0)))
            panel = Panel(rows, classes)
            table = compute_all(tree, panel, 2006, policy)
            scored = reference_scores(tree, panel, 2006)
            expected = [(c, n) for c in panel.countries(2006)
                        for n, _, _ in tree.plan(classes[c]) if (c, n) in scored]
            assert list(table.entries) == expected
            assert table.countries() == panel.countries(2006)


class TestScatteredGaps:
    def test_observed_and_survey_columns_with_gaps_match_the_reference(self, wef_tree):
        # RENORMALIZE with single cells missing here and there, observed
        # leaves included: bit for bit the reference, in entry order
        rng = Random(99)
        panel = _wefPanel(wef_tree, 40, seed=5)
        rows = [(2006, c, leaf, panel.value(2006, c, leaf))
                for c in panel.countries(2006) for leaf in wef_tree.leaves()
                if rng.random() > 0.15]
        gappy = Panel(rows, panel.classes)
        table = compute_all(wef_tree, gappy, 2006, MissingPolicy.RENORMALIZE)
        expected = reference_scores(wef_tree, gappy, 2006)
        assert {k: v.hex() for k, v in table.entries.items()} == \
            {k: v.hex() for k, v in expected.items()}
        assert list(table.entries) == [
            (c, n) for c in gappy.countries(2006)
            for n, _, _ in wef_tree.plan(gappy.innovator_class(c)) if (c, n) in expected]


class TestIntegerValues:
    @pytest.mark.parametrize("policy", list(MissingPolicy))
    def test_integer_values_score_as_their_float_twins(self, wef_tree, policy):
        # a Panel built from rows may hold ints: survey leaves, gap-free or
        # not, and hard leaves all score the floats of the same panel in float
        rng = Random(4)
        rows, classes = [], {}
        for i in range(12):
            country = f"C{i:02d}"
            classes[country] = CORE if i % 4 == 0 else NONCORE
            for j, leaf in enumerate(wef_tree.leaves()):
                if policy is MissingPolicy.RENORMALIZE and j % 3 == 0 and (i + j) % 5 == 0:
                    continue  # a gap in every third leaf's column
                hard = wef_tree.node(leaf).normalize is not None
                rows.append((2006, country, leaf, rng.randint(0, 500) if hard else rng.randint(1, 7)))
        ints = compute_all(wef_tree, Panel(rows, classes), 2006, policy)
        floats = compute_all(wef_tree, Panel([(*row[:3], float(row[3])) for row in rows], classes),
                             2006, policy)
        assert list(ints.entries) == list(floats.entries)
        assert [s.hex() for s in ints.entries.values()] == \
            [s.hex() for s in floats.entries.values()]
