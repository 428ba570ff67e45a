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
    _aggregate,
    compute_all,
    evaluate_node,
    normalize_minmax,
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
    Normalization,
    Observation,
    Panel,
)
from util import make_assignment, make_random_tree, oracle_eval, reference_scores

CORE = InnovatorClass.CORE
NONCORE = InnovatorClass.NONCORE


class TestNormalizeMinmax:
    def test_endpoints_and_midpoint(self):
        norm = Normalization(min=10.0, max=50.0)
        assert normalize_minmax(10.0, norm) == 1.0
        assert normalize_minmax(50.0, norm) == 7.0
        assert normalize_minmax(30.0, norm) == 4.0

    def test_clamps_outside_bounds(self):
        norm = Normalization(min=0.0, max=1.0)
        assert normalize_minmax(-3.0, norm) == 1.0
        assert normalize_minmax(9.0, norm) == 7.0

    def test_degenerate_range(self):
        norm = Normalization(min=0.0, max=1.0)
        object.__setattr__(norm, "max", 0.0)  # bypass the constructor check
        with pytest.raises(DegenerateRangeError):
            normalize_minmax(0.5, norm)

    @given(
        x=st.floats(-1e6, 1e6),
        lo=st.floats(-1e3, 1e3),
        span=st.floats(1e-3, 1e3),
    )
    def test_always_lands_on_scale(self, x, lo, span):
        score = normalize_minmax(x, Normalization(min=lo, max=lo + span))
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
            compute_all(subtree, _panel([(2006, "X", "IS", 4.0)]), 2006)
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


def _panel(rows, classes=None):
    return Panel([Observation(*r) for r in rows], classes)


class TestComputeAll:
    def test_noncore_composite(self, component_tree):
        rows = [(2006, "A", "TI", 4.5), (2006, "A", "CLS", 3.0), (2006, "A", "CS", 5.0),
                (2006, "A", "MSS", 4.0), (2006, "A", "CCR", 6.0), (2006, "A", "GW", 2.0)]
        table = compute_all(component_tree, _panel(rows), 2006)
        assert table.score("A", "PII") == pytest.approx(4.0, abs=1e-12)
        assert table.score("A", "MEI") == pytest.approx(4.0, abs=1e-12)
        assert table.score("A", "GCI") == pytest.approx(25.0 / 6.0, abs=1e-12)

    def test_core_composite(self, component_tree):
        rows = [(2006, "A", "TI", 4.5), (2006, "A", "CLS", 3.0), (2006, "A", "CS", 5.0),
                (2006, "A", "MSS", 4.0), (2006, "A", "CCR", 6.0), (2006, "A", "GW", 2.0)]
        table = compute_all(component_tree, _panel(rows, {"A": CORE}), 2006)
        assert table.score("A", "GCI") == pytest.approx(4.25, abs=1e-12)

    def test_class_sensitivity(self, component_tree):
        # TI above the institutions/macro mean, so the 1/2 weight wins.
        rows = [(2006, "A", "TI", 4.5), (2006, "A", "CLS", 4.0), (2006, "A", "CS", 4.0),
                (2006, "A", "MSS", 4.0), (2006, "A", "CCR", 4.0), (2006, "A", "GW", 4.0)]
        core = compute_all(component_tree, _panel(rows, {"A": CORE}), 2006)
        noncore = compute_all(component_tree, _panel(rows, {"A": NONCORE}), 2006)
        assert core.score("A", "GCI") > noncore.score("A", "GCI")

    def test_missing_leaf_lists_all_pairs(self, component_tree):
        rows = [(2006, "A", "TI", 4.5), (2006, "B", "TI", 4.0)]
        with pytest.raises(MissingLeafError) as err:
            compute_all(component_tree, _panel(rows), 2006)
        assert ("A", "CLS") in err.value.missing
        assert ("B", "GW") in err.value.missing

    def test_year_not_found(self, component_tree):
        rows = [(2006, "A", "TI", 4.5)]
        with pytest.raises(MissingLeafError, match="year 1999 not found"):
            compute_all(component_tree, _panel(rows), 1999)

    def test_renormalize_drops_missing_children(self, component_tree):
        # B lacks CCR and GW: MEI collapses onto MSS alone.
        rows = [(2006, "B", "TI", 4.0), (2006, "B", "CLS", 4.0), (2006, "B", "CS", 4.0),
                (2006, "B", "MSS", 5.0)]
        table = compute_all(component_tree, _panel(rows), 2006, MissingPolicy.RENORMALIZE)
        assert table.score("B", "MEI") == pytest.approx(5.0, abs=1e-12)
        assert table.score("B", "GCI") == pytest.approx((4.0 + 4.0 + 5.0) / 3.0, abs=1e-12)
        assert table.get("B", "CCR") is None

    def test_renormalize_still_fails_with_no_data(self, component_tree):
        rows = [(2006, "A", "TI", 4.0), (2006, "A", "CLS", 4.0), (2006, "A", "CS", 4.0),
                (2006, "A", "MSS", 4.0), (2006, "A", "CCR", 4.0), (2006, "A", "GW", 4.0),
                (2006, "B", "unrelated", 1.0)]
        with pytest.raises(MissingLeafError):
            compute_all(component_tree, _panel(rows), 2006, MissingPolicy.RENORMALIZE)

    def test_observed_bounds_normalization(self, wef_tree):
        # Three countries span each hard indicator; the middle one lands mid-scale.
        rows = []
        for country, survey, hard in (("LO", 1.0, 0.0), ("MID", 3.0, 50.0), ("HI", 5.0, 100.0)):
            for leaf in wef_tree.leaves(NONCORE):
                hard_leaf = wef_tree.node(leaf).normalize is not None
                rows.append((2006, country, leaf, hard if hard_leaf else survey))
        table = compute_all(wef_tree, _panel(rows), 2006)
        assert table.score("LO", "ICThd") == pytest.approx(1.0, abs=1e-12)
        assert table.score("MID", "ICThd") == pytest.approx(4.0, abs=1e-12)
        assert table.score("HI", "ICThd") == pytest.approx(7.0, abs=1e-12)

    def test_observed_bounds_degenerate_when_constant(self, wef_tree):
        rows = []
        for country in ("A", "B"):
            for leaf in wef_tree.leaves(NONCORE):
                rows.append((2006, country, leaf, 4.0))
        with pytest.raises(DegenerateRangeError):
            compute_all(wef_tree, _panel(rows), 2006)

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


def _wef_panel(tree, n_countries, seed, drop=()):
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
    return _panel(rows, classes)


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
        panel = _wef_panel(tree, n_countries, seed=n_countries, drop=drop)
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
        leaves = panel.slice_year(2006, tree.leaves())
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
        panel = _panel(rows)
        touched.clear()
        table = compute_all(component_tree, panel, 2006)
        assert {year: n for year, n in touched.items() if year != 2006} == {}
        only = _panel([(int(y), c, leaf, v) for y, c, leaf, v in rows if y == 2006])
        assert table == compute_all(component_tree, only, 2006)


class TestExactSum:
    #: Scores on the edges of the 2**-52 grid: the scale ends, the first
    #: float above 1, and the last floats below 2 and 7.
    EDGES = (1.0, math.nextafter(1.0, 2.0), math.nextafter(2.0, 1.0),
             math.nextafter(7.0, 1.0), 7.0)

    def test_matches_fraction_sum_bit_for_bit(self):
        # _aggregate takes the plan's integer weights; the oracle sums the
        # node's rational weights as Fractions and rounds once.
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
                assert _aggregate(ints) == float(sum(w * Fraction(s) for w, s in full))
                # renormalized: drop a random proper subset of the children
                kept = [i for i in range(len(full)) if rng.random() < 0.6] or [0]
                if len(kept) < len(full):
                    total = sum(full[i][0] for i in kept)
                    expected = float(sum((full[i][0] / total) * Fraction(full[i][1]) for i in kept))
                    assert _aggregate([ints[i] for i in kept]) == expected
                checked += 1
        assert checked > 500

    @pytest.mark.parametrize("weights", [(1, 1), (1, 2, 3), (7, 1, 5, 3), (1,)])
    def test_grid_edge_scores(self, weights):
        for scores in itertools.product(self.EDGES, repeat=len(weights)):
            parts = list(zip(weights, scores))
            total = sum(weights)
            expected = float(sum(Fraction(a, total) * Fraction(s) for a, s in parts))
            assert _aggregate(parts).hex() == expected.hex()
            assert min(scores) <= _aggregate(parts) <= max(scores)


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
            panel = _panel(rows, classes)
            self._assert_bit_identical(compute_all(tree, panel, 2006, policy),
                                       reference_scores(tree, panel, 2006))

    @pytest.mark.parametrize("policy,drop", [
        (MissingPolicy.STRICT, ()),
        (MissingPolicy.RENORMALIZE, ("internet_hosts", "TTS")),
    ])
    def test_wef_tree_with_observed_bounds(self, wef_tree, policy, drop):
        panel = _wef_panel(wef_tree, 60, seed=17, drop=drop)
        assert any(wef_tree.node(leaf).normalize == OBSERVED for leaf in wef_tree.leaves())
        self._assert_bit_identical(compute_all(wef_tree, panel, 2006, policy),
                                   reference_scores(wef_tree, panel, 2006))
