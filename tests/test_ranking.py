from random import Random

import pytest
from hypothesis import example, given, strategies as st

from gcindex.errors import EmptyIntersectionError, MissingNodeError
from gcindex.model import RankTable, ScoreTable
from gcindex.ranking import (
    format_delta,
    rank_delta,
    rank_scores,
    rank_table_from_indicator,
)


def _table(scores, year=2006, node="GCI"):
    return ScoreTable(year=year, entries={(c, node): s for c, s in scores.items()})


class TestRankScores:
    def test_descending_order(self):
        ranks = rank_scores(_table({"A": 4.77, "B": 4.35, "C": 4.02}), "GCI")
        assert ranks.ranks == {"A": 1, "B": 2, "C": 3}

    def test_competition_tie_rule(self):
        ranks = rank_scores(_table({"A": 5.0, "B": 5.0, "C": 3.0}), "GCI")
        assert ranks.ranks == {"A": 1, "B": 1, "C": 3}

    def test_singleton(self):
        assert rank_scores(_table({"A": 2.2}), "GCI").ranks == {"A": 1}

    def test_missing_node(self):
        with pytest.raises(MissingNodeError):
            rank_scores(_table({"A": 3.0}), "TI")

    def test_partial_node_coverage_is_an_error(self):
        table = ScoreTable(year=2006, entries={("A", "GCI"): 3.0, ("B", "TI"): 3.0})
        with pytest.raises(MissingNodeError):
            rank_scores(table, "GCI")

    def test_ranks_consistent_with_competition_policy(self):
        rng = Random(7)
        for _ in range(50):
            n = rng.randint(1, 12)
            scores = {f"c{i:02d}": rng.choice([2.0, 3.0, 3.5, 4.0, 5.0]) for i in range(n)}
            ranks = rank_scores(_table(scores), "GCI")
            for country, score in scores.items():
                better = sum(1 for s in scores.values() if s > score)
                assert ranks.rank(country) == better + 1

    @given(
        scores=st.dictionaries(
            st.text(alphabet="ABCDEFGH", min_size=1, max_size=3),
            st.floats(2.0, 3.0),
            min_size=1,
            max_size=8,
        ),
        a=st.floats(0.5, 2.0),
        b=st.floats(0.0, 0.5),
    )
    @example(scores={"A": 2.0000000000000004, "B": 2.0}, a=1.9999999999999998, b=0.5)
    def test_order_invariant_under_affine_transform(self, scores, a, b):
        moved = {c: a * s + b for c, s in scores.items()}
        base = rank_scores(_table(scores), "GCI")
        transformed = rank_scores(_table(moved), "GCI")
        # A positive affine map is monotone in floats too, but rounding
        # a * s + b can merge two scores an ulp apart into one float, a true
        # tie.  So the ranks follow the competition rule on the moved scores,
        # never reverse an order, and equal the old ranks when nothing merged.
        for country, score in moved.items():
            better = sum(1 for s in moved.values() if s > score)
            assert transformed.rank(country) == better + 1
        for c, s in scores.items():
            for d, t in scores.items():
                if s > t:
                    assert transformed.rank(c) <= transformed.rank(d)
        if len(set(moved.values())) == len(set(scores.values())):
            assert transformed.ranks == base.ranks


class TestRankDelta:
    def test_identical_tables_give_zero(self):
        table = RankTable(year=2005, ranks={"A": 1, "B": 2})
        report = rank_delta(table, RankTable(year=2006, ranks={"A": 1, "B": 2}))
        assert report.deltas == {"A": 0, "B": 0}

    def test_two_country_swap_signs(self):
        prev = RankTable(year=2005, ranks={"A": 1, "B": 2})
        cur = RankTable(year=2006, ranks={"A": 2, "B": 1})
        report = rank_delta(prev, cur)
        assert report.deltas == {"A": -1, "B": 1}

    def test_fixture_movements(self, balkans):
        panel, _ = balkans
        prev = rank_table_from_indicator(panel, 2005, "GCI_RANK")
        cur = rank_table_from_indicator(panel, 2006, "GCI_RANK")
        report = rank_delta(prev, cur)
        assert report.deltas["Turkey"] == 9
        assert report.deltas["Croatia"] == 6
        assert report.deltas["Bulgaria"] == -6
        assert report.deltas["Macedonia"] == -2
        assert report.deltas["Slovenia"] == 2
        assert report.deltas["Greece"] == 0
        # the two stated extremes really are the extremes
        assert max(report.deltas.values()) == 9
        assert min(report.deltas.values()) == -6

    def test_entrants_and_leavers_not_folded_in(self):
        prev = RankTable(year=2005, ranks={"A": 1, "B": 2, "GONE": 3})
        cur = RankTable(year=2006, ranks={"A": 2, "B": 1, "NEW": 3})
        report = rank_delta(prev, cur)
        assert set(report.deltas) == {"A", "B"}
        assert report.entrants == ("NEW",)
        assert report.leavers == ("GONE",)

    def test_empty_intersection(self):
        with pytest.raises(EmptyIntersectionError):
            rank_delta(RankTable(year=2005, ranks={"A": 1}), RankTable(year=2006, ranks={"B": 1}))

    def test_zero_sum_over_closed_set_without_ties(self):
        rng = Random(99)
        for _ in range(30):
            n = rng.randint(2, 10)
            countries = [f"c{i}" for i in range(n)]
            prev_order = countries[:]
            cur_order = countries[:]
            rng.shuffle(prev_order)
            rng.shuffle(cur_order)
            prev = RankTable(year=2005, ranks={c: i + 1 for i, c in enumerate(prev_order)})
            cur = RankTable(year=2006, ranks={c: i + 1 for i, c in enumerate(cur_order)})
            assert sum(rank_delta(prev, cur).deltas.values()) == 0


def test_format_delta_matches_report_style():
    assert format_delta(9) == "+9"
    assert format_delta(-6) == "-6"
    assert format_delta(0) == "0"


def test_rank_table_from_indicator_rejects_non_integers(balkans):
    panel, _ = balkans
    with pytest.raises(MissingNodeError):
        rank_table_from_indicator(panel, 2006, "PII")  # scores, not ranks
