"""Score tables -> rank tables, and year-over-year rank movements.

Sign convention for movements: delta = previous rank - current rank, so a
country that climbs the table gets a positive delta (a rise of nine places
is +9).  The opposite convention is equally common elsewhere; everything in
this package uses this one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Mapping, Tuple

from .errors import EmptyIntersectionError, MissingNodeError
from .model import COMPETITION, Panel, RankTable, ScoreTable, _Record


def _competition_rank(ordered: List[float], own: float, score: float) -> int:
    """Rank at score `score` of the country whose stored score is `own`,
    with every other country's score frozen: 1 + the number of others
    strictly above.  `ordered` is every country's stored score, ascending,
    `own` among them."""
    return 1 + len(ordered) - bisect_right(ordered, score) - (own > score)


def rank_scores(scores: ScoreTable, node: str) -> RankTable:
    """Rank countries by descending score on one node.

    Competition ranking: k countries tied at rank r push the next distinct
    score to rank r + k, so a country's rank is 1 + the number of countries
    with a strictly higher score.  Exactly equal float scores count as ties.
    Ranks come in country order, each bisected from the table's sorted column.
    """
    ordered = scores._ascending(node)
    ranks = {c: _competition_rank(ordered, s, s) for c, s in scores._column(node).items()}
    return RankTable(year=scores.year, ranks=ranks, policy=COMPETITION)


def rank_table_from_indicator(panel: Panel, year: int, indicator: str) -> RankTable:
    """Build a RankTable from ingested standings (e.g. published WEF ranks).

    The indicator's values must be positive integers; they are taken as-is,
    so they may refer to a wider table than the panel's own countries.
    """
    ranks: Dict[str, int] = {}
    for country in panel.countries(year):
        value = panel.value(year, country, indicator)
        if value is None:
            continue
        rank = int(value)
        if rank != value or rank < 1:
            raise MissingNodeError(
                f"indicator {indicator!r} for {country} in {year} is not a positive integer rank: {value}"
            )
        ranks[country] = rank
    if not ranks:
        raise MissingNodeError(f"indicator {indicator!r} has no values for {year}")
    return RankTable(year=year, ranks=ranks, policy="ingested")


class RankDeltaReport(_Record):
    """Rank movements over the common country set, plus coverage changes.

    deltas: country -> previous rank - current rank (positive = rise).
    entrants appear only in the current table, leavers only in the previous.
    """

    prev_year: int
    cur_year: int
    deltas: Mapping[str, int]
    prev_ranks: Mapping[str, int]
    cur_ranks: Mapping[str, int]
    entrants: Tuple[str, ...]
    leavers: Tuple[str, ...]


def rank_delta(prev: RankTable, cur: RankTable) -> RankDeltaReport:
    """Movement of each country between two rank tables.

    Only the intersection of the two country sets gets a delta; entrants and
    leavers are reported separately rather than folded in.
    """
    common = set(prev.ranks) & set(cur.ranks)
    if not common:
        raise EmptyIntersectionError("rank tables share no countries")
    deltas = {c: prev.rank(c) - cur.rank(c) for c in sorted(common)}
    return RankDeltaReport(
        prev_year=prev.year,
        cur_year=cur.year,
        deltas=deltas,
        prev_ranks={c: prev.rank(c) for c in sorted(common)},
        cur_ranks={c: cur.rank(c) for c in sorted(common)},
        entrants=tuple(sorted(set(cur.ranks) - common)),
        leavers=tuple(sorted(set(prev.ranks) - common)),
    )


def format_delta(delta: int) -> str:
    """Movement label in report style: +9 for a rise, -6 for a fall, 0 flat."""
    return f"+{delta}" if delta > 0 else str(delta)
