"""Plain-float reference for the WEF default tree.

Written from the published weighting scheme, not from gcindex's code, so the
benchmark can check the engine against an independent computation: the same
tree with float weights, observed min/max bounds per hard leaf and year, and
the renormalize rule (children without data are dropped and the surviving
weights rescaled).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Tuple

SURVEY_LEAVES = ("IS", "TTS", "CLS", "CS", "MSS", "CCR", "GW")
ICT_SURVEY = (
    "internet_access_in_schools",
    "isp_competition_quality",
    "gov_ict_prioritization",
    "gov_ict_promotion_success",
    "ict_laws",
)
#: Hard (per-capita) leaves, min-max normalized against the observed range.
ICT_HARD = (
    "cellular_telephones",
    "internet_users",
    "internet_hosts",
    "telephone_lines",
    "personal_computers",
)
LEAVES = SURVEY_LEAVES + ICT_SURVEY + ICT_HARD

_SHARED = {
    "PII": (("CLS", 0.5), ("CS", 0.5)),
    "MEI": (("MSS", 0.5), ("CCR", 0.25), ("GW", 0.25)),
    "ICTS": (("ICTsd", 1 / 3), ("ICThd", 2 / 3)),
    "ICTsd": tuple((leaf, 0.2) for leaf in ICT_SURVEY),
    "ICThd": tuple((leaf, 0.2) for leaf in ICT_HARD),
}
TREE = {
    "core": {
        "GCI": (("TI", 0.5), ("PII", 0.25), ("MEI", 0.25)),
        "TI": (("IS", 0.5), ("ICTS", 0.5)),
        **_SHARED,
    },
    "noncore": {
        "GCI": (("TI", 1 / 3), ("PII", 1 / 3), ("MEI", 1 / 3)),
        "TI": (("IS", 0.125), ("TTS", 0.375), ("ICTS", 0.5)),
        **_SHARED,
    },
}

Values = Mapping[Tuple[str, str], float]  # (country, leaf) -> raw value, one year


def observed_bounds(values: Values) -> Dict[str, Tuple[float, float]]:
    """Cross-country (min, max) of each hard leaf present in one year."""
    bounds: Dict[str, Tuple[float, float]] = {}
    for (_, leaf), v in values.items():
        if leaf in ICT_HARD:
            lo, hi = bounds.get(leaf, (v, v))
            bounds[leaf] = (min(lo, v), max(hi, v))
    return bounds


def country_scores(values: Values, bounds, country: str, cls: str) -> Dict[str, float]:
    """Every evaluable node's score for one country (renormalize semantics;
    with complete data this equals the strict result)."""
    tree = TREE[cls]
    out: Dict[str, float] = {}

    def score(node: str) -> Optional[float]:
        if node not in tree:
            raw = values.get((country, node))
            if raw is None:
                return None
            if node in ICT_HARD:
                lo, hi = bounds[node]
                raw = min(7.0, max(1.0, 1.0 + 6.0 * (raw - lo) / (hi - lo)))
            out[node] = raw
            return raw
        parts = [(w, score(child)) for child, w in tree[node]]
        parts = [(w, s) for w, s in parts if s is not None]
        if not parts:
            return None
        total = sum(w for w, _ in parts)
        value = sum(w / total * s for w, s in parts)
        # a convex combination stays within its children's range; float
        # rounding alone could push it an ulp outside (e.g. past 7.0)
        out[node] = min(max(value, min(s for _, s in parts)), max(s for _, s in parts))
        return out[node]

    score("GCI")
    return out


def year_scores(values: Values, classes: Mapping[str, str]) -> Dict[str, Dict[str, float]]:
    """country -> node -> score for every country with data in the year."""
    bounds = observed_bounds(values)
    countries = sorted({c for c, _ in values})
    return {c: country_scores(values, bounds, c, classes[c]) for c in countries}


def competition_ranks(scores: Mapping[str, float]) -> Dict[str, int]:
    """Rank 1 is the highest score; ties share the best rank."""
    ordered = sorted(scores.values(), reverse=True)
    first = {}
    for position, s in enumerate(ordered, start=1):
        first.setdefault(s, position)
    return {c: first[s] for c, s in scores.items()}


def rederived_root(cls: str, scores: Mapping[str, float], node: str, override: float) -> float:
    """GCI after setting `node` to `override` and re-deriving only the nodes
    above it from their children's scores (renormalize semantics); every
    other node keeps its score in `scores` (node -> score, one country)."""
    tree = TREE[cls]

    def above(current: str) -> bool:
        return current == node or any(above(child) for child, _ in tree.get(current, ()))

    def value(current: str) -> Optional[float]:
        if current == node:
            return override
        if current not in tree or not above(current):
            return scores.get(current)
        parts = [(w, value(child)) for child, w in tree[current]]
        parts = [(w, s) for w, s in parts if s is not None]
        total = sum(w for w, _ in parts)
        return sum(w / total * s for w, s in parts)

    return value("GCI")


def rank_gain(gci: Mapping[str, float], country: str, new_gci: float) -> int:
    """Ranks `country` climbs when its GCI becomes new_gci, all others frozen."""
    own = gci[country]
    return sum(1 for c, s in gci.items() if c != country and own < s <= new_gci)


def ols(points: Sequence[Tuple[float, float]]) -> Tuple[float, float]:
    """(slope, intercept) of the least-squares line."""
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    slope = sum((x - mx) * (y - my) for x, y in points) / sxx
    return slope, my - slope * mx


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    n = len(xs)
    mx, my = sum(xs) / n, sum(ys) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = sum((x - mx) ** 2 for x in xs)
    syy = sum((y - my) ** 2 for y in ys)
    return sxy / (sxx * syy) ** 0.5


def chi_square_statistic(prev: Sequence[float], cur: Sequence[float], design: str) -> float:
    if design == "prev-expected":
        return sum((o - e) ** 2 / e for o, e in zip(cur, prev))
    if design == "cur-expected":
        return sum((o - e) ** 2 / e for o, e in zip(prev, cur))
    r1, r2 = sum(prev), sum(cur)
    grand = r1 + r2
    total = 0.0
    for o1, o2 in zip(prev, cur):
        e1, e2 = r1 * (o1 + o2) / grand, r2 * (o1 + o2) / grand
        total += (o1 - e1) ** 2 / e1 + (o2 - e2) ** 2 / e2
    return total
