"""Bottom-up evaluation of index trees against leaf indicator data.

Leaf values are normalized onto the 1-7 scale (hard data) or taken as-is
(survey data, already 1-7), then every aggregate node is scored as the
weighted sum of its children using the country class's exact rational
weights.  Pure functions throughout: same inputs, bit-identical outputs.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .errors import (
    DegenerateRangeError,
    GciError,
    MissingLeafError,
    OutOfScaleError,
)
from .model import (
    OBSERVED,
    IndexTree,
    InnovatorClass,
    Normalization,
    Panel,
    ScoreTable,
    Step,
    _EMPTY,
    _cached,
)

#: (country, leaf-id) -> raw value for one year.
LeafAssignment = Mapping[Tuple[str, str], float]

#: node id -> one value per country, aligned with a list of countries; None
#: where the country has no value (a raw column) or no score.
_Columns = Dict[str, List[Optional[float]]]


class MissingPolicy(Enum):
    """What to do when a country lacks a leaf value.

    STRICT raises MissingLeafError listing every absent pair; RENORMALIZE
    drops missing children and rescales the remaining weights to sum to 1.
    """

    STRICT = "strict"
    RENORMALIZE = "renormalize"


def _normalize(values: Sequence[Optional[float]], norm: Normalization) -> List[Optional[float]]:
    """Map each raw value onto [1, 7], clamping outside [min, max]; None (no
    value) stays None."""
    lo, hi = norm.min, norm.max
    if not hi > lo:
        raise DegenerateRangeError(f"max {hi} <= min {lo}")
    span = hi - lo
    # The conditionals pick exactly what min(max(x, lo), hi) and then
    # min(7.0, max(1.0, s)) would, without two builtin calls per value.  The
    # subtractions round independently, so the quotient can land a few ulps
    # outside [0, 1]; the second pass pins the result to the scale.
    scores = [x if x is None else 1.0 + 6.0 * ((lo if x < lo else hi if x > hi else x) - lo) / span
              for x in values]
    return [s if s is None or 1.0 < s < 7.0 else 7.0 if s >= 7.0 else 1.0 for s in scores]


def observed_bounds(values: Sequence[float], leaf_id: str) -> Normalization:
    """Cross-country min/max bounds for one leaf from its year's values."""
    lo, hi = min(values), max(values)
    if not hi > lo:
        raise DegenerateRangeError(
            f"observed range for leaf {leaf_id!r} is degenerate: all values equal {lo}"
        )
    return Normalization(min=lo, max=hi)


def _aggregate_columns(
    parts: Sequence[Tuple[int, Sequence[Optional[float]]]], size: int
) -> List[Optional[float]]:
    """Weighted means sum(a * s) / sum(a) down score columns of `size`
    countries: each of `parts` is a child's (integer weight, scores), None
    where it has no score.  Each country's mean is over its children present
    (the RENORMALIZE rescaling; a validated node's full weights sum to D),
    None when none is, and rounded once: bit for bit float(sum(w / total *
    Fraction(s))) for the rational weights w = a / D.  Scores are in [1, 7],
    and a float >= 1 is a whole multiple of 2**-52, so int(s * 2**52) is
    exact; one int / int true division then rounds correctly, as
    Fraction.__float__ does, and keeps the mean inside [min(children),
    max(children)].  A gap-free column's weight counts for every country, so
    it is tested for gaps once and adds to one scalar; only a column with
    gaps keeps weights per country."""
    num: Optional[List[int]] = None  # the sums, begun by the first child
    full = 0  # the weights of the gap-free columns
    den: Optional[List[int]] = None  # per country, the gapped columns' weights it has
    for a, column in parts:
        if None in column:
            num = [x if s is None else x + a * int(s * 2.0 ** 52)
                   for x, s in zip(num or [0] * size, column)]
            den = [d if s is None else d + a for d, s in zip(den or [0] * size, column)]
            continue
        full += a
        if num is None:
            num = ([int(s * 2.0 ** 52) for s in column] if a == 1
                   else [a * int(s * 2.0 ** 52) for s in column])
        elif a == 1:
            num = [x + int(s * 2.0 ** 52) for x, s in zip(num, column)]
        else:
            num = [x + a * int(s * 2.0 ** 52) for x, s in zip(num, column)]
    if den is None:
        return [x / (full << 52) for x in num] if full else [None] * size
    return [x / ((full + d) << 52) if full + d else None for x, d in zip(num, den)]


def _read(plan: Sequence[Step], countries: Sequence[str],
          leaves: Mapping[str, Mapping[str, float]]) -> _Columns:
    """Each of the plan's leaves as a column of raw values aligned with
    `countries`, None where a country has no value, from {leaf: {country:
    value}} as Panel keeps a year."""
    return {node: list(map(leaves.get(node, _EMPTY).get, countries))
            for node, _, weights in plan if weights is None}


def _absent(countries: Sequence[str], raw: _Columns) -> List[Tuple[str, str]]:
    """(country, leaf) pairs without a value in `raw`, as _read gives it."""
    return [(c, leaf) for leaf, column in raw.items() if None in column
            for c, v in zip(countries, column) if v is None]


def _walk(
    plan: Sequence[Step],
    countries: Sequence[str],
    raw: _Columns,
    bounds: Callable[[str], Normalization],
) -> _Columns:
    """Score columns for the plan's nodes (children first), aligned with
    `countries`, from the leaves' raw columns: a leaf scores where it has a
    value, an aggregate where any child scores.  `bounds(leaf)` gives an
    observed leaf's bounds.  A survey value off the 1-7 scale raises
    OutOfScaleError naming the column's first such country, and degenerate
    bounds DegenerateRangeError, once a column holds a value; the first
    faulty column in plan order raises."""
    size = len(countries)
    scores: _Columns = {}
    for node, spec, weights in plan:
        if weights is not None:
            scores[node] = _aggregate_columns([(a, scores[child]) for child, a in weights], size)
            continue
        column = raw[node]
        present = [v for v in column if v is not None] if None in column else column
        if not present:
            scores[node] = column
        elif spec is not None:
            scores[node] = _normalize(column, bounds(node) if spec == OBSERVED else spec)
        elif 1.0 <= min(present) and max(present) <= 7.0:
            scores[node] = (list(map(float, column)) if present is column
                            else [None if v is None else float(v) for v in column])
        else:
            i, v = next((i, v) for i, v in enumerate(column)
                        if v is not None and not 1.0 <= v <= 7.0)
            raise OutOfScaleError(
                f"leaf {node!r} for {countries[i]}: {v} outside [1, 7] and no normalization")
    return scores


def evaluate_node(
    tree: IndexTree,
    node_id: str,
    cls: InnovatorClass,
    leaves: LeafAssignment,
    country: str,
    policy: MissingPolicy = MissingPolicy.STRICT,
) -> float:
    """Score one node for one country.

    Leaves yield their (normalized) value; aggregates the weighted sum of
    child scores under the class's weights.  STRICT raises one
    MissingLeafError listing every absent leaf under the node.  Under
    RENORMALIZE, children without data are dropped and the surviving weights
    rescaled; a node with no surviving children propagates as missing.  An
    unknown node raises DanglingChildError.  Observed bounds are taken over
    every value `leaves` holds for the leaf.  A node's plan is built once
    per tree, node and class; `leaves` is split into one column per leaf
    in one pass.  `tree` must have passed validate_tree
    (load_tree and default_wef_tree return such trees): a node's full class
    weights are taken to sum to 1.
    """
    rooted = tree if node_id == tree.root else _cached(
        tree, ("subtree", node_id), lambda: IndexTree(tree.nodes, node_id))
    plan = rooted.plan(cls)
    columns: Dict[str, Dict[str, float]] = {}
    for (c, leaf), v in leaves.items():
        columns.setdefault(leaf, {})[c] = v
    raw = _read(plan, (country,), columns)
    absent = sorted(_absent((country,), raw))
    if absent and policy is MissingPolicy.STRICT:
        raise MissingLeafError(absent)
    score = _walk(plan, (country,), raw, lambda leaf: observed_bounds(
        list(columns[leaf].values()), leaf))[node_id][0]
    if score is None:
        raise MissingLeafError(absent or [(country, node_id)])
    return score


def compute_all(
    tree: IndexTree,
    panel: Panel,
    year: int,
    policy: MissingPolicy = MissingPolicy.STRICT,
) -> ScoreTable:
    """Score every root-reachable node for every country present in `year`.

    Countries are those with at least one observation in the year; each is
    evaluated over the node set reachable for its innovator class.  STRICT
    raises one MissingLeafError listing all absent (country, leaf) pairs;
    otherwise the first fault in country order, then plan order, raises.
    Cost is O(countries x nodes): each class present walks its plan (built
    once per tree and class) once, one column of all its countries per step,
    and reads each leaf as one map over the panel's kept column of the year,
    which is not copied; an observed leaf's bounds are the min and max of
    that column, computed once per leaf per call.  The table keeps each
    country's row of the walk, and builds its (country, node) entries only
    when they are read, which ranking and the score reports do not.  `tree`
    must have passed validate_tree.
    """
    countries = panel.countries(year)
    if not countries:
        raise MissingLeafError([], f"year {year} not found in panel")
    leaves = panel._columns(year)
    classes = {country: panel.innovator_class(country) for country in countries}
    members: Dict[InnovatorClass, List[str]] = {}  # each class present: its countries, in order
    for country, cls in classes.items():
        members.setdefault(cls, []).append(country)
    plans = {cls: tree.plan(cls) for cls in members}
    raw = {cls: _read(plans[cls], group, leaves) for cls, group in members.items()}
    if policy is MissingPolicy.STRICT:
        absent = [pair for cls, group in members.items() for pair in _absent(group, raw[cls])]
        if absent:
            raise MissingLeafError(sorted(absent))

    kept: Dict[str, Normalization] = {}

    def bounds(leaf: str) -> Normalization:
        # over every country with a value, also where its class skips the leaf
        if leaf not in kept:
            kept[leaf] = observed_bounds(list(leaves[leaf].values()), leaf)
        return kept[leaf]

    def score(cls: InnovatorClass, group: Sequence[str], columns: _Columns) -> _Columns:
        scores = _walk(plans[cls], group, columns, bounds)
        if None in scores[tree.root]:
            country = group[scores[tree.root].index(None)]
            raise MissingLeafError([(country, leaf) for leaf in raw[cls]],
                                   f"country {country!r} has no usable data for {year}")
        return scores

    try:
        scored = {cls: score(cls, group, raw[cls]) for cls, group in members.items()}
    except GciError:
        # A class's walk raises at its first faulty column; walking one
        # country at a time finds the first fault in country order.
        for country in countries:
            cls = classes[country]
            score(cls, (country,), _read(plans[cls], (country,), leaves))
        raise

    # country, in country order -> (its class's plan nodes, its scores on them, None where absent)
    rows = dict.fromkeys(countries)
    for cls, group in members.items():
        nodes = tuple(node for node, _, _ in plans[cls])
        for country, row in zip(group, zip(*(scored[cls][node] for node in nodes))):
            rows[country] = (nodes, row)
    return ScoreTable._from_rows(year, rows)
