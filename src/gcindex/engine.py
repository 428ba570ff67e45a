"""Bottom-up evaluation of index trees against leaf indicator data.

Leaf values are normalized onto the 1-7 scale (hard data) or taken as-is
(survey data, already 1-7), then every aggregate node is scored as the
weighted sum of its children using the country class's exact rational
weights.  Pure functions throughout: same inputs, bit-identical outputs.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from .errors import (
    DegenerateRangeError,
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
)

#: (country, leaf-id) -> raw value for one year.
LeafAssignment = Mapping[Tuple[str, str], float]


class MissingPolicy(Enum):
    """What to do when a country lacks a leaf value.

    STRICT raises MissingLeafError listing every absent pair; RENORMALIZE
    drops missing children and rescales the remaining weights to sum to 1.
    """

    STRICT = "strict"
    RENORMALIZE = "renormalize"


def normalize_minmax(x: float, norm: Normalization) -> float:
    """Map a raw value onto [1, 7], clamping outside [min, max]."""
    if not norm.max > norm.min:
        raise DegenerateRangeError(f"max {norm.max} <= min {norm.min}")
    clamped = min(max(x, norm.min), norm.max)
    score = 1.0 + 6.0 * (clamped - norm.min) / (norm.max - norm.min)
    # the subtractions round independently, so the quotient can land a few
    # ulps outside [0, 1]; pin the result to the scale
    return min(7.0, max(1.0, score))


def observed_bounds(values: Sequence[float], leaf_id: str) -> Normalization:
    """Cross-country min/max bounds for one leaf from its year's values."""
    lo, hi = min(values), max(values)
    if not hi > lo:
        raise DegenerateRangeError(
            f"observed range for leaf {leaf_id!r} is degenerate: all values equal {lo}"
        )
    return Normalization(min=lo, max=hi)


class _Bounds(dict):
    """leaf-id -> observed bounds over one year's assignment, grouped by
    leaf once.  A leaf's bounds are computed by observed_bounds on its first
    lookup, so a degenerate range raises at the first country that reaches
    the leaf."""

    def __init__(self, leaves: LeafAssignment):
        super().__init__()
        self.by_leaf = defaultdict(list)
        for (_, leaf), value in leaves.items():
            self.by_leaf[leaf].append(value)

    def __missing__(self, leaf_id: str) -> Normalization:
        bounds = self[leaf_id] = observed_bounds(self.by_leaf[leaf_id], leaf_id)
        return bounds


def _aggregate(parts: Iterable[Tuple[int, float]]) -> float:
    """Weighted mean sum(a * s) / sum(a) of (integer weight, score) pairs,
    rounded once: bit for bit float(sum(w / total * Fraction(s))) for the
    rational weights w = a / D.

    Scores are in [1, 7], and a float >= 1 is a whole multiple of 2**-52,
    so int(s * 2**52) is exact; one int / int true division then rounds
    correctly, as Fraction.__float__ does.  Dividing by the weights present
    is the RENORMALIZE rescaling (a validated node's full weights sum to D),
    and rounding once keeps the mean inside [min(children), max(children)].
    """
    num = den = 0
    for a, s in parts:
        num += a * int(s * 2.0 ** 52)  # 2.0 ** 52 folds to a float constant
        den += a
    return num / (den << 52)


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
    unknown node raises DanglingChildError.  A node's plan is built once per
    tree, node and class.  `tree` must have passed validate_tree (load_tree
    and default_wef_tree return such trees): a node's full class weights are
    taken to sum to 1.
    """
    rooted = tree if node_id == tree.root else tree._cached(
        ("subtree", node_id), lambda: IndexTree(tree.nodes, node_id))
    plan = rooted.plan(cls)
    absent = sorted((country, n) for n, _, w in plan if w is None and (country, n) not in leaves)
    if absent and policy is MissingPolicy.STRICT:
        raise MissingLeafError(absent)
    scores = _score_plan(plan, leaves, country, _Bounds(leaves))
    if node_id not in scores:
        raise MissingLeafError(absent or [(country, node_id)])
    return scores[node_id]


def _score_plan(
    plan: Sequence[Step], leaves: LeafAssignment, country: str, bounds: _Bounds
) -> Dict[str, float]:
    """Scores of the plan's nodes (children first) that have data: a leaf
    with a value, an aggregate with any scored child (_aggregate divides by
    the weights of the scored ones)."""
    scores: Dict[str, float] = {}
    for node_id, spec, weights in plan:
        if weights is not None:
            parts = [(a, scores[child]) for child, a in weights if child in scores]
            if parts:
                scores[node_id] = _aggregate(parts)
        elif (raw := leaves.get((country, node_id))) is None:
            continue
        elif spec is not None:
            scores[node_id] = normalize_minmax(raw, bounds[node_id] if spec == OBSERVED else spec)
        elif 1.0 <= raw <= 7.0:
            scores[node_id] = float(raw)
        else:
            raise OutOfScaleError(
                f"leaf {node_id!r} for {country}: {raw} outside [1, 7] and no normalization"
            )
    return scores


def compute_all(
    tree: IndexTree,
    panel: Panel,
    year: int,
    policy: MissingPolicy = MissingPolicy.STRICT,
) -> ScoreTable:
    """Score every root-reachable node for every country present in `year`.

    Countries are those with at least one observation in the year; each is
    evaluated over the node set reachable for its innovator class.  STRICT
    raises one MissingLeafError listing all absent (country, leaf) pairs.
    Cost is O(countries x nodes): observed bounds are computed once per leaf
    per call, from one grouping of the year's values by leaf, and each
    country is one loop over its class's plan, which the tree builds once
    per class.  `tree` must have passed validate_tree, as for evaluate_node.
    """
    countries = panel.countries(year)
    if not countries:
        raise MissingLeafError([], f"year {year} not found in panel")
    leaves: LeafAssignment = panel.slice_year(year, tree.leaves())
    classes = {country: panel.innovator_class(country) for country in countries}
    # Per class present: its plan (reachable nodes, children first) and leaves.
    plans = {cls: tree.plan(cls) for cls in dict.fromkeys(classes.values())}
    class_leaves = {
        cls: tuple(n for n, _, weights in plan if weights is None) for cls, plan in plans.items()
    }

    if policy is MissingPolicy.STRICT:
        absent = [
            (country, leaf)
            for country in countries
            for leaf in class_leaves[classes[country]]
            if (country, leaf) not in leaves
        ]
        if absent:
            raise MissingLeafError(sorted(absent))

    bounds = _Bounds(leaves)
    entries: Dict[Tuple[str, str], float] = {}
    for country in countries:
        cls = classes[country]
        scores = _score_plan(plans[cls], leaves, country, bounds)
        if tree.root not in scores:
            raise MissingLeafError(
                [(country, leaf) for leaf in class_leaves[cls]],
                f"country {country!r} has no usable data for {year}",
            )
        for node_id, score in scores.items():
            entries[(country, node_id)] = score
    return ScoreTable(year=year, entries=entries)
