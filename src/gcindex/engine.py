"""Bottom-up evaluation of index trees against leaf indicator data.

Leaf values are normalized onto the 1-7 scale (hard data) or taken as-is
(survey data, already 1-7), then every aggregate node is scored as the
weighted sum of its children using the country class's exact rational
weights.  Pure functions throughout: same inputs, bit-identical outputs.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import Dict, Mapping, Sequence, Tuple

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
)

#: (country, leaf-id) -> raw value for one year.
LeafAssignment = Mapping[Tuple[str, str], float]

#: leaf-id -> observed bounds, filled lazily within one evaluation pass.
BoundsCache = Dict[str, Normalization]


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


def observed_bounds(leaves: LeafAssignment, leaf_id: str) -> Normalization:
    """Cross-country min/max bounds for one leaf in one year's assignment."""
    values = [v for (_, leaf), v in leaves.items() if leaf == leaf_id]
    if not values:
        raise DegenerateRangeError(f"no observed values for leaf {leaf_id!r}")
    lo, hi = min(values), max(values)
    if not hi > lo:
        raise DegenerateRangeError(
            f"observed range for leaf {leaf_id!r} is degenerate: all values equal {lo}"
        )
    return Normalization(min=lo, max=hi)


def _leaf_score(
    tree: IndexTree,
    leaf_id: str,
    leaves: LeafAssignment,
    country: str,
    bounds: BoundsCache,
) -> float:
    raw = leaves[(country, leaf_id)]
    spec = tree.node(leaf_id).normalize
    if spec is None:
        if not 1.0 <= raw <= 7.0:
            raise OutOfScaleError(
                f"leaf {leaf_id!r} for {country}: {raw} outside [1, 7] and no normalization"
            )
        return float(raw)
    if spec == OBSERVED:
        # Computed the first time a country needs it, so a degenerate range
        # raises while evaluating the first country that reaches the leaf.
        spec = bounds.get(leaf_id)
        if spec is None:
            spec = bounds[leaf_id] = observed_bounds(leaves, leaf_id)
    return normalize_minmax(raw, spec)


def _aggregate(parts: Sequence[Tuple[Fraction, float]], n_edges: int) -> float:
    """Weighted sum of the present children's scores, rounded once.

    When some of the node's `n_edges` children were dropped (RENORMALIZE),
    the surviving weights are rescaled to sum to 1; a validated tree's full
    edge list already does.  The result equals, bit for bit,
    ``float(sum(w / total * Fraction(s) for w, s in parts))``: every term is
    the exact ratio of integers (w.num * s.num) / (w.den * s.den), the terms
    go over their lcm, and one int / int true division rounds correctly, as
    Fraction.__float__ does.  Rounding once keeps a convex combination inside
    [min(children), max(children)].
    """
    nums, dens = [], []
    for w, s in parts:
        n, d = s.as_integer_ratio()
        nums.append(w.numerator * n)
        dens.append(w.denominator * d)
    den = math.lcm(*dens)
    num = sum(n * (den // d) for n, d in zip(nums, dens))
    if len(parts) < n_edges:
        total = sum(w for w, _ in parts)
        num, den = num * total.denominator, den * total.numerator
    return num / den


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
    unknown node raises DanglingChildError.  `tree` must have passed
    validate_tree (load_tree and default_wef_tree return such trees): a
    node's full class weights are taken to sum to 1 and are not rescaled.
    """
    order = IndexTree(tree.nodes, node_id).reachable(cls)
    absent = sorted(
        (country, n) for n in order if tree.node(n).is_leaf and (country, n) not in leaves
    )
    if absent and policy is MissingPolicy.STRICT:
        raise MissingLeafError(absent)
    scores = _score_order(tree, order, cls, leaves, country, {})
    if node_id not in scores:
        raise MissingLeafError(absent or [(country, node_id)])
    return scores[node_id]


def _score_order(
    tree: IndexTree,
    order: Sequence[str],
    cls: InnovatorClass,
    leaves: LeafAssignment,
    country: str,
    bounds: BoundsCache,
) -> Dict[str, float]:
    """Scores of the nodes in `order` (children first) that have data: a
    leaf with a value, an aggregate with any scored child (_aggregate
    rescales over the scored ones)."""
    scores: Dict[str, float] = {}
    for node_id in order:
        node = tree.node(node_id)
        if node.is_leaf:
            if (country, node_id) in leaves:
                scores[node_id] = _leaf_score(tree, node_id, leaves, country, bounds)
            continue
        edges = node.children(cls)
        parts = [(w, scores[child]) for child, w in edges if child in scores]
        if parts:
            scores[node_id] = _aggregate(parts, len(edges))
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
    per call, and each country is one loop over its class's reachable order,
    which the tree walks once per class.  `tree` must have passed
    validate_tree, as for evaluate_node.
    """
    countries = panel.countries(year)
    if not countries:
        raise MissingLeafError([], f"year {year} not found in panel")
    leaves: LeafAssignment = panel.slice_year(year, tree.leaves())
    classes = {country: panel.innovator_class(country) for country in countries}
    # Per class present: its reachable nodes (children first) and leaves.
    order = {cls: tree.reachable(cls) for cls in dict.fromkeys(classes.values())}
    class_leaves = {
        cls: tuple(n for n in nodes if tree.node(n).is_leaf) for cls, nodes in order.items()
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

    bounds: BoundsCache = {}
    entries: Dict[Tuple[str, str], float] = {}
    for country in countries:
        cls = classes[country]
        scores = _score_order(tree, order[cls], cls, leaves, country, bounds)
        if tree.root not in scores:
            raise MissingLeafError(
                [(country, leaf) for leaf in class_leaves[cls]],
                f"country {country!r} has no usable data for {year}",
            )
        for node_id, score in scores.items():
            entries[(country, node_id)] = score
    return ScoreTable(year=year, entries=entries)
