"""Partial-equilibrium what-if analysis on composite scores.

A scenario overrides one node's score for one country, re-derives only that
node's ancestors, and reranks everyone on the root index while all other
countries stay frozen.  Because aggregation is linear, the root responds to
an override with slope equal to the product of the rational weights along
the node -> root path (summed over paths in a DAG), which gives closed-form
answers to "how much technology-index improvement buys k rank positions".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Mapping, Optional

from .engine import _aggregate
from .errors import (
    MissingNodeError,
    NotAnAncestorPathError,
    OverrideOutOfScaleError,
    UnknownCountryError,
)
from .model import IndexTree, InnovatorClass, ScoreTable
from .ranking import rank_scores

#: Margin added to closed-form deltas so the overtake is strict rather than
#: a ranking-policy-dependent exact tie.  Score-scale units.
STRICT_MARGIN = 1e-9


@dataclass(frozen=True)
class Scenario:
    """Override one node's score for one country."""

    country: str
    node: str
    override: float

    def __post_init__(self):
        if not 1.0 <= self.override <= 7.0:
            raise OverrideOutOfScaleError(
                f"override {self.override} for {self.node} outside [1, 7]"
            )


@dataclass(frozen=True)
class WhatIfOutcome:
    country: str
    node: str
    override: float
    baseline_gci: float
    new_gci: float
    baseline_rank: int
    new_rank: int
    delta_rank: int  # previous - current convention: positive = rise
    new_scores: ScoreTable


def path_weight(tree: IndexTree, node: str, cls: InnovatorClass) -> Fraction:
    """d(root score) / d(node score): sum over root->node paths of the
    product of edge weights, as an exact rational."""
    if node not in tree.nodes:
        raise NotAnAncestorPathError(f"unknown node {node!r}")
    memo: Dict[str, Fraction] = {}

    def coeff(current: str) -> Fraction:
        if current == node:
            return Fraction(1)
        if current in memo:
            return memo[current]
        total = Fraction(0)
        for child, weight in tree.node(current).children(cls):
            total += weight * coeff(child)
        memo[current] = total
        return total

    return coeff(tree.root)


def _updated_scores(
    tree: IndexTree,
    scores: ScoreTable,
    cls: InnovatorClass,
    country: str,
    node: str,
    override: float,
) -> Dict[str, float]:
    """Scores for the override node and every affected ancestor.

    Children without a score (possible under the renormalize missing-data
    policy) are dropped and the remaining weights rescaled, mirroring the
    engine's evaluation semantics.
    """
    updates: Dict[str, float] = {node: float(override)}

    def value(current: str) -> Optional[float]:
        if current in updates:
            return updates[current]
        return scores.get(country, current)

    # reachable() is topological with children first, so one pass suffices.
    for node_id in tree.reachable(cls):
        current = tree.node(node_id)
        if current.is_leaf or node_id == node:
            continue
        edges = current.children(cls)
        if not any(child in updates for child, _ in edges):
            continue
        parts = [(w, value(child)) for child, w in edges if value(child) is not None]
        updates[node_id] = _aggregate(parts, len(edges))
    return updates


def apply_scenario(
    tree: IndexTree,
    scores: ScoreTable,
    classes: Mapping[str, InnovatorClass],
    scenario: Scenario,
) -> WhatIfOutcome:
    """Evaluate one override: new root score and rank for the country.

    Only the override node's ancestors are re-derived; every other country's
    scores stay frozen.  `tree` must have passed validate_tree, as for
    engine.evaluate_node.
    """
    country = scenario.country
    if country not in scores.countries():
        raise UnknownCountryError(f"country {country!r} not in score table")
    if scenario.node not in tree.nodes:
        raise NotAnAncestorPathError(f"unknown node {scenario.node!r}")
    cls = classes[country]
    baseline_rank = rank_scores(scores, tree.root).rank(country)
    baseline_gci = scores.score(country, tree.root)
    updates = _updated_scores(tree, scores, cls, country, scenario.node, scenario.override)
    new_table = scores.with_overrides(country, updates)
    new_rank = rank_scores(new_table, tree.root).rank(country)
    return WhatIfOutcome(
        country=country,
        node=scenario.node,
        override=scenario.override,
        baseline_gci=baseline_gci,
        new_gci=new_table.score(country, tree.root),
        baseline_rank=baseline_rank,
        new_rank=new_rank,
        delta_rank=baseline_rank - new_rank,
        new_scores=new_table,
    )


def min_delta_for_rank_gain(
    tree: IndexTree,
    scores: ScoreTable,
    classes: Mapping[str, InnovatorClass],
    country: str,
    k: int,
    node: str,
    margin: float = STRICT_MARGIN,
) -> Optional[float]:
    """Smallest increase of `node`'s score buying at least k rank positions.

    Closed form: the country must strictly exceed the root score of the k-th
    country above it, and the root moves with slope w_eff (the exact rational
    path weight), so delta = (target - own root score) / w_eff + margin.
    Returns None (infeasible) when even a score of 7 cannot achieve the gain:
    either fewer than k countries sit strictly above, or the required node
    score exceeds the scale.
    """
    if country not in scores.countries():
        raise UnknownCountryError(f"country {country!r} not in score table")
    if k <= 0:
        return 0.0
    cls = classes[country]
    w_eff = path_weight(tree, node, cls)
    if w_eff <= 0:
        raise NotAnAncestorPathError(f"node {node!r} has no weighted path to {tree.root!r}")
    rank_scores(scores, tree.root)  # validates root coverage for every country
    own = scores.score(country, tree.root)
    above = sorted(
        scores.score(c, tree.root)
        for c in scores.countries()
        if c != country and scores.score(c, tree.root) > own
    )
    if k > len(above):
        return None
    target = above[k - 1]
    current = scores.get(country, node)
    if current is None:
        raise MissingNodeError(f"no baseline score for ({country}, {node})")
    delta = (target - own) / float(w_eff) + margin
    if current + delta > 7.0:
        return None
    return delta


def min_delta_to_overtake(
    tree: IndexTree,
    scores: ScoreTable,
    classes: Mapping[str, InnovatorClass],
    country: str,
    target_country: str,
    node: str,
    margin: float = STRICT_MARGIN,
) -> Optional[float]:
    """Smallest increase of `node`'s score putting `country` strictly above
    `target_country` on the root index; 0.0 if already strictly above, None
    if the scale cannot reach it."""
    if country not in scores.countries():
        raise UnknownCountryError(f"country {country!r} not in score table")
    if target_country not in scores.countries():
        raise UnknownCountryError(f"country {target_country!r} not in score table")
    own = scores.score(country, tree.root)
    target = scores.score(target_country, tree.root)
    if own > target:
        return 0.0
    cls = classes[country]
    w_eff = path_weight(tree, node, cls)
    if w_eff <= 0:
        raise NotAnAncestorPathError(f"node {node!r} has no weighted path to {tree.root!r}")
    current = scores.get(country, node)
    if current is None:
        raise MissingNodeError(f"no baseline score for ({country}, {node})")
    delta = (target - own) / float(w_eff) + margin
    if current + delta > 7.0:
        return None
    return delta
