"""Partial-equilibrium what-if analysis on composite scores.

A scenario overrides one node's score for one country, re-derives only that
node's ancestors, and counts the country's new rank on the root index while
all other countries stay frozen.  Because aggregation is linear, the root
responds to an override with slope equal to the product of the rational
weights along the node -> root path (summed over paths in a DAG, and with
each parent's weights rescaled over the children the country has a score
for), which gives closed-form answers to "how much technology-index
improvement buys k rank positions".
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from .engine import _aggregate
from .errors import (
    MissingNodeError,
    NotAnAncestorPathError,
    OverrideOutOfScaleError,
    UnknownCountryError,
)
from .model import IndexTree, InnovatorClass, ScoreTable, Step, _cached, _Record

#: Margin added to closed-form deltas so the overtake is strict rather than
#: a ranking-policy-dependent exact tie.  Score-scale units.
STRICT_MARGIN = 1e-9


class Scenario(_Record):
    """Override one node's score for one country."""

    country: str
    node: str
    override: float

    def __post_init__(self):
        if not 1.0 <= self.override <= 7.0:
            raise OverrideOutOfScaleError(
                f"override {self.override} for {self.node} outside [1, 7]"
            )


class WhatIfOutcome(_Record):
    """`country`'s result with `node` set to `override`: its root score
    (`baseline_gci`, `new_gci`) and competition rank on the root with every
    other country frozen, before and after; `delta_rank` is baseline_rank -
    new_rank, positive for a rise.  `new_scores` is {node id: score} of what
    the scenario re-derived: `node` and its ancestors on the country's class
    plan (the root among them unless that plan does not reach `node`)."""

    country: str
    node: str
    override: float
    baseline_gci: float
    new_gci: float
    baseline_rank: int
    new_rank: int
    delta_rank: int
    new_scores: Dict[str, float]


def path_weight(tree: IndexTree, node: str, cls: InnovatorClass) -> Fraction:
    """d(root score) / d(node score): sum over root->node paths of the
    product of edge weights, as an exact rational."""
    return _path_weight(tree, node, cls, lambda child: True)


def _ancestors(tree: IndexTree, node: str, cls: InnovatorClass) -> Tuple[tuple, tuple]:
    """(steps, off): `node`'s ancestors on the class plan as (id, integer
    weights) steps, children first, and the ids of their children off the
    path, each once.  Built once per tree, class and node."""
    return _cached(tree, ("ancestors", cls, node), lambda: _find_ancestors(tree.plan(cls), node))


def _find_ancestors(plan: Tuple[Step, ...], node: str) -> Tuple[tuple, tuple]:
    # plan() is topological with children first, so one pass finds every
    # ancestor, each after its on-path children: a child not found by then
    # is off the path.
    on_path, steps = {node}, []
    for current, _, weights in plan:
        if weights and current != node and any(child in on_path for child, _ in weights):
            on_path.add(current)
            steps.append((current, weights))
    off = dict.fromkeys(child for _, weights in steps for child, _ in weights if child not in on_path)
    return tuple(steps), tuple(off)


def _path_weight(
    tree: IndexTree, node: str, cls: InnovatorClass, has_score: Callable[[str], bool]
) -> Fraction:
    """path_weight with each parent's weights rescaled over the children
    that have a score, as _aggregate rescales them.  A child on a path to
    `node` always counts: apply_scenario re-derives it.  The weight is kept
    per tree, class, node and gap pattern (the ancestors' off-path children
    without a score), so only a pattern's first query does Fraction
    arithmetic."""
    if node not in tree.nodes:
        raise NotAnAncestorPathError(f"unknown node {node!r}")
    steps, off = _ancestors(tree, node, cls)
    gaps = tuple(child for child in off if not has_score(child))
    return _cached(tree, ("weight", cls, node, gaps),
                   lambda: _weigh_path(steps, node, tree.root, gaps))


def _weigh_path(steps: tuple, node: str, root: str, gaps: tuple) -> Fraction:
    # Only nodes with a path to `node` get a (positive) coefficient.  Dividing
    # by the kept children's integer weights rescales over them; with all kept
    # it divides by their denominator, giving the rational weights as they are.
    coeff: Dict[str, Fraction] = {node: Fraction(1)}
    for current, weights in steps:
        total = sum(a * coeff[child] for child, a in weights if child in coeff)
        kept = sum(a for child, a in weights if child not in gaps)
        coeff[current] = total / kept
    return coeff.get(root, Fraction(0))


def _updated_scores(
    tree: IndexTree,
    scores: ScoreTable,
    cls: InnovatorClass,
    country: str,
    node: str,
    override: float,
) -> Dict[str, float]:
    """Scores for the override node and every ancestor on the class plan.

    Children without a score (possible under the renormalize missing-data
    policy) are dropped and the remaining weights rescaled, mirroring the
    engine's evaluation semantics.
    """
    updates: Dict[str, float] = {node: float(override)}
    entries = scores.entries
    for node_id, weights in _ancestors(tree, node, cls)[0]:
        parts = [(a, s) for child, a in weights
                 if (s := updates[child] if child in updates else entries.get((country, child)))
                 is not None]
        updates[node_id] = _aggregate(parts)
    return updates


def _check_country(scores: ScoreTable, country: str, root: str) -> None:
    # a root score proves the country is in the table in one lookup; the
    # O(countries) scan of the country tuple runs only without one
    if (country, root) not in scores.entries and country not in scores.countries():
        raise UnknownCountryError(f"country {country!r} not in score table")


def _competition_rank(ordered: List[float], own: float, score: float) -> int:
    """Rank at root score `score` of the country whose stored root is `own`,
    with every other country's score frozen: 1 + the number of others
    strictly above, which is the rank rank_scores assigns, ties included.
    `ordered` is every country's stored root, ascending, `own` among them."""
    return 1 + len(ordered) - bisect_right(ordered, score) - (own > score)


def apply_scenario(
    tree: IndexTree,
    scores: ScoreTable,
    classes: Mapping[str, InnovatorClass],
    scenario: Scenario,
) -> WhatIfOutcome:
    """Evaluate one override: new root score and rank for the country.

    Only the override node's ancestors are re-derived; every other country's
    scores stay frozen, so both ranks are bisected from the table's sorted
    root column instead of re-ranking.  After the table's first query builds
    and sorts that column, cost is O(ancestors + log countries): one pass
    over the node's ancestor steps, kept per tree, class and node, plus two
    bisects; the base table is not copied.  `tree` must have passed
    validate_tree, as for engine.evaluate_node.
    """
    country = scenario.country
    _check_country(scores, country, tree.root)
    if scenario.node not in tree.nodes:
        raise NotAnAncestorPathError(f"unknown node {scenario.node!r}")
    cls = classes[country]
    ordered = scores._ascending(tree.root)
    baseline_gci = scores.score(country, tree.root)
    updates = _updated_scores(tree, scores, cls, country, scenario.node, scenario.override)
    new_gci = updates.get(tree.root, baseline_gci)
    baseline_rank = _competition_rank(ordered, baseline_gci, baseline_gci)
    new_rank = _competition_rank(ordered, baseline_gci, new_gci)
    return WhatIfOutcome(
        country=country,
        node=scenario.node,
        override=scenario.override,
        baseline_gci=baseline_gci,
        new_gci=new_gci,
        baseline_rank=baseline_rank,
        new_rank=new_rank,
        delta_rank=baseline_rank - new_rank,
        new_scores=updates,
    )


def _solve(
    tree: IndexTree,
    scores: ScoreTable,
    cls: InnovatorClass,
    country: str,
    node: str,
    target: Optional[float],
) -> Optional[float]:
    """Increase of `node`'s score lifting `country`'s root strictly above
    `target`, or None when it would push the node past 7.  A None target
    means the country already holds the goal: 0.0, once `node` has passed
    the same checks.

    The slope is the country's effective path weight (each parent's weights
    rescaled over the children that have a score, as apply_scenario
    rescales them), and the root starts where apply_scenario re-derives it
    at the node's current score.  On a compute_all table that is the stored
    root bit for bit; on one read back from a rounded score CSV it is not.
    """
    w_eff = _path_weight(tree, node, cls, lambda child: scores.get(country, child) is not None)
    if w_eff <= 0:
        raise NotAnAncestorPathError(f"node {node!r} has no weighted path to {tree.root!r}")
    current = scores.get(country, node)
    if current is None:
        raise MissingNodeError(f"no baseline score for ({country}, {node})")
    if target is None:
        return 0.0
    start = _updated_scores(tree, scores, cls, country, node, current)[tree.root]
    delta = (target - start) / float(w_eff) + STRICT_MARGIN
    if current + delta > 7.0:
        return None
    return delta


def min_delta_for_rank_gain(
    tree: IndexTree,
    scores: ScoreTable,
    classes: Mapping[str, InnovatorClass],
    country: str,
    k: int,
    node: str,
) -> Optional[float]:
    """Smallest increase of `node`'s score buying at least k rank positions.

    Closed form: the country must strictly exceed the root score of the k-th
    country above it, and the root moves with slope w_eff, the exact
    rational path weight with each parent's weights rescaled over the
    children the country has a score for (as apply_scenario rescales them),
    so delta = (target - root) / w_eff + STRICT_MARGIN, where root is the
    country's root as apply_scenario re-derives it at the node's current score.
    Returns None (infeasible) when even a score of 7 cannot achieve the gain:
    either fewer than k countries sit strictly above, or the required node
    score exceeds the scale.  A gain k <= 0 costs 0.0 once `node` has passed
    the checks a positive gain makes.  After the table's first query builds
    and sorts its root column, cost is O(ancestors + log countries): the
    target is bisected from that sorted column, and w_eff is kept per tree,
    class, node and gap pattern (see _path_weight).
    """
    _check_country(scores, country, tree.root)
    ordered = scores._ascending(tree.root)
    target = None
    if k > 0:
        # the k-th score strictly above the country's; with fewer than k
        # countries above, no score reaches the gain
        at = bisect_right(ordered, scores.score(country, tree.root)) + k - 1
        target = ordered[at] if at < len(ordered) else math.inf
    return _solve(tree, scores, classes[country], country, node, target)


def min_delta_to_overtake(
    tree: IndexTree,
    scores: ScoreTable,
    classes: Mapping[str, InnovatorClass],
    country: str,
    target_country: str,
    node: str,
) -> Optional[float]:
    """Smallest increase of `node`'s score putting `country` strictly above
    `target_country` on the root index; 0.0 if already strictly above (once
    `node` has passed the checks the solve makes), None if the scale cannot
    reach it.  Solved as min_delta_for_rank_gain is."""
    _check_country(scores, country, tree.root)
    _check_country(scores, target_country, tree.root)
    root = scores._column(tree.root)
    own, target = root[country], root[target_country]
    return _solve(tree, scores, classes[country], country, node,
                  None if own > target else target)
