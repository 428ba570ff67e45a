"""Partial-equilibrium what-if analysis on composite scores.

A scenario overrides one node's score for one country, re-derives only that
node's ancestors, and counts the country's new rank on the root index while
all other countries stay frozen.  A query reads the country's off-path
scores once along the node's ancestor chain, into an exact integer sum and a
kept weight per level.  Those integers give the re-derived scores at any
override, rounded once per level as compute_all rounds, and the root's
slope: the product of each level's on-path weight over its kept weight
(summed over paths at a DAG level).  Aggregation is linear, so the slope
gives closed-form answers to "how much technology-index improvement buys k
rank positions".
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

from .errors import (
    MissingNodeError,
    NotAnAncestorPathError,
    OverrideOutOfScaleError,
    UnknownCountryError,
)
from .model import IndexTree, InnovatorClass, ScoreTable, Step, _cached, _Record
from .ranking import _competition_rank

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
    chain = _chain(tree, node, cls)
    return Fraction(*_slope(chain, [(0, full) for *_, full in chain], node, tree.root))


def _chain(tree: IndexTree, node: str, cls: InnovatorClass) -> Tuple[tuple, ...]:
    """`node`'s ancestors on the class plan, children first, each as (id,
    on-path children, off-path children, full integer weight), the children
    as (id, integer weight).  Built once per tree, class and node."""
    if node not in tree.nodes:
        raise NotAnAncestorPathError(f"unknown node {node!r}")
    return _cached(tree, ("chain", cls, node), lambda: _find_chain(tree.plan(cls), node))


def _find_chain(plan: Tuple[Step, ...], node: str) -> Tuple[tuple, ...]:
    # plan() is topological with children first, so one pass finds every
    # ancestor, each after its on-path children: a child not found by then
    # is off the path.
    on_path, steps = {node}, []
    for current, _, weights in plan:
        if weights and current != node and any(child in on_path for child, _ in weights):
            steps.append((current, tuple(w for w in weights if w[0] in on_path),
                          tuple(w for w in weights if w[0] not in on_path),
                          sum(a for _, a in weights)))
            on_path.add(current)
    return tuple(steps)


def _split(chain: Tuple[tuple, ...], entries: Mapping, country: str) -> List[Tuple[int, int]]:
    """(off, kept) per level of `chain` for `country`: the off-path children's
    sum(a * int(s * 2**52)) over those with a score, and the level's integer
    weight without the others, as _aggregate_columns drops a child without a
    score.  On-path children always count: the chain re-derives them."""
    levels = []
    for _, _, off, kept in chain:
        num = 0
        for child, a in off:
            s = entries.get((country, child))
            if s is None:
                kept -= a
            else:
                num += a * int(s * 2.0 ** 52)  # exact: a score >= 1 is on the 2**-52 grid
        levels.append((num, kept))
    return levels


def _forward(chain: Tuple[tuple, ...], levels: List[Tuple[int, int]], node: str,
             override: float) -> Dict[str, float]:
    """{id: score} of `node` at `override` and of each ancestor in `chain`:
    each level's exact integer sum, rounded once by one int / int division,
    bit for bit the mean _aggregate_columns takes."""
    scores = {node: float(override)}
    for (current, on, _, _), (num, kept) in zip(chain, levels):
        for child, a in on:
            num += a * int(scores[child] * 2.0 ** 52)
        scores[current] = num / (kept << 52)
    return scores


def _slope(chain: Tuple[tuple, ...], levels: List[Tuple[int, int]], node: str,
           root: str) -> Tuple[int, int]:
    """d(root) / d(node) as (num, den): on a single path the products of each
    level's on-path weight and of its kept weight, 1 when `node` is the root
    and 0 when the root does not reach it; past a level with several on-path
    children (a DAG), the exact Fraction sum over paths."""
    num = den = 1
    for (_, on, _, _), (_, kept) in zip(chain, levels):
        if len(on) > 1:
            break
        num *= on[0][1]
        den *= kept
    else:
        return (num, den) if (chain[-1][0] if chain else node) == root else (0, 1)
    coeff = {node: Fraction(1)}
    for (current, on, _, _), (_, kept) in zip(chain, levels):
        coeff[current] = sum(a * coeff[child] for child, a in on) / kept
    weight = coeff.get(root, Fraction(0))
    return weight.numerator, weight.denominator


def _check_country(scores: ScoreTable, country: str, root: str) -> None:
    # a root score proves the country is in the table in one lookup; the
    # O(countries) scan of the country tuple runs only without one
    if (country, root) not in scores.entries and country not in scores.countries():
        raise UnknownCountryError(f"country {country!r} not in score table")


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
    and sorts that column, cost is O(ancestors + log countries): one read of
    the country's off-path scores and one pass up the node's chain (see
    _chain), plus two bisects; the base table is not copied.  `tree` must
    have passed validate_tree, as for engine.evaluate_node.
    """
    country = scenario.country
    _check_country(scores, country, tree.root)
    chain = _chain(tree, scenario.node, classes[country])
    ordered = scores._ascending(tree.root)
    baseline_gci = scores.score(country, tree.root)
    updates = _forward(chain, _split(chain, scores.entries, country), scenario.node,
                       scenario.override)
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

    One read of the chain gives the slope num / den (see _slope) and the
    root where apply_scenario re-derives it at the node's current score: on a
    compute_all table the stored root bit for bit, on one read back from a
    rounded score CSV not.  int / int rounds correctly, so num / den is the
    float of the exact rational slope, with no Fraction arithmetic off a DAG
    level.
    """
    chain = _chain(tree, node, cls)
    levels = _split(chain, scores.entries, country)
    num, den = _slope(chain, levels, node, tree.root)
    if not num:
        raise NotAnAncestorPathError(f"node {node!r} has no weighted path to {tree.root!r}")
    current = scores.get(country, node)
    if current is None:
        raise MissingNodeError(f"no baseline score for ({country}, {node})")
    if target is None:
        return 0.0
    start = _forward(chain, levels, node, current)[tree.root]
    delta = (target - start) / (num / den) + STRICT_MARGIN
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
    country's root as apply_scenario re-derives it at the node's current
    score.  Both come from one ancestor chain, with w_eff as a quotient of
    integer products (see _solve).
    Returns None (infeasible) when even a score of 7 cannot achieve the gain:
    either fewer than k countries sit strictly above, or the required node
    score exceeds the scale.  A gain k <= 0 costs 0.0 once `node` has passed
    the checks a positive gain makes.  After the table's first query builds
    and sorts its root column, cost is O(ancestors + log countries): the
    target is bisected from that sorted column, and the chain is kept per
    tree, class and node; nothing is kept per country.
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
