"""Shared generators and independent oracles for the test suite.

The oracles deliberately avoid the package's evaluation path: plain-float
and per-node Fraction recursion for tree scoring, adaptive Simpson for the
chi-square tail.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from random import Random

from gcindex.model import OBSERVED, IndexTree, InnovatorClass, Node, Normalization, validate_tree


def make_random_tree(
    rng: Random, max_depth: int = 3, max_children: int = 4, per_class: bool = False
) -> IndexTree:
    """Random valid tree with survey-style leaves and exact rational weights.

    With per_class, every aggregate draws its own weights for each class, and
    the non-core class sometimes drops a child.
    """
    counter = itertools.count()
    nodes = {}

    def weigh(children):
        raw = [rng.randint(1, 9) for _ in children]
        return tuple((c, Fraction(w, sum(raw))) for c, w in zip(children, raw))

    def build(depth: int) -> str:
        node_id = f"n{next(counter)}"
        if depth > 0 and (depth >= max_depth or rng.random() < 0.35):
            nodes[node_id] = Node(node_id)
            return node_id
        k = rng.randint(2, max_children)
        children = [build(depth + 1) for _ in range(k)]
        if not per_class:
            nodes[node_id] = Node(node_id, edges=weigh(children))
            return node_id
        noncore = [c for c in children if rng.random() < 0.8] or children[:1]
        nodes[node_id] = Node(node_id, edges_by_class={
            InnovatorClass.CORE: weigh(children),
            InnovatorClass.NONCORE: weigh(noncore),
        })
        return node_id

    root = build(0)
    return validate_tree(IndexTree(nodes=nodes, root=root))


def aggregate(parts) -> float:
    """Weighted mean sum(a * s) / sum(a) of (integer weight, score) pairs,
    rounded once: the scalar form of engine._aggregate_columns for one
    country.  Scores are in [1, 7], where a float is a whole multiple of
    2**-52, so int(s * 2**52) is exact and one int / int true division
    rounds correctly."""
    num = den = 0
    for a, s in parts:
        num += a * int(s * 2.0 ** 52)
        den += a
    return num / (den << 52)


def year_values(panel, year: int) -> dict:
    """{(country, indicator): value} of one year's observations (empty for a
    year not in the panel), indicator by indicator as the panel keeps them."""
    return {(country, indicator): value
            for indicator, column in panel._columns(year).items()
            for country, value in column.items()}


def make_assignment(rng: Random, tree: IndexTree, country: str = "X") -> dict:
    return {(country, leaf): rng.uniform(1.0, 7.0) for leaf in tree.leaves()}


def oracle_eval(tree: IndexTree, node_id: str, cls: InnovatorClass, leaves, country: str) -> float:
    """Brute-force recursive weighted sum in plain float arithmetic."""
    node = tree.node(node_id)
    if node.is_leaf:
        return float(leaves[(country, node_id)])
    return sum(
        float(w) * oracle_eval(tree, child, cls, leaves, country)
        for child, w in node.children(cls)
    )


def reference_scores(tree: IndexTree, panel, year: int) -> dict:
    """{(country, node): score} for every node of `year` that has data, by
    recursion from the root with each node rounded once:
    float(sum(Fraction(w) / sum of present w * Fraction(child))) over the
    children that have a score (all of them when no leaf is missing).
    Leaves map onto [1, 7] by the clamped min-max formula, with observed
    bounds taken by a plain scan of the year; no package walk, cache,
    integer sum or normalization code is used.
    """
    countries = panel.countries(year)
    values = {(c, leaf): panel.value(year, c, leaf) for c in countries for leaf in tree.nodes}
    values = {key: v for key, v in values.items() if v is not None}

    def leaf_score(country, leaf):
        raw = values.get((country, leaf))
        spec = tree.node(leaf).normalize
        if raw is None or spec is None:
            return raw
        if spec == OBSERVED:
            seen = [v for (_, n), v in values.items() if n == leaf]
            spec = Normalization(min(seen), max(seen))
        lo, hi = spec.min, spec.max
        return min(7.0, max(1.0, 1.0 + 6.0 * (min(max(raw, lo), hi) - lo) / (hi - lo)))

    def score(country, cls, node_id, memo):
        if node_id not in memo:
            node = tree.node(node_id)
            if node.is_leaf:
                memo[node_id] = leaf_score(country, node_id)
            else:
                parts = [(Fraction(w), score(country, cls, child, memo))
                         for child, w in node.children(cls)]
                parts = [(w, Fraction(s)) for w, s in parts if s is not None]
                present = sum(w for w, _ in parts)
                memo[node_id] = float(sum(w / present * s for w, s in parts)) if parts else None
        return memo[node_id]

    result = {}
    for country in countries:
        memo: dict = {}
        score(country, panel.innovator_class(country), tree.root, memo)
        result.update(((country, n), s) for n, s in memo.items() if s is not None)
    return result


def chi2_pdf(x: float, df: int) -> float:
    a = df / 2.0
    return math.exp((a - 1.0) * math.log(x) - x / 2.0 - a * math.log(2.0) - math.lgamma(a))


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson quadrature with Richardson-style error control."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, eps, depth):
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = simpson(x0, x1, f0, flm, f1)
        right = simpson(x1, x2, f1, frm, f2)
        if depth <= 0 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(x0, x1, f0, flm, f1, left, eps / 2.0, depth - 1) + recurse(
            x1, x2, f1, frm, f2, right, eps / 2.0, depth - 1
        )

    mid = 0.5 * (a + b)
    fa, fm, fb = f(a), f(mid), f(b)
    whole = simpson(a, b, fa, fm, fb)
    return recurse(a, b, fa, fm, fb, whole, tol, 48)


def sf_by_integration(x: float, df: int, tol: float = 1e-11) -> float:
    """Upper-tail chi-square probability by integrating the density.

    The integrand decays like exp(-t/2); a cutoff 320 units past the larger
    of x and df leaves a remainder far below the tolerance.
    """
    if x == 0.0:
        return 1.0
    cutoff = max(x, float(df)) + 320.0
    return adaptive_simpson(lambda t: chi2_pdf(t, df), x, cutoff, tol)
