"""Domain types for composite-index computation.

A weighted aggregation tree (really a DAG) maps leaf indicators to composite
scores on the 1-7 scale.  Weights are exact rationals so the sum-to-1
invariant can be checked without floating-point slack.  Everything here is
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Any, Callable, Dict, Iterable, Mapping, Optional, Tuple, Union

from .errors import (
    CycleError,
    DanglingChildError,
    DuplicateKeyError,
    MissingClassError,
    WeightSumError,
)

#: Marker for hard-data leaves whose min/max bounds are derived per year
#: from the observed cross-country values.
OBSERVED = "observed"


class InnovatorClass(Enum):
    """Country class selecting the weighting scheme (core vs non-core)."""

    CORE = "core"
    NONCORE = "noncore"


def _check_year(year: int) -> None:
    if not 1990 <= year <= 2100:
        raise ValueError(f"year {year} outside [1990, 2100]")


def _check_token(name: str, token: str) -> None:
    # str.split() breaks at exactly the characters str.isspace() accepts, so
    # a token that splits into itself is non-empty and holds no whitespace.
    if token.split() != [token]:
        raise ValueError(f"{name} must be non-empty without whitespace: {token!r}")


@dataclass(frozen=True)
class Observation:
    """One (year, country, indicator, value) data point.

    Hard indicators carry raw units; survey indicators are already on the
    1-7 scale.  The value must be finite.
    """

    year: int
    country: str
    indicator: str
    value: float

    def __post_init__(self):
        _check_year(self.year)
        _check_token("country", self.country)
        _check_token("indicator", self.indicator)
        if not math.isfinite(self.value):
            raise ValueError(f"value {self.value} is not finite")

    @property
    def key(self) -> Tuple[int, str, str]:
        return (self.year, self.country, self.indicator)


class Panel:
    """Immutable observations indexed by year, plus a country -> class map.

    Duplicate (year, country, indicator) keys are rejected, and every country
    appearing in the observations must have a class entry.

    Values are kept as {year: {(country, indicator): value}}, with the
    sorted year tuple and each year's sorted country tuple; all are built
    once, at construction, in O(observations).  Costs after that:
    `years()` and `countries(year)` O(1), returning the kept tuples;
    `value` and `innovator_class` one dict lookup; `slice_year(year, ...)`
    O(that year's entries), never reading another year; `countries()`
    without a year merges the per-year tuples, O(countries x years).
    """

    def __init__(
        self,
        observations: Iterable[Observation],
        classes: Optional[Mapping[str, InnovatorClass]] = None,
    ):
        by_year: dict = {}
        for obs in observations:
            values = by_year.setdefault(obs.year, {})
            key = (obs.country, obs.indicator)
            if key in values:
                raise DuplicateKeyError(f"duplicate observation {obs.key}")
            values[key] = obs.value
        self._index(by_year, classes)

    @classmethod
    def _from_years(
        cls,
        by_year: Dict[int, Dict[Tuple[str, str], float]],
        classes: Optional[Mapping[str, InnovatorClass]],
    ) -> "Panel":
        """A panel that takes over an already-checked year-indexed dict
        (load_panel's path: no Observation per row, no copy)."""
        panel = object.__new__(cls)
        panel._index(by_year, classes)
        return panel

    def _index(self, by_year: dict, classes: Optional[Mapping[str, InnovatorClass]]) -> None:
        countries = {
            year: tuple(sorted({c for c, _ in values})) for year, values in by_year.items()
        }
        present = set().union(*countries.values())
        if classes is None:
            # Regional default: treat every observed country as a non-core
            # innovator unless told otherwise.
            classes = {c: InnovatorClass.NONCORE for c in present}
        missing = present - set(classes)
        if missing:
            raise MissingClassError(f"no innovator class for: {sorted(missing)}")
        self._by_year = by_year
        self._countries = countries
        self._years = tuple(sorted(by_year))
        self._classes = dict(classes)

    def __len__(self) -> int:
        return sum(len(values) for values in self._by_year.values())

    @property
    def classes(self) -> Mapping[str, InnovatorClass]:
        return dict(self._classes)

    def innovator_class(self, country: str) -> InnovatorClass:
        return self._classes[country]

    def years(self) -> Tuple[int, ...]:
        return self._years

    def countries(self, year: Optional[int] = None) -> Tuple[str, ...]:
        if year is None:
            return tuple(sorted(set().union(*self._countries.values())))
        return self._countries.get(year, ())

    def value(self, year: int, country: str, indicator: str) -> Optional[float]:
        return self._by_year.get(year, {}).get((country, indicator))

    def slice_year(self, year: int, indicators: Iterable[str]) -> dict:
        """Return {(country, indicator): value} for one year."""
        wanted = set(indicators)
        return {key: v for key, v in self._by_year.get(year, {}).items() if key[1] in wanted}


@dataclass(frozen=True)
class Normalization:
    """Min-max bounds mapping a raw indicator onto the 1-7 scale."""

    min: float
    max: float

    def __post_init__(self):
        if not self.max > self.min:
            raise ValueError(f"normalization needs max > min, got [{self.min}, {self.max}]")


Edge = Tuple[str, Fraction]
NormalizeSpec = Union[Normalization, str, None]  # Normalization | OBSERVED | None


@dataclass(frozen=True)
class Node:
    """One tree node: an aggregate with weighted children, or a leaf.

    Aggregates hold either a shared edge list or per-class edge lists (the
    child sets themselves may differ between classes).  Leaves optionally
    carry a Normalization, the OBSERVED marker, or nothing (survey data
    already on the 1-7 scale).
    """

    id: str
    edges: Optional[Tuple[Edge, ...]] = None
    edges_by_class: Optional[Mapping[InnovatorClass, Tuple[Edge, ...]]] = None
    normalize: NormalizeSpec = None

    def __post_init__(self):
        if self.edges is not None and self.edges_by_class is not None:
            raise ValueError(f"node {self.id}: shared and per-class edges are exclusive")
        if not self.is_leaf and self.normalize is not None:
            raise ValueError(f"node {self.id}: normalization only applies to leaves")
        if self.normalize is not None and not isinstance(self.normalize, Normalization):
            if self.normalize != OBSERVED:
                raise ValueError(f"node {self.id}: bad normalize spec {self.normalize!r}")

    @property
    def is_leaf(self) -> bool:
        return self.edges is None and self.edges_by_class is None

    def children(self, cls: InnovatorClass) -> Tuple[Edge, ...]:
        """Weighted child edges effective for one innovator class."""
        if self.edges is not None:
            return self.edges
        if self.edges_by_class is not None:
            return tuple(self.edges_by_class.get(cls, ()))
        return ()


#: IndexTree.plan step: (leaf, normalize spec, None) or (aggregate, None, ((child, weight), ...))
Step = Tuple[str, NormalizeSpec, Optional[Tuple[Tuple[str, int], ...]]]


@dataclass(frozen=True)
class IndexTree:
    """Weighted aggregation DAG with a designated root node."""

    nodes: Mapping[str, Node]
    root: str
    # {(kind, cls): order or plan, ("subtree", node id): that node's rooted
    # tree}, kept outside the dataclass fields (== and repr ignore it) and
    # replaced, never mutated, by _cached() through object.__setattr__, so
    # threads sharing the tree at worst repeat a build.
    _cache = None

    def node(self, node_id: str) -> Node:
        return self.nodes[node_id]

    def _cached(self, key: tuple, build: Callable[[], Any]) -> Any:
        cache = self._cache or {}
        if key not in cache:
            cache = {**cache, key: build()}
            object.__setattr__(self, "_cache", cache)
        return cache[key]

    def reachable(self, cls: Optional[InnovatorClass] = None) -> Tuple[str, ...]:
        """Node ids reachable from the root, in deterministic topological
        order (children before parents).  With cls=None the union of both
        classes' edges is walked.  The walk runs once per tree and class."""
        return self._cached(("order", cls), lambda: self._walk(cls))

    def plan(self, cls: InnovatorClass) -> Tuple[Step, ...]:
        """reachable(cls) as scoring steps: each leaf with its normalize
        spec, each aggregate with its class weights w as integers a = w * D
        over their common denominator D, so the mean over any subset of the
        children is sum(a * s) / sum(a).  Built once per tree and class; the
        tree must have passed validate_tree."""
        return self._cached(("plan", cls), lambda: self._weigh(cls))

    def _weigh(self, cls: InnovatorClass) -> Tuple[Step, ...]:
        def step(node_id: str) -> Step:
            node = self.nodes[node_id]
            if node.is_leaf:
                return node_id, node.normalize, None
            edges = node.children(cls)
            den = math.lcm(*(w.denominator for _, w in edges))
            return node_id, None, tuple((c, w.numerator * (den // w.denominator)) for c, w in edges)

        return tuple(map(step, self.reachable(cls)))

    def _walk(self, cls: Optional[InnovatorClass]) -> Tuple[str, ...]:
        order: list = []
        seen = set()
        onpath = set()

        def edges_of(node: Node) -> Tuple[Edge, ...]:
            if cls is not None:
                return node.children(cls)
            if node.edges is not None:
                return node.edges
            if node.edges_by_class is not None:
                merged: dict = {}
                for c in InnovatorClass:
                    for child, w in node.children(c):
                        merged.setdefault(child, w)
                return tuple(merged.items())
            return ()

        def visit(node_id: str, parent: Optional[str]):
            if node_id in seen:
                return
            if node_id in onpath:
                raise CycleError(f"cycle through node {node_id!r}")
            if node_id not in self.nodes:
                if parent is None:
                    raise DanglingChildError(f"unknown node {node_id!r}")
                raise DanglingChildError(f"node {parent!r} references unknown child {node_id!r}")
            onpath.add(node_id)
            for child, _ in sorted(edges_of(self.nodes[node_id])):
                visit(child, node_id)
            onpath.discard(node_id)
            seen.add(node_id)
            order.append(node_id)

        visit(self.root, None)
        return tuple(order)

    def leaves(self, cls: Optional[InnovatorClass] = None) -> Tuple[str, ...]:
        return tuple(n for n in self.reachable(cls) if self.nodes[n].is_leaf)


def validate_tree(tree: IndexTree) -> IndexTree:
    """Check all IndexTree invariants; return the tree unchanged if valid.

    Raises CycleError, DanglingChildError or WeightSumError.  Validation is
    idempotent: a validated tree validates again to an equal tree.
    """
    if tree.root not in tree.nodes:
        raise DanglingChildError(f"root {tree.root!r} not among nodes")
    reachable = tree.reachable()  # raises CycleError / DanglingChildError
    for node_id in reachable:
        node = tree.nodes[node_id]
        if node.is_leaf:
            continue
        for cls in InnovatorClass:
            edges = node.children(cls)
            if not edges:
                continue
            seen_children = set()
            total = Fraction(0)
            for child, weight in edges:
                if child in seen_children:
                    raise DanglingChildError(f"node {node_id!r} lists child {child!r} twice")
                seen_children.add(child)
                if not isinstance(weight, Fraction):
                    raise WeightSumError(f"node {node_id!r}: weight for {child!r} is not an exact rational")
                if not 0 < weight <= 1:
                    raise WeightSumError(f"node {node_id!r}: weight {weight} for {child!r} outside (0, 1]")
                total += weight
            if total != 1:
                raise WeightSumError(f"node {node_id!r} ({cls.value}): weights sum to {total}, not 1")
        if not node.children(InnovatorClass.CORE) and not node.children(InnovatorClass.NONCORE):
            raise WeightSumError(f"aggregate node {node_id!r} has no edges for either class")
    return tree


def _check_scores(scores: Iterable[Tuple[Tuple[str, str], float]]) -> None:
    for (country, node), score in scores:
        if not 1.0 <= score <= 7.0:
            raise ValueError(f"score {score} for ({country}, {node}) outside [1, 7]")


@dataclass(frozen=True)
class ScoreTable:
    """Per-country, per-node scores on the 1-7 scale for one year.

    The sorted country tuple is built from the entries on first use and kept
    with the table (it takes no part in equality).
    """

    year: int
    entries: Mapping[Tuple[str, str], float]
    # Filled by countries() through object.__setattr__, as a plain instance
    # attribute: functools.cached_property would go through the instance
    # __dict__, and a materialized __dict__ slows every later attribute read.
    _country_index = None

    def __post_init__(self):
        _check_scores(self.entries.items())

    def score(self, country: str, node: str) -> float:
        return self.entries[(country, node)]

    def get(self, country: str, node: str) -> Optional[float]:
        return self.entries.get((country, node))

    def countries(self) -> Tuple[str, ...]:
        if self._country_index is None:
            index = tuple(sorted({c for (c, _) in self.entries}))
            object.__setattr__(self, "_country_index", index)
        return self._country_index

    def nodes(self) -> Tuple[str, ...]:
        return tuple(sorted({n for (_, n) in self.entries}))

    def with_overrides(self, country: str, updates: Mapping[str, float]) -> "ScoreTable":
        """A copy with `country`'s scores for the given nodes replaced.

        Only the updated scores are range-checked (ValueError outside
        [1, 7], NaN included): the base entries were checked when this table
        was built.  The copy is one dict merge; when `country` is already in
        the table, the new table shares this table's country tuple instead
        of rebuilding it.
        """
        overrides = {(country, node): score for node, score in updates.items()}
        _check_scores(overrides.items())
        table = object.__new__(ScoreTable)  # skips __post_init__'s full re-check
        object.__setattr__(table, "year", self.year)
        object.__setattr__(table, "entries", {**self.entries, **overrides})
        index = self._country_index
        if index is not None and country in index:
            object.__setattr__(table, "_country_index", index)
        return table


#: Tie policy used throughout: tied scores share the best rank and the next
#: distinct score skips accordingly (1-2-2-4).
COMPETITION = "competition"


@dataclass(frozen=True)
class RankTable:
    """Ordinal positions for one year.  Rank 1 is the best."""

    year: int
    ranks: Mapping[str, int]
    policy: str = COMPETITION

    def __post_init__(self):
        for country, rank in self.ranks.items():
            if rank < 1:
                raise ValueError(f"rank {rank} for {country} must be positive")

    def rank(self, country: str) -> int:
        return self.ranks[country]

    def countries(self) -> Tuple[str, ...]:
        return tuple(sorted(self.ranks))
