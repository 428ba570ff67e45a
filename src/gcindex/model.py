"""Domain types for composite-index computation.

A weighted aggregation tree (really a DAG) maps leaf indicators to composite
scores on the 1-7 scale.  Weights are exact rationals so the sum-to-1
invariant can be checked without floating-point slack.  Everything here is
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import chain
from types import MappingProxyType
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import (
    CycleError,
    DanglingChildError,
    DuplicateKeyError,
    MissingClassError,
    MissingNodeError,
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


#: the empty mapping a missing year or indicator reads as; never mutated
_EMPTY: Mapping = MappingProxyType({})


class Panel:
    """Immutable observations indexed by year and indicator, plus a
    country -> class map.

    Built from plain (year, country, indicator, value) rows, the one place
    they are checked: each distinct year in [1990, 2100], each distinct
    country or indicator token non-empty without whitespace, each value
    finite (ValueError otherwise; raw units for hard indicators, 1-7 for
    survey ones) and each key unique (DuplicateKeyError); the first faulty
    row in row order raises.  Every country in the rows must have a class
    entry.

    Values are kept as {year: {indicator: {country: value}}}, one column
    per indicator and year, with the sorted year tuple and each year's
    sorted country tuple; all are built once, at construction, in O(rows),
    and no per-row key is built.  Costs after that: `years()` and
    `countries(year)` O(1), returning the kept tuples; `value` three and
    `innovator_class` one dict lookup; `countries()` without a year merges
    the per-year tuples, O(countries x years); `len` O(columns).
    """

    def __init__(
        self,
        rows: Iterable[Tuple[int, str, str, float]],
        classes: Optional[Mapping[str, InnovatorClass]] = None,
    ):
        by_year: Dict[int, Dict[str, Dict[str, float]]] = {}
        checked = set()  # country and indicator tokens that passed _check_token
        isfinite = math.isfinite
        last = None  # the previous row's year, whose columns are `columns`
        for year, country, indicator, value in rows:
            if year != last:
                columns = by_year.get(year)
                if columns is None:
                    _check_year(year)
                    columns = by_year[year] = {}
                last = year
            if country not in checked:
                _check_token("country", country)
                checked.add(country)
            column = columns.get(indicator)
            if column is None:
                if indicator not in checked:
                    _check_token("indicator", indicator)
                    checked.add(indicator)
                column = columns[indicator] = {}
            if not isfinite(value):
                raise ValueError(f"value {value} is not finite")
            if country in column:
                raise DuplicateKeyError(f"duplicate observation {(year, country, indicator)}")
            column[country] = value
        countries = {
            year: tuple(sorted(set().union(*columns.values()))) for year, columns in by_year.items()
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
        return sum(len(column) for columns in self._by_year.values() for column in columns.values())

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
        return self._columns(year).get(indicator, _EMPTY).get(country)

    def _columns(self, year: int) -> Mapping[str, Mapping[str, float]]:
        """{indicator: {country: value}} for one year, the kept dicts
        themselves (empty for a year not in the panel); do not mutate them."""
        return self._by_year.get(year, _EMPTY)


class _Record:
    """Base of the immutable value types: a record of named fields.

    The fields are a subclass's own annotated names in declaration order,
    kept with their annotation strings in `_fields`.  A class attribute of
    a field's name is its default; an unannotated one (`_cache`) is no
    field.  Fields are given by position or keyword; a missing, extra or
    repeated argument raises TypeError, and `__post_init__` runs once they
    are set.  Records are equal when of the same type with equal fields
    (`==` with anything else returns NotImplemented) and hash as their field
    tuple, so one holding a dict is unhashable.  repr is
    `QualName(field=value!r, ...)`.  Setting or deleting an attribute raises
    AttributeError; only object.__setattr__, as `_cached` uses it, gets by.
    """

    _fields: Dict[str, str] = {}

    def __init_subclass__(cls) -> None:
        cls._fields = fields = dict(vars(cls).get("__annotations__", {}))
        # Compiled once per class, as dataclasses does: Python itself binds the
        # arguments, and fields set one by one through object.__setattr__ keep
        # the fast per-instance attribute layout that a __dict__ update loses.
        params = ", ".join(f"{name}=cls_.{name}" if name in vars(cls) else name for name in fields)
        body = "".join(f"    setattr_(self, {name!r}, {name})\n" for name in fields)
        namespace = {"cls_": cls, "setattr_": object.__setattr__}
        exec(f"def __init__(self, {params}):\n{body}    self.__post_init__()\n", namespace)
        cls.__init__ = namespace["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __post_init__(self) -> None:
        """Check the fields once they are set; the base checks nothing."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        cells = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({cells})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class Normalization(_Record):
    """Min-max bounds mapping a raw indicator onto the 1-7 scale."""

    min: float
    max: float

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise ValueError(f"normalization needs finite bounds, got [{self.min}, {self.max}]")
        if not self.max > self.min:
            raise ValueError(f"normalization needs max > min, got [{self.min}, {self.max}]")


Edge = Tuple[str, Fraction]
NormalizeSpec = Union[Normalization, str, None]  # Normalization | OBSERVED | None


class Node(_Record):
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


_MISSING = object()


def _cached(owner: Any, key: tuple, build: Callable[[], Any]) -> Any:
    """`owner`'s kept result for `key`, built on first use.  The store is the
    owner's `_cache`, an unannotated class attribute and so no record field
    (== and repr ignore it), replaced, never mutated, by object.__setattr__:
    threads sharing the owner at worst repeat a build.  A build that raises
    keeps nothing; what a build keeps itself (a nested _cached call) stays kept."""
    value = (owner._cache or {}).get(key, _MISSING)  # one hash of `key` when kept
    if value is _MISSING:
        value = build()
        object.__setattr__(owner, "_cache", {**(owner._cache or {}), key: value})
    return value


class IndexTree(_Record):
    """Weighted aggregation DAG with a designated root node."""

    nodes: Mapping[str, Node]
    root: str
    # _cached() store: {(kind, cls): order or plan, ("subtree", node id):
    # that node's rooted tree, and whatif's ("chain", cls, node id) entries}
    _cache = None

    def node(self, node_id: str) -> Node:
        return self.nodes[node_id]

    def reachable(self, cls: Optional[InnovatorClass] = None) -> Tuple[str, ...]:
        """Node ids reachable from the root, in deterministic topological
        order (children before parents).  With cls=None the union of both
        classes' edges is walked.  The walk runs once per tree and class."""
        return _cached(self, ("order", cls), lambda: self._walk(cls))

    def plan(self, cls: InnovatorClass) -> Tuple[Step, ...]:
        """reachable(cls) as scoring steps: each leaf with its normalize
        spec, each aggregate with its class weights w as integers a = w * D
        over their common denominator D, so the mean over any subset of the
        children is sum(a * s) / sum(a).  Built once per tree and class; the
        tree must have passed validate_tree."""
        return _cached(self, ("plan", cls), lambda: self._weigh(cls))

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


class ScoreTable(_Record):
    """Per-country, per-node scores on the 1-7 scale for one year.

    The sorted country tuple, each country's row, each node's column and
    each column's scores in ascending order are built on first use and
    kept with the table (they take no part in equality); compute_all
    keeps the countries and rows its walk gives, and its entries are built
    from those rows on first read (_from_rows).
    """

    year: int
    entries: Mapping[Tuple[str, str], float]
    # _cached() store: {("countries",): the sorted country tuple, ("rows",):
    # {country: (nodes, scores)}, ("column", node): {country: score},
    # ("ascending", node): that column's scores in ascending order}
    _cache = None

    def __post_init__(self):
        self._check(self.entries.values())

    @classmethod
    def _from_rows(cls, year: int, rows: Dict[str, Tuple[Tuple[str, ...], Sequence]]) -> ScoreTable:
        """The table of `rows` as _rows gives them, in country order; every
        score is range-checked, as the constructor checks its entries."""
        table = cls.__new__(cls)
        object.__setattr__(table, "year", year)
        object.__setattr__(table, "_cache", {("countries",): tuple(rows), ("rows",): rows})
        table._check(chain.from_iterable(
            scores if None not in scores else [s for s in scores if s is not None]
            for _, scores in rows.values()))
        return table

    def _check(self, scores: Iterable[float]) -> None:
        # the scores alone are the cheap pass; the keyed one names the first
        # offender in entry order, and only runs when there is one
        for score in scores:
            if not 1.0 <= score <= 7.0:
                _check_scores(self.entries.items())

    def score(self, country: str, node: str) -> float:
        return self.entries[(country, node)]

    def get(self, country: str, node: str) -> Optional[float]:
        return self.entries.get((country, node))

    def countries(self) -> Tuple[str, ...]:
        return _cached(self, ("countries",), lambda: tuple(sorted({c for (c, _) in self.entries})))

    def _rows(self) -> Dict[str, Tuple[Tuple[str, ...], Sequence[Optional[float]]]]:
        """{country: (nodes, scores)} for every country: its scores aligned
        with a node tuple, None where it has no score for that node; callers
        must not mutate it.  compute_all keeps the rows its walk gives (a
        class's plan order, countries sharing their class's tuple, in
        country order); any other table builds them from its entries."""
        def build() -> Dict[str, Tuple[Tuple[str, ...], List[float]]]:
            rows: Dict[str, Tuple[List[str], List[float]]] = {}
            for (c, n), s in self.entries.items():
                nodes, scores = rows.get(c) or rows.setdefault(c, ([], []))
                nodes.append(n)
                scores.append(s)
            return {c: (tuple(nodes), scores) for c, (nodes, scores) in rows.items()}

        return _cached(self, ("rows",), build)

    def _column(self, node: str) -> Dict[str, float]:
        """{country: score} of the countries that have a score on `node`, in
        country order, empty when none has; built once per node: read from
        the kept rows of a compute_all table, one entry per country of any
        other (which builds no rows); callers must not mutate it."""
        def build() -> Dict[str, float]:
            countries = self.countries()  # kept, so _cache is set
            rows = self._cache.get(("rows",))
            if rows is None:
                get = self.entries.get
                return {c: s for c in countries if (s := get((c, node))) is not None}
            at: Dict[tuple, int] = {}  # each distinct node tuple -> the node's place, -1 if absent
            column = {}
            for c in countries:
                nodes, scores = rows[c]
                if (i := at.get(nodes)) is None:
                    i = at[nodes] = nodes.index(node) if node in nodes else -1
                if i >= 0 and (s := scores[i]) is not None:
                    column[c] = s
            return column

        return _cached(self, ("column", node), build)

    def _ascending(self, node: str) -> List[float]:
        """_column(node)'s scores in ascending order, sorted once per node;
        callers must not mutate it.  Raises MissingNodeError, on every call,
        unless every country has a score for the node."""
        def build() -> List[float]:
            column = self._column(node)
            if not column:
                raise MissingNodeError(f"no scores for node {node!r}")
            if len(column) < len(self.countries()):
                missing = [c for c in self.countries() if c not in column]
                raise MissingNodeError(f"node {node!r} has no score for: {missing}")
            return sorted(column.values())

        return _cached(self, ("ascending", node), build)


class _Transposed:
    """ScoreTable.entries of a _from_rows table: a non-data descriptor that
    builds {(country, node): score} from the rows on the first read and sets
    it as the instance attribute through object.__setattr__, as the
    constructor does; that attribute shadows it from then on.
    functools.cached_property would write through __dict__, which turns the
    instance's attribute values into a dict and slows every later read of
    them; a __getattr__ hook would stop CPython specializing any."""

    def __get__(self, table: Optional[ScoreTable], owner: type) -> Any:
        if table is None:
            return self
        entries = {(c, n): s for c, (nodes, scores) in table._rows().items()
                   for n, s in zip(nodes, scores) if s is not None}
        object.__setattr__(table, "entries", entries)
        return entries


# after the class body, where _Record would take it for the field's default
ScoreTable.entries = _Transposed()


#: Tie policy used throughout: tied scores share the best rank and the next
#: distinct score skips accordingly (1-2-2-4).
COMPETITION = "competition"


class RankTable(_Record):
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
