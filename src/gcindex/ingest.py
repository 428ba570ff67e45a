"""File input and report output.

Panels and class maps are CSV; index trees are JSON with rational-string
weights so the exact arithmetic survives a round trip.  Every parse failure
carries the file name and line number.  Report emission is deterministic:
stable ordering, 6-decimal numbers, '.' decimal separator, '\n' newlines.
"""

from __future__ import annotations

import dataclasses
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from . import svg
from .data import WEF_TREE_CONFIG, fixture_path
from .errors import (
    DuplicateKeyError,
    IoError,
    ParseError,
    SchemaError,
    UnsupportedFormatError,
)
from .model import (
    OBSERVED,
    IndexTree,
    InnovatorClass,
    Node,
    Normalization,
    Panel,
    RankTable,
    ScoreTable,
    _check_scores,
    _check_token,
    _check_year,
    validate_tree,
)
from .ranking import RankDeltaReport, format_delta
from .stats import ChiSquareResult, CorrelationResult, Decision, TrendResult
from .whatif import WhatIfOutcome

WEF_DEFAULT = "wef-default"

PANEL_HEADER = "year,country,indicator,value"
SCORE_HEADER = "year,country,node,score"
RANK_HEADER = "year,country,rank"
CLASS_HEADER = "country,class"


def _fmt6(value: float) -> str:
    value = float(value)
    if value == 0.0:
        value = 0.0  # normalize -0.0
    return f"{value:.6f}"


def _read_text(path: Union[str, Path]) -> str:
    """The file's text, '\r\n' and '\r' read as '\n'.  A byte that is not
    UTF-8 fails with the line that holds the first one."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        # each byte that does not decode reads as one of U+DC80..U+DCFF
        text = Path(path).read_text(encoding="utf-8", errors="surrogateescape")
        at = next(i for i, ch in enumerate(text) if "\udc80" <= ch <= "\udcff")
        raise ParseError(path, text.count("\n", 0, at) + 1,
                         f"invalid UTF-8 byte 0x{ord(text[at]) - 0xdc00:02x}") from None


def _rows(path, text: str, header: str):
    """(line number, stripped fields) for each data row under `header`,
    which must be the first data line (not blank and not a '#' comment);
    every row has the header's number of fields.  Lines end at '\n' only:
    reading the text already turned '\r\n' and '\r' into '\n', and
    str.splitlines would also break at '\x85', '\u2028' and other
    characters a field may hold.  Fields are stripped only on a line that
    holds whitespace: str.split() breaks at exactly what str.strip() removes."""
    lines = enumerate(text.split("\n"), start=1)
    for lineno, line in lines:
        line = line.strip()
        if line and not line.startswith("#"):
            break
    else:
        lineno, line = 1, ""
    if line.replace(" ", "") != header:
        raise ParseError(path, lineno, f"expected header {header!r}")
    n_fields = header.count(",") + 1
    for lineno, line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if line.split() != [line]:
            fields = [f.strip() for f in fields]
        if len(fields) != n_fields:
            raise ParseError(path, lineno,
                             f"expected {n_fields} fields ({header}), got {len(fields)}")
        yield lineno, fields


def _parse_int(path, lineno: int, column: int, token: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(path, lineno, f"column {column}: invalid integer {token!r}") from None


def _parse_float(path, lineno: int, column: int, token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ParseError(path, lineno, f"column {column}: invalid number {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(path, lineno, f"column {column}: non-finite number {token!r}")
    return value


def load_classes(path: Union[str, Path]) -> Dict[str, InnovatorClass]:
    """Read a country -> innovator-class CSV (header: country,class)."""
    classes: Dict[str, InnovatorClass] = {}
    for lineno, (country, cls_token) in _rows(path, _read_text(path), CLASS_HEADER):
        try:
            cls = InnovatorClass(cls_token.lower())
        except ValueError:
            raise ParseError(
                path, lineno, f"column 2: class must be core or noncore, got {cls_token!r}"
            ) from None
        if country in classes:
            raise DuplicateKeyError(f"{path}:{lineno}: duplicate class entry for {country!r}")
        classes[country] = cls
    return classes


def load_panel(
    path: Union[str, Path],
    classes: Optional[Mapping[str, InnovatorClass]] = None,
) -> Panel:
    """Read an observation panel CSV (header: year,country,indicator,value).

    '#' lines are comments.  Duplicate (year, country, indicator) keys fail
    with the offending line; countries without a class entry fail unless no
    class map is given, in which case everyone defaults to non-core.
    """
    by_year: Dict[int, Dict[Tuple[str, str], float]] = {}
    years = {}  # year field -> (year, that year's values), once the year passed
    checked = set()  # country and indicator tokens that passed _check_token
    text = _read_text(path)
    for lineno, (year_t, country, indicator, value_t) in _rows(path, text, PANEL_HEADER):
        year, values = years.get(year_t) or (_parse_int(path, lineno, 1, year_t), None)
        try:
            value = float(value_t)
        except ValueError:
            raise ParseError(path, lineno, f"column 4: invalid number {value_t!r}") from None
        if not math.isfinite(value):
            raise ParseError(path, lineno, f"column 4: non-finite number {value_t!r}")
        try:
            if values is None:
                values = by_year.get(year)
                if values is None:
                    _check_year(year)
                    values = by_year[year] = {}
                years[year_t] = year, values
            if country not in checked:
                _check_token("country", country)
                checked.add(country)
            if indicator not in checked:
                _check_token("indicator", indicator)
                checked.add(indicator)
        except ValueError as exc:
            raise ParseError(path, lineno, str(exc)) from None
        key = (country, indicator)
        if key in values:
            raise DuplicateKeyError(
                f"{path}:{lineno}: duplicate observation {(year, *key)}"
                f" (first at line {_first_line(path, text, year, key)})"
            )
        values[key] = value
    return Panel._from_years(by_year, classes)


def _first_line(path, text: str, year: int, key: Tuple[str, str]) -> int:
    """Line of the first panel row with this year and (country, indicator).
    Every row before a duplicate parsed, so the scan stops before any that
    did not."""
    for lineno, (year_t, country, indicator, _) in _rows(path, text, PANEL_HEADER):
        if int(year_t) == year and (country, indicator) == key:
            return lineno


def load_score_table(path: Union[str, Path]) -> ScoreTable:
    """Read back a score CSV written by emit_report.  A score outside
    [1, 7] fails with its line, as any other bad cell does."""
    entries: Dict[Tuple[str, str], float] = {}
    year: Optional[int] = None
    for lineno, (year_t, country, node, score_t) in _rows(path, _read_text(path), SCORE_HEADER):
        row_year = _parse_int(path, lineno, 1, year_t)
        if year is None:
            year = row_year
        elif row_year != year:
            raise ParseError(path, lineno, f"mixed years {year} and {row_year} in one table")
        key = (country, node)
        if key in entries:
            raise DuplicateKeyError(f"{path}:{lineno}: duplicate score row for {key}")
        entries[key] = _parse_float(path, lineno, 4, score_t)
        try:
            _check_scores([(key, entries[key])])
        except ValueError as exc:
            raise ParseError(path, lineno, f"column 4: {exc}") from None
    if year is None:
        raise ParseError(path, 1, "score table has no rows")
    return ScoreTable(year=year, entries=entries)


# ---------------------------------------------------------------------------
# tree config
# ---------------------------------------------------------------------------

def _parse_weight(node_id: str, token) -> Fraction:
    if isinstance(token, int):
        return Fraction(token)
    if isinstance(token, str):
        try:
            return Fraction(token)
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"node {node_id!r}: weight must be a rational string like '1/3', got {token!r}")


def _parse_edges(node_id: str, entries) -> Tuple[Tuple[str, Fraction], ...]:
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"node {node_id!r}: children must be a non-empty list")
    edges = []
    for entry in entries:
        if not isinstance(entry, dict) or "id" not in entry or "weight" not in entry:
            raise SchemaError(f"node {node_id!r}: each child needs 'id' and 'weight'")
        edges.append((str(entry["id"]), _parse_weight(node_id, entry["weight"])))
    return tuple(edges)


def load_tree(source: Union[str, Path]) -> IndexTree:
    """Build a validated IndexTree from a JSON config, or the literal
    "wef-default" for the bundled WEF tree config."""
    path = fixture_path(WEF_TREE_CONFIG) if str(source) == WEF_DEFAULT else Path(source)
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "nodes" not in doc or "root" not in doc:
        raise SchemaError(f"{path}: tree config needs 'nodes' and 'root'")
    nodes: Dict[str, Node] = {}
    for spec in doc["nodes"]:
        if not isinstance(spec, dict) or "id" not in spec:
            raise SchemaError(f"{path}: every node needs an 'id'")
        node_id = str(spec["id"])
        if node_id in nodes:
            raise SchemaError(f"{path}: node {node_id!r} defined twice")
        edges = None
        edges_by_class = None
        if "children" in spec:
            edges = _parse_edges(node_id, spec["children"])
        if "weights_by_class" in spec:
            by_class = spec["weights_by_class"]
            if edges is not None:
                raise SchemaError(
                    f"node {node_id!r}: 'children' and 'weights_by_class' are exclusive"
                )
            if not isinstance(by_class, dict):
                raise SchemaError(f"node {node_id!r}: weights_by_class must be an object")
            edges_by_class = {}
            for cls_token, entries in by_class.items():
                try:
                    cls = InnovatorClass(cls_token.lower())
                except ValueError:
                    raise SchemaError(
                        f"node {node_id!r}: unknown class {cls_token!r}"
                    ) from None
                edges_by_class[cls] = _parse_edges(node_id, entries)
        normalize = None
        if "normalization" in spec:
            norm = spec["normalization"]
            if norm == OBSERVED:
                normalize = OBSERVED
            elif isinstance(norm, dict) and set(norm) == {"min", "max"}:
                try:
                    normalize = Normalization(min=float(norm["min"]), max=float(norm["max"]))
                except (TypeError, ValueError) as exc:
                    raise SchemaError(f"node {node_id!r}: {exc}") from None
            else:
                raise SchemaError(
                    f"node {node_id!r}: normalization must be {{min, max}} or \"{OBSERVED}\""
                )
        try:
            nodes[node_id] = Node(
                id=node_id, edges=edges, edges_by_class=edges_by_class, normalize=normalize
            )
        except ValueError as exc:
            raise SchemaError(f"{path}: {exc}") from None
    return validate_tree(IndexTree(nodes=nodes, root=str(doc["root"])))


def default_wef_tree() -> IndexTree:
    """The full WEF growth-competitiveness aggregation tree, read from the
    bundled data/wef-default-tree.json.

    GCI combines the technology, public-institutions and macro-environment
    indexes with class-dependent weights (core innovators: 1/2, 1/4, 1/4;
    non-core: equal thirds).  The technology index splits by class as well:
    core countries average innovation and ICT evenly, non-core countries
    weigh innovation 1/8, technology transfer 3/8 and ICT 1/2.  The ICT
    sub-index mixes survey data (1/3) and hard data (2/3); hard leaves are
    min-max normalized against the observed cross-country range for the
    evaluated year.
    """
    return load_tree(WEF_DEFAULT)


def dump_tree(tree: IndexTree) -> str:
    """Canonical JSON text for a tree; load_tree(dump_tree(t)) == t."""
    node_specs = []
    for node_id in sorted(tree.nodes):
        node = tree.nodes[node_id]
        spec: Dict[str, object] = {"id": node_id}
        if node.edges is not None:
            spec["children"] = [{"id": c, "weight": str(w)} for c, w in node.edges]
        if node.edges_by_class is not None:
            spec["weights_by_class"] = {
                cls.value: [{"id": c, "weight": str(w)} for c, w in node.edges_by_class[cls]]
                for cls in InnovatorClass
                if cls in node.edges_by_class
            }
        if isinstance(node.normalize, Normalization):
            spec["normalization"] = {"min": node.normalize.min, "max": node.normalize.max}
        elif node.normalize == OBSERVED:
            spec["normalization"] = OBSERVED
        node_specs.append(spec)
    return json.dumps({"root": tree.root, "nodes": node_specs}, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _write(path: Union[str, Path], text: str) -> Path:
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def _score_rows(results, node: Optional[str]):
    """(year, country, node, score) rows: every entry of a ScoreTable, or
    `node`'s scores from a {year: ScoreTable} dict, year by year."""
    if isinstance(results, ScoreTable):
        entries = results.entries
        return [(results.year, c, n, entries[(c, n)]) for c, n in sorted(entries)]
    return [(year, c, node, table.score(c, node))
            for year, table in sorted(results.items())
            for c in table.countries() if table.get(c, node) is not None]


def _json_number(value: float) -> float:
    return float(_fmt6(value))


_ONE_ROW = (TrendResult, CorrelationResult, ChiSquareResult, WhatIfOutcome)


def _record(result, number=_fmt6, signed=format_delta) -> Dict[str, object]:
    """{column: cell} of a one-row result, in field order.  Fields annotated
    float go through `number` (by annotation, so an int override is still a
    number), delta_rank through `signed` and a Decision as its value;
    new_scores is left out."""
    record: Dict[str, object] = {}
    for field in dataclasses.fields(result):
        if field.name == "new_scores":
            continue
        value = getattr(result, field.name)
        if field.name == "delta_rank":
            value = signed(value)
        elif field.type in ("float", float):
            value = number(value)
        elif isinstance(value, Decision):
            value = value.value
        record[field.name] = value
    return record


def _render_csv(results, node: Optional[str]) -> str:
    if isinstance(results, (ScoreTable, dict)):
        lines = [SCORE_HEADER]
        lines += [f"{y},{c},{n},{_fmt6(s)}" for y, c, n, s in _score_rows(results, node)]
        return "\n".join(lines) + "\n"
    if isinstance(results, RankTable):
        lines = [RANK_HEADER]
        lines += [f"{results.year},{c},{results.rank(c)}" for c in results.countries()]
        return "\n".join(lines) + "\n"
    if isinstance(results, RankDeltaReport):
        lines = ["country,delta,prev_rank,cur_rank"]
        for country in sorted(results.deltas):
            lines.append(
                f"{country},{format_delta(results.deltas[country])},"
                f"{results.prev_ranks[country]},{results.cur_ranks[country]}"
            )
        if results.entrants:
            lines.append("# entrants: " + ",".join(results.entrants))
        if results.leavers:
            lines.append("# leavers: " + ",".join(results.leavers))
        return "\n".join(lines) + "\n"
    if isinstance(results, _ONE_ROW):
        record = _record(results)
        return ",".join(record) + "\n" + ",".join(map(str, record.values())) + "\n"
    raise UnsupportedFormatError(f"cannot render {type(results).__name__} as csv")


def _render_json(results, node: Optional[str]) -> str:
    if isinstance(results, ScoreTable):
        doc = {
            "year": results.year,
            "scores": [
                {"country": c, "node": n, "score": _json_number(s)}
                for _, c, n, s in _score_rows(results, None)
            ],
        }
    elif isinstance(results, dict):
        doc = {
            "scores": [
                {"year": y, "country": c, "node": n, "score": _json_number(s)}
                for y, c, n, s in _score_rows(results, node)
            ],
        }
    elif isinstance(results, RankTable):
        doc = {
            "year": results.year,
            "policy": results.policy,
            "ranks": {c: results.rank(c) for c in results.countries()},
        }
    elif isinstance(results, RankDeltaReport):
        doc = {
            "prev_year": results.prev_year,
            "cur_year": results.cur_year,
            "deltas": {c: results.deltas[c] for c in sorted(results.deltas)},
            "prev_ranks": dict(sorted(results.prev_ranks.items())),
            "cur_ranks": dict(sorted(results.cur_ranks.items())),
            "entrants": list(results.entrants),
            "leavers": list(results.leavers),
        }
    elif isinstance(results, _ONE_ROW):
        doc = _record(results, _json_number, int)
    else:
        raise UnsupportedFormatError(f"cannot render {type(results).__name__} as json")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_svg(results, node: Optional[str]) -> str:
    if isinstance(results, ScoreTable):
        target = node or ("GCI" if "GCI" in results.nodes() else None)
        if target is None or target not in results.nodes():
            raise UnsupportedFormatError(
                f"score chart needs a node present in the table, got {target!r}"
            )
        items = [(c, results.score(c, target)) for c in results.countries()
                 if results.get(c, target) is not None]
        return svg.bar_chart(items, f"{target} scores, {results.year}", baseline=1.0)
    if isinstance(results, dict):
        series: Dict[str, list] = {}
        for year, country, _, score in _score_rows(results, node):
            series.setdefault(country, []).append((float(year), score))
        return svg.line_chart(series, f"{node} scores by year")
    if isinstance(results, RankTable):
        items = [(c, float(results.rank(c))) for c in results.countries()]
        return svg.bar_chart(items, f"Rankings, {results.year}")
    if isinstance(results, RankDeltaReport):
        items = [(c, float(results.deltas[c])) for c in sorted(results.deltas)]
        return svg.bar_chart(
            items, f"Rank movement {results.prev_year} to {results.cur_year}", baseline=0.0
        )
    raise UnsupportedFormatError(f"cannot render {type(results).__name__} as svg")


def emit_report(results, format: str, path: Union[str, Path], node: Optional[str] = None) -> Path:
    """Write one result object as csv, json or svg.

    A {year: ScoreTable} dict with `node` renders that node's scores over the
    years: year,country,node,score rows, or one line per country in svg.
    Identical results produce byte-identical files: ordering is stable and
    numbers are fixed to 6 decimals with a '.' separator.
    """
    return _write(path, render_report(results, format, node))


def render_report(results, format: str, node: Optional[str] = None) -> str:
    """The text emit_report would write, without touching the filesystem."""
    if isinstance(results, dict) and node is None:
        raise UnsupportedFormatError("a {year: ScoreTable} report needs a node")
    if format == "csv":
        return _render_csv(results, node)
    if format == "json":
        return _render_json(results, node)
    if format == "svg":
        return _render_svg(results, node)
    raise UnsupportedFormatError(f"unknown format {format!r}")

