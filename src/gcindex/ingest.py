"""File input.

Panels and class maps are CSV; index trees are JSON with rational-string
weights so the exact arithmetic survives a round trip.  Every parse failure
carries the file name and line number.
"""

from __future__ import annotations

import json
from contextlib import suppress
from fractions import Fraction
from math import isfinite
from pathlib import Path
from typing import Dict, Mapping, Optional, Tuple, Union

from .data import WEF_TREE_CONFIG, fixture_path
from .errors import (
    DuplicateKeyError,
    IoError,
    ParseError,
    SchemaError,
)
from .model import (
    OBSERVED,
    IndexTree,
    InnovatorClass,
    Node,
    Normalization,
    Panel,
    ScoreTable,
    _check_scores,
    validate_tree,
)

WEF_DEFAULT = "wef-default"

PANEL_HEADER = "year,country,indicator,value"
SCORE_HEADER = "year,country,node,score"
CLASS_HEADER = "country,class"


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
    if [field.strip() for field in line.split(",")] != header.split(","):
        raise ParseError(path, lineno, f"expected header {header!r}")
    n_fields = header.count(",") + 1
    for lineno, line in lines:
        if line.split() == [line]:  # not blank, and no whitespace to strip
            fields = line.split(",")
        else:
            line = line.strip()
            fields = [f.strip() for f in line.split(",")]
        if not line or line[0] == "#":
            continue
        if len(fields) != n_fields:
            raise ParseError(path, lineno,
                             f"expected {n_fields} fields ({header}), got {len(fields)}")
        yield lineno, fields


#: every byte but ',' and '\n', which UTF-8 writes only as themselves
_NOT_SEPARATORS = bytes(sorted(set(range(256)) - set(b",\n")))


def _columns(text: str, header: str):
    """The fields of each of the header's columns, in row order, when
    `text` is clean; None when it needs `_rows`.  Clean is: once the '#'
    comment lines are dropped, line 1 is exactly `header`, every line has
    exactly the header's number of fields (so none is blank), and no field
    holds whitespace.  `_rows` would then yield these same fields, so a
    reader that finds no fault in them reads what `_rows` reads."""
    # a file without '#' skips the slower search that stops at every newline
    if "#" in text and (text.startswith("#") or "\n#" in text):
        text = "\n".join([line for line in text.split("\n") if line[:1] != "#"])
    final = text.endswith("\n")  # the final newline ends the last line
    separators = text.encode().translate(None, _NOT_SEPARATORS) + (b"" if final else b"\n")
    # line by line, not in all: a short line next to a long one holds the
    # right number of fields in all
    commas = b"," * header.count(",")
    if separators != (commas + b"\n") * separators.count(b"\n"):
        return None
    flat = text.replace("\n", ",")
    del text  # a caller that passed no other reference frees it here
    if flat.split(None, 1) != [flat]:  # whitespace somewhere
        return None
    fields = flat.split(",")
    del flat
    if final:
        del fields[-1]
    step = len(commas) + 1
    if fields[:step] != header.split(","):
        return None
    return [fields[column::step] for column in range(step, 2 * step)]


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
    if not isfinite(value):
        raise ParseError(path, lineno, f"column {column}: non-finite number {token!r}")
    return value


def load_classes(path: Union[str, Path]) -> Dict[str, InnovatorClass]:
    """Read a country -> innovator-class CSV (header: country,class)."""
    classes = {}
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

    '#' lines are comments.  A clean file (see _columns: the exact header,
    four fields on every line, no whitespace) is read column by column: its
    text is split once, each distinct year field parsed once, and each
    distinct country or indicator kept as one string.  Any other file, and
    a clean one with a bad cell, is read row by row, which strips padded
    fields and skips blank lines.  Panel checks the rows either way, and a
    failure names its line (a duplicate key also the line of its first
    row), in the same words whichever way the file was read.  Countries
    without a class entry fail unless no class map is given, in which case
    everyone defaults to non-core.
    """
    # the text is not kept while its fields are split: a fall back reads it again
    columns = _columns(_read_text(path), PANEL_HEADER)
    if columns is not None:
        # any fault: the rows below raise the first one, naming its line
        with suppress(ValueError, DuplicateKeyError):
            year_of = {field: int(field) for field in set(columns[0])}
            token = {}  # one string per distinct country or indicator
            # each column replaced in turn, so that its fields go before Panel runs
            columns[0] = list(map(year_of.__getitem__, columns[0]))
            for i in (1, 2):
                columns[i] = list(map(token.setdefault, columns[i], columns[i]))
            columns[3] = list(map(float, columns[3]))
            return Panel(zip(*columns), classes)
    text = _read_text(path)
    lineno = 0

    def rows():
        nonlocal lineno
        years = {}  # year field -> year
        field = None  # the previous row's year field, which parsed to `year`
        for lineno, (year_t, country, indicator, value_t) in _rows(path, text, PANEL_HEADER):
            if year_t != field:
                year = years.get(year_t)
                if year is None:
                    year = years[year_t] = _parse_int(path, lineno, 1, year_t)
                field = year_t
            yield year, country, indicator, _parse_float(path, lineno, 4, value_t)

    try:
        return Panel(rows(), classes)
    except ValueError as exc:
        raise ParseError(path, lineno, str(exc)) from None
    except DuplicateKeyError as exc:
        first = {}  # key -> line of its first row; every row up to `lineno` parsed
        for n, (year_t, country, indicator, _) in _rows(path, text, PANEL_HEADER):
            at = first.setdefault((int(year_t), country, indicator), n)
            if n == lineno:
                raise DuplicateKeyError(f"{path}:{lineno}: {exc} (first at line {at})") from None


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
    if isinstance(token, int) and not isinstance(token, bool):
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
    if not isinstance(doc["nodes"], list):
        raise SchemaError(f"{path}: 'nodes' must be a list")
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
                    if bool in map(type, norm.values()):  # float(True) would read as 1.0
                        raise TypeError(f"normalization bounds must be numbers, got {norm}")
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

