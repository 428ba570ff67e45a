"""Report output: every csv, json and svg file, and the 'name value' lines
the one-row commands print.

Output is deterministic: stable ordering, 6-decimal numbers, '.' decimal
separator, '\n' newlines.

Loading this module loads none of `ranking`, `stats`, `whatif` and `svg`:
their result types are recognised through the loaded module (see _is), and
`svg` and `format_delta` are imported where a layout calls them.
"""

from __future__ import annotations

import json
import sys
from enum import Enum
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, Dict, Iterator, List, Optional, Tuple, Union

from .errors import IoError, UnsupportedFormatError
from .ingest import SCORE_HEADER
from .model import RankTable, ScoreTable

RANK_HEADER = "year,country,rank"


def fmt6(value: float) -> str:
    """`value` with 6 decimals, never as negative zero."""
    text = "%.6f" % value
    return "0.000000" if text == "-0.000000" else text


def _score_rows(table: ScoreTable, line: Callable[[str], str],
                sep: str) -> Iterator[Tuple[str, str, tuple]]:
    """(template, country, scores) for each country of `table` with a score,
    in country order: `line(node id)` for each of its nodes, sorted, joined
    by `sep`, and its scores aligned.  Read from the table's kept rows; each
    node tuple is sorted, and each template built, once per call."""
    rows = table._rows()
    picks: dict = {}  # node tuple -> (its node ids sorted, a getter of their scores as a tuple)
    templates: dict = {}  # sorted node ids -> their template
    for country in table.countries():
        nodes, scores = rows[country]
        kept = picks.get(nodes)
        if kept is None:
            order = sorted(range(len(nodes)), key=nodes.__getitem__)
            # a row already in node order, one-node rows among them, is read whole
            pick = tuple if order == sorted(order) else itemgetter(*order)
            kept = picks[nodes] = (tuple(map(nodes.__getitem__, order)), pick)
        names, pick = kept
        values = pick(scores)
        if None in values:
            names = tuple(n for n, s in zip(names, values) if s is not None)
            values = tuple(s for s in values if s is not None)
        if values:
            template = templates.get(names)
            if template is None:
                template = templates[names] = sep.join(map(line, names))
            yield template, country, values


def _columns(tables: Dict[int, ScoreTable], node: str) -> List[Tuple[int, Dict[str, float]]]:
    """(year, {country: score}) of `node`, each table's kept column, for each
    year whose table has a score on it, in year order."""
    return [(year, column) for year, table in sorted(tables.items())
            if (column := table._column(node))]


def _pairs(country, values) -> tuple:
    """(country, values[0], country, values[1], ...)."""
    cells = [country] * (2 * len(values))
    cells[1::2] = values
    return tuple(cells)


def _json_scores(values: Collection[float]) -> list:
    """Each score as the repr of its 6-decimal float, as json.dumps writes it."""
    return [*map(repr, map(float, (("%.6f " * len(values)) % tuple(values)).split()))]


def _json_number(value: float) -> float:
    return float(fmt6(value))


def _is(results, module: str, *names: str) -> bool:
    """Whether `results` is an instance of one of the classes `names` of
    gcindex.`module`, without importing it: until that module is loaded, no
    instance of its classes exists."""
    loaded = sys.modules.get(f"{__package__}.{module}")
    return loaded is not None and isinstance(results, tuple(getattr(loaded, n) for n in names))


def _one_row(results) -> bool:
    return (_is(results, "stats", "TrendResult", "CorrelationResult", "ChiSquareResult")
            or _is(results, "whatif", "WhatIfOutcome"))


def _record(result, number=fmt6, signed=None) -> Dict[str, object]:
    """{column: cell} of a one-row result, in field order.  Fields annotated
    float go through `number` (by annotation, so an int override is still a
    number), delta_rank through `signed` (default ranking.format_delta) and
    an enum, a chi-square Decision, as its value; new_scores is left out."""
    record: Dict[str, object] = {}
    for name, annotation in result._fields.items():
        if name == "new_scores":
            continue
        value = getattr(result, name)
        if name == "delta_rank":
            if signed is None:
                from .ranking import format_delta as signed
            value = signed(value)
        elif annotation == "float":
            value = number(value)
        elif isinstance(value, Enum):
            value = value.value
        record[name] = value
    return record


def render_lines(result) -> str:
    """One 'name value' line per csv column of a one-row result, with '-'
    for '_' in the name and a chi-square decision as its sentence
    ('do-not-reject' reads 'do not reject the null hypothesis')."""
    cells = _record(result)
    if "decision" in cells:
        cells["decision"] = cells["decision"].replace("-", " ") + " the null hypothesis"
    return "".join(f"{name.replace('_', '-')} {cell}\n" for name, cell in cells.items())


def _csv_line(year: int, node: str) -> str:
    """A score csv line as a '%' template of its country and score."""
    return f"{year},%s,{node.replace('%', '%%')},%.6f\n"


def _render_csv(results, node: Optional[str]) -> str:
    if isinstance(results, ScoreTable):
        lines = _score_rows(results, lambda n: _csv_line(results.year, n), "")
        return SCORE_HEADER + "\n" + "".join([t % _pairs(c, scores) for t, c, scores in lines])
    if isinstance(results, dict):
        # one template per year, over its countries' and scores' cells in turn
        return SCORE_HEADER + "\n" + "".join([
            _csv_line(year, node) * len(column) % tuple(chain.from_iterable(column.items()))
            for year, column in _columns(results, node)])
    if isinstance(results, RankTable):
        lines = [RANK_HEADER]
        lines += [f"{results.year},{c},{results.rank(c)}" for c in results.countries()]
        return "\n".join(lines) + "\n"
    if _is(results, "ranking", "RankDeltaReport"):
        from .ranking import format_delta

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
    if _is(results, "stats", "TrendSeries"):
        fits = results.fits()
        lines = ["year,node,score,fitted"]
        lines += [f"{x},{n},{fmt6(v)},{fmt6(fits[n].predict(x))}"
                  for n, points in results.points.items() for x, v in points]
        return "\n".join(lines) + "\n"
    if _one_row(results):
        record = _record(results)
        return ",".join(record) + "\n" + ",".join(map(str, record.values())) + "\n"
    raise UnsupportedFormatError(f"cannot render {type(results).__name__} as csv")


def _render_json(results, node: Optional[str]) -> str:
    if isinstance(results, (ScoreTable, dict)):
        # json.dumps(doc, indent=2, sort_keys=True) from '%' templates: names
        # through json's own string encoder ('%' doubled in the templates),
        # each score as its 6-decimal float's repr; a dict's rows hold their
        # year, a ScoreTable's follows
        encode = json.encoder.encode_basestring_ascii

        def line(n: str, tail: str = "") -> str:
            return ('    {\n      "country": %s,\n      "node": ' + encode(n).replace("%", "%%")
                    + ',\n      "score": %s' + tail + "\n    }")

        if isinstance(results, ScoreTable):
            rows = [t % _pairs(encode(c), _json_scores(v))
                    for t, c, v in _score_rows(results, line, ",\n")]
            tail = f',\n  "year": {results.year}'
        else:
            # one template per year, over its countries' and scores' cells in turn
            rows = [",\n".join([line(node, f',\n      "year": {year}')] * len(column))
                    % tuple(chain.from_iterable(zip(map(encode, column),
                                                    _json_scores(column.values()))))
                    for year, column in _columns(results, node)]
            tail = ""
        scores = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        return f'{{\n  "scores": {scores}{tail}\n}}\n'
    if isinstance(results, RankTable):
        doc = {
            "year": results.year,
            "policy": results.policy,
            "ranks": {c: results.rank(c) for c in results.countries()},
        }
    elif _is(results, "ranking", "RankDeltaReport"):
        doc = {
            "prev_year": results.prev_year,
            "cur_year": results.cur_year,
            "deltas": {c: results.deltas[c] for c in sorted(results.deltas)},
            "prev_ranks": dict(sorted(results.prev_ranks.items())),
            "cur_ranks": dict(sorted(results.cur_ranks.items())),
            "entrants": list(results.entrants),
            "leavers": list(results.leavers),
        }
    elif _is(results, "stats", "TrendSeries"):
        doc = {
            "country": results.country,
            "series": {n: [[x, _json_number(v)] for x, v in points]
                       for n, points in results.points.items()},
            "fits": {n: _record(fit, _json_number, int) for n, fit in results.fits().items()},
        }
    elif _one_row(results):
        doc = _record(results, _json_number, int)
    else:
        raise UnsupportedFormatError(f"cannot render {type(results).__name__} as json")
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_svg(results, node: Optional[str]) -> str:
    from . import svg

    if isinstance(results, ScoreTable):
        target = node or "GCI"
        items = list(results._column(target).items())
        if not items:
            raise UnsupportedFormatError(
                f"score chart needs a node present in the table, got {node or None!r}"
            )
        return svg.bar_chart(items, f"{target} scores, {results.year}", baseline=1.0)
    if isinstance(results, dict):
        series: Dict[str, list] = {}
        for year, column in _columns(results, node):
            for country, score in column.items():
                series.setdefault(country, []).append((float(year), score))
        return svg.line_chart(series, f"{node} scores by year")
    if isinstance(results, RankTable):
        items = [(c, float(results.rank(c))) for c in results.countries()]
        return svg.bar_chart(items, f"Rankings, {results.year}")
    if _is(results, "ranking", "RankDeltaReport"):
        items = [(c, float(results.deltas[c])) for c in sorted(results.deltas)]
        return svg.bar_chart(
            items, f"Rank movement {results.prev_year} to {results.cur_year}", baseline=0.0
        )
    if _is(results, "stats", "TrendSeries"):
        # each node's points, then a `<node>_fit` line across their years
        fits = results.fits()
        fitted = {f"{n}_fit": [(x, fits[n].predict(x)) for x in (points[0][0], points[-1][0])]
                  for n, points in results.points.items()}
        return svg.line_chart({**results.points, **fitted},
                              f"{results.country}: {', '.join(results.points)}")
    raise UnsupportedFormatError(f"cannot render {type(results).__name__} as svg")


def emit_report(results, format: str, path: Union[str, Path], node: Optional[str] = None) -> Path:
    """Write one result object as csv, json or svg.

    A {year: ScoreTable} dict with `node` renders that node's scores over the
    years: year,country,node,score rows, or one line per country in svg.
    Identical results produce byte-identical files: ordering is stable and
    numbers are fixed to 6 decimals with a '.' separator.
    """
    text = render_report(results, format, node)
    path = Path(path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def render_report(results, format: str, node: Optional[str] = None) -> str:
    """The text emit_report would write, without touching the filesystem.

    A ScoreTable's report reads its rows (see _score_rows), a {year:
    ScoreTable} report each year's column of `node` (see _columns); csv and
    json format each country, or each year, with one '%' call.  Their '%.6f'
    needs no negative-zero step, as fmt6 takes: ScoreTable range-checks to [1, 7]."""
    if isinstance(results, dict) and node is None:
        raise UnsupportedFormatError("a {year: ScoreTable} report needs a node")
    if format == "csv":
        return _render_csv(results, node)
    if format == "json":
        return _render_json(results, node)
    if format == "svg":
        return _render_svg(results, node)
    raise UnsupportedFormatError(f"unknown format {format!r}")
