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
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

from .errors import IoError, UnsupportedFormatError
from .ingest import SCORE_HEADER
from .model import RankTable, ScoreTable

RANK_HEADER = "year,country,rank"


def fmt6(value: float) -> str:
    """`value` with 6 decimals, never as negative zero."""
    text = "%.6f" % value
    return "0.000000" if text == "-0.000000" else text


def _score_rows(results, node: Optional[str]) -> Iterator[Tuple[int, str, Tuple[str, ...], tuple]]:
    """(year, country, nodes, scores) for each country with a score, year by
    year and in country order: every node of a ScoreTable, or `node` of a
    {year: ScoreTable} dict, nodes sorted and scores aligned.  Read from each
    table's kept rows; each distinct node tuple is sorted once per call, and
    only a row that lacks a score is filtered."""
    single = isinstance(results, ScoreTable)
    tables = [(results.year, results)] if single else sorted(results.items())
    picks: dict = {}  # node tuple -> (its nodes kept, sorted; a getter of their scores)
    for year, table in tables:
        rows = table._rows()
        for country in table.countries():
            nodes, scores = rows[country]
            kept = picks.get(nodes)
            if kept is None:
                order = sorted((i for i, n in enumerate(nodes) if single or n == node),
                               key=nodes.__getitem__)
                kept = picks[nodes] = (tuple(nodes[i] for i in order), _getter(order))
            names, pick = kept
            values = pick(scores)
            if None in values:
                names = tuple(n for n, s in zip(names, values) if s is not None)
                values = tuple(s for s in values if s is not None)
            if values:
                yield year, country, names, values


def _getter(positions: list) -> Callable[[Sequence], tuple]:
    """row -> (row[i] for i in positions) as a tuple; itemgetter's own for
    two or more positions."""
    if len(positions) > 1:
        return itemgetter(*positions)
    return lambda row: tuple(row[i] for i in positions)


def _score_lines(results, node: Optional[str], line: Callable[[int, str], str],
                 sep: str) -> Iterator[Tuple[str, str, tuple]]:
    """(template, country, scores) for each row of _score_rows: the
    country's lines as one '%' template, `line(year, node id)` for each of
    its nodes joined by `sep`, built once per year and node tuple."""
    templates: dict = {}
    for year, country, names, values in _score_rows(results, node):
        template = templates.get((year, names))
        if template is None:
            template = templates[year, names] = sep.join(line(year, n) for n in names)
        yield template, country, values


def _pairs(country, values) -> tuple:
    """(country, values[0], country, values[1], ...)."""
    cells = [country] * (2 * len(values))
    cells[1::2] = values
    return tuple(cells)


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


def _render_csv(results, node: Optional[str]) -> str:
    if isinstance(results, (ScoreTable, dict)):
        # the year and the node ids are written into the templates, '%' doubled
        lines = _score_lines(results, node,
                             lambda year, n: f"{year},%s,{n.replace('%', '%%')},%.6f\n", "")
        return SCORE_HEADER + "\n" + "".join([t % _pairs(c, scores) for t, c, scores in lines])
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
        # json.dumps(doc, indent=2, sort_keys=True) from _score_lines'
        # templates: names through json's own string encoder ('%' doubled in
        # the templates), each score as its 6-decimal float's repr; a dict's
        # rows hold their year, a ScoreTable's follows
        single = isinstance(results, ScoreTable)
        encode = json.encoder.encode_basestring_ascii

        def line(year: int, n: str) -> str:
            tail = "" if single else f',\n      "year": {year}'
            return ('    {\n      "country": %s,\n      "node": ' + encode(n).replace("%", "%%")
                    + ',\n      "score": %s' + tail + "\n    }")

        rows = [t % _pairs(encode(c), [*map(repr, map(float, (("%.6f " * len(v)) % v).split()))])
                for t, c, v in _score_lines(results, node, line, ",\n")]
        scores = "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"
        tail = f',\n  "year": {results.year}' if single else ""
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
        items = [(c, s) for _, c, _, (s,) in _score_rows({results.year: results}, target)]
        if not items:
            raise UnsupportedFormatError(
                f"score chart needs a node present in the table, got {node or None!r}"
            )
        return svg.bar_chart(items, f"{target} scores, {results.year}", baseline=1.0)
    if isinstance(results, dict):
        series: Dict[str, list] = {}
        for year, country, _, (score,) in _score_rows(results, node):
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

    A score report reads each table's rows (see _score_rows): csv and json
    give each year and node tuple one line template and each country one
    format call; its '%.6f' needs no negative-zero step, as fmt6 takes,
    since ScoreTable range-checks to [1, 7]."""
    if isinstance(results, dict) and node is None:
        raise UnsupportedFormatError("a {year: ScoreTable} report needs a node")
    if format == "csv":
        return _render_csv(results, node)
    if format == "json":
        return _render_json(results, node)
    if format == "svg":
        return _render_svg(results, node)
    raise UnsupportedFormatError(f"unknown format {format!r}")
