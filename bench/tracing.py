"""Span tracing of gcindex's layers, installed from outside the package.

``Tracer.install()`` replaces each layer module's public functions, plus the
model and ingest methods listed in ``METHODS``, with timing wrappers.  A
function is replaced wherever a gcindex module holds it, so names that
``gcindex.cli`` (or any other module) imported with ``from .x import f`` are
traced as well.  Each call records one span (target, start, end, parent span,
op id) in memory; ``write()`` saves them when the run ends.

Cheap accessors (``ScoreTable.score``/``get``, ``Panel.value``, ...) stay
unwrapped: they run thousands of times per op, a wrapper would dominate their
cost, and their time lands in the calling layer's self time instead.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter, defaultdict
from importlib import import_module
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "ingest", "model", "engine", "ranking", "stats", "whatif", "svg")
METHODS = {
    "model": (
        "Panel.__init__", "Panel.years", "Panel.countries", "Panel.slice_year", "Panel.series",
        "Panel.observations", "IndexTree.reachable", "IndexTree.leaves",
        "ScoreTable.__post_init__", "ScoreTable.countries", "ScoreTable.nodes",
        "ScoreTable.with_overrides", "RankTable.countries",
    ),
    "ingest": ("DatasetManifest.load",),
}


def _text_bytes(args, kwargs, result) -> int:
    return len(result.encode())


#: span name -> what to record from a call's result
HOOKS: Dict[str, Callable] = {
    "engine.compute_all": lambda a, k, r: (
        len({c for c, _ in r.entries}), a[2] if len(a) > 2 else k["year"]),
    "ingest.render_report": _text_bytes,
    "ingest.emit_report": lambda a, k, r: Path(r).stat().st_size,
    "svg.bar_chart": _text_bytes,
    "svg.line_chart": _text_bytes,
    "ingest.load_panel": lambda a, k, r: len(r),
}

Span = Tuple[int, float, float, int, int]  # target, start, end, parent, op


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.spans: List[Optional[Span]] = []
        self.extra: Dict[int, object] = {}
        self.op = -1  # ops set this; -1 marks one-time set-up
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        index = len(self.names)
        self.names.append(name)
        spans, stack, extra = self.spans, self._stack, self.extra
        hook = HOOKS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            me = len(spans)
            spans.append(None)
            stack.append(me)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (index, start, end, parent, self.op)
            if hook is not None:
                extra[me] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrappers: Dict[int, Callable] = {}
        for layer in LAYERS:
            module = import_module(f"gcindex.{layer}")
            for attr, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
            for dotted in METHODS.get(layer, ()):
                cls_name, method = dotted.split(".")
                owner = getattr(module, cls_name, None)
                fn = vars(owner).get(method) if owner is not None else None
                if inspect.isfunction(fn):
                    self._patch(owner, method, self._wrap(f"{layer}.{dotted}", fn))
        for name, module in list(sys.modules.items()):
            if name != "gcindex" and not name.startswith("gcindex."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and id(value) in wrappers:
                    self._patch(module, attr, wrappers[id(value)])

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Save every span as CSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            out.write("span,name,start_s,end_s,parent,op\n")
            for i, (target, start, end, parent, op) in enumerate(self.spans):
                out.write(f"{i},{self.names[target]},{start - origin:.9f},"
                          f"{end - origin:.9f},{parent},{op}\n")

    def layer_metrics(self, ops: int, op_seconds: float, speed_factor: float,
                      panel_rows: int, observed_leaves: int) -> Dict[str, float]:
        """Per-layer calls, self time and share, plus the exact counters.

        Times and rates are put at reference speed with `speed_factor`
        (reference kernel time / measured, see speed.py); shares are raw
        ratios.  Only spans inside ops count, except for ingest.rows_per_s, which
        also covers the one-time set-up load.  The engine ratios count the
        compute_all calls that returned (an invalid request's call raises).
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: Dict[str, float] = defaultdict(float)
        count: Counter = Counter()
        extra_sum: Dict[str, float] = defaultdict(float)
        computes = 0
        scored = compute_s = 0.0
        years_by_op: Dict[int, set] = defaultdict(set)
        load_rows = load_s = 0.0
        sf_in_isf = 0
        for i, (target, start, end, parent, op) in enumerate(spans):
            name = self.names[target]
            if name == "ingest.load_panel":
                load_rows += self.extra[i]
                load_s += end - start
            if op < 0:
                continue
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += (end - start) - child[i]
            count[name] += 1
            if name == "engine.compute_all" and i in self.extra:  # absent if it raised
                n_countries, year = self.extra[i]
                computes += 1
                scored += n_countries
                compute_s += end - start
                years_by_op[op].add(year)
            elif i in self.extra:
                extra_sum[name] += self.extra[i]
            if (name == "stats.chi_square_sf" and parent >= 0
                    and self.names[spans[parent][0]] == "stats.chi_square_isf"):
                sf_in_isf += 1

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        metrics: Dict[str, float] = {}
        for layer in LAYERS:
            metrics[f"{layer}.calls"] = ratio(calls[layer], ops)
            metrics[f"{layer}.self_s"] = ratio(self_s[layer] * speed_factor, ops)
            metrics[f"{layer}.share"] = ratio(self_s[layer], op_seconds)
        metrics["engine.bounds_calls_per_leaf_year"] = ratio(
            count["engine.observed_bounds"], observed_leaves * computes)
        metrics["engine.country_years_per_s"] = ratio(scored, compute_s * speed_factor)
        metrics["engine.compute_calls_per_distinct_year"] = ratio(
            computes, sum(len(years) for years in years_by_op.values()))
        metrics["model.reachable_calls_per_country_year"] = ratio(
            count["model.IndexTree.reachable"], scored)
        scans = sum(count[f"model.Panel.{m}"] for m in ("slice_year", "countries", "series"))
        metrics["model.rows_scanned_per_op"] = ratio(scans * panel_rows, ops)
        metrics["model.scoretable_countries_calls_per_query"] = ratio(
            count["model.ScoreTable.countries"], ops)
        metrics["ingest.rows_per_s"] = ratio(load_rows, load_s * speed_factor)
        metrics["ingest.bytes_out"] = ratio(
            extra_sum["ingest.render_report"] + extra_sum["ingest.emit_report"], ops)
        metrics["svg.bytes_out"] = ratio(
            extra_sum["svg.bar_chart"] + extra_sum["svg.line_chart"], ops)
        metrics["ranking.rank_scores_calls_per_query"] = ratio(count["ranking.rank_scores"], ops)
        metrics["stats.sf_calls_per_isf"] = ratio(sf_in_isf, count["stats.chi_square_isf"])
        return metrics
