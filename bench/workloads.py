"""The three benchmark workloads.

Each is a closed loop with one client in one process.  A workload builds a
*round*: a fixed list of ops drawn from its seed.  The runner repeats whole
rounds, so every per-op count the traced run reports is a ratio of round
totals and repeats exactly.  ``Op.run()`` does the timed work through
gcindex's public API or its in-process CLI and returns what it produced;
``Op.output(result)`` gives the op's output bytes, whose SHA-256 the runner
compares across repeats of the same key and with golden.json;
``Op.check(result)`` verifies the result against the plain-float oracle and
raises ``CheckFailed`` when it disagrees.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Tuple

import gcindex as gc
import gcindex.cli

import oracle
from gen import Inputs, pick, shuffle


class Op(NamedTuple):
    key: str
    run: Callable[[], object]
    output: Callable[[object], bytes]
    check: Callable[[object], None]


WHATIF_NODES = ("TI", "ICTS", "MEI", "internet_users")


class CheckFailed(Exception):
    """An op's output disagrees with the oracle or the output contract."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close6(printed: float, exact: float) -> bool:
    """A 6-decimal rendering of `exact` (computed in another order)."""
    return abs(printed - exact) <= 5e-7 + 1e-9 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# wide-year: one large year, library session, engine-bound
# ---------------------------------------------------------------------------

class WideYear:
    """compute_all -> rank_scores(GCI) -> render_report(csv) on one year."""

    name = "wide-year"
    op_unit = "op = score, rank and render one year of {n} countries"
    setup_code = (
        "from gcindex import load_classes, load_panel, load_tree\n"
        "load_panel(A[0], load_classes(A[1])); load_tree('wef-default')\n"
    )

    def __init__(self, inputs: Inputs, work_dir: Path, seed: int):
        self.inputs = inputs
        self.year = inputs.years[0]
        self.expected = oracle.year_scores(inputs.values[self.year], inputs.class_of)
        self.expected_ranks = oracle.competition_ranks(
            {c: s["GCI"] for c, s in self.expected.items()}
        )
        self.op_unit = self.op_unit.format(n=len(inputs.countries))

    def setup_args(self) -> List[str]:
        return [str(self.inputs.panel), str(self.inputs.classes)]

    def load(self) -> None:
        self.panel = gc.load_panel(self.inputs.panel, gc.load_classes(self.inputs.classes))
        self.tree = gc.load_tree(gc.WEF_DEFAULT)

    def round(self) -> List[Op]:
        return [Op("year", self._run, lambda result: result[2].encode(), self._check)]

    def _run(self):
        table = gc.compute_all(self.tree, self.panel, self.year)
        ranks = gc.rank_scores(table, "GCI")
        return table, ranks, gc.render_report(table, "csv")

    def _check(self, result) -> None:
        table, ranks, _ = result
        want = {(c, n): s for c, nodes in self.expected.items() for n, s in nodes.items()}
        _require(set(table.entries) == set(want), "score table covers other (country, node) pairs")
        for key, s in want.items():
            got = table.entries[key]
            _require(abs(got - s) <= 1e-12, f"{key}: {got!r} != oracle {s!r}")
        _require(dict(ranks.ranks) == self.expected_ranks, "GCI ranks differ from the oracle")


# ---------------------------------------------------------------------------
# panel-history: the stateless CLI over a ten-year panel with gaps
# ---------------------------------------------------------------------------

class PanelHistory:
    """A shuffled deck of 27 `gcindex` commands, 2 of them invalid."""

    name = "panel-history"
    op_unit = "op = one gcindex.cli.main(argv) call"
    setup_code = ""  # each CLI command loads its own inputs

    def __init__(self, inputs: Inputs, work_dir: Path, seed: int):
        self.inputs = inputs
        self.work_dir = work_dir
        self.expected = {
            y: oracle.year_scores(inputs.values[y], inputs.class_of) for y in inputs.years
        }
        self.ranks = {
            y: oracle.competition_ranks({c: s["GCI"] for c, s in t.items()})
            for y, t in self.expected.items()
        }
        self._deck = self._build_deck(random.Random(f"gcindex-bench:deck:{seed}"))

    def setup_args(self) -> List[str]:
        return []

    def load(self) -> None:
        pass

    # -- deck ---------------------------------------------------------------

    def _build_deck(self, rng: random.Random) -> List[Tuple[str, List[str], dict]]:
        """One slot per command and stdout format it offers, chisq once per
        design and report once per kind and format: 25 commands, no weights
        from observed usage.  Two invalid requests (an unknown year, an
        unknown country) make 2 of 27, about 5%.  Years, countries, nodes and
        gains are drawn from the seed, and the deck is shuffled."""
        inputs = self.inputs
        data = ["--data", str(inputs.panel), "--classes", str(inputs.classes),
                "--policy", "renormalize"]
        slots: List[Tuple[str, List[str], dict]] = []

        def add(kind: str, argv: List[str], **meta):
            slots.append((kind, argv, meta))

        def year() -> int:  # a year with a previous year in the panel
            return pick(rng, inputs.years[1:])

        def country() -> str:
            return pick(rng, inputs.countries)

        def y_args(y: int) -> List[str]:
            return ["--prev-year", str(y - 1), "--cur-year", str(y)]

        for fmt in ("csv", "json"):
            y = year()
            add("compute", ["compute", *data, "--year", str(y), "--format", fmt], year=y, fmt=fmt)
            y = year()
            add("rank", ["rank", *data, "--year", str(y), "--format", fmt], year=y, fmt=fmt)
        for fmt in ("csv", "json", "svg"):
            y = year()
            add("delta", ["delta", *data, *y_args(y), "--format", fmt], year=y, fmt=fmt)
        for design in ("prev-expected", "cur-expected", "two-way"):
            y = year()
            add("chisq", ["chisq", *data, *y_args(y), "--design", design], year=y, design=design)
        c, node = country(), pick(rng, ("TI", "GCI"))
        add("trend", ["trend", *data, "--country", c, "--node", node], country=c, node=node)
        c = country()
        add("correlate", ["correlate", *data, "--country", c, "--nodes", "TI", "GCI"], country=c)
        # min_delta_for_rank_gain solves with the tree's fixed path weight, while
        # renormalize rescales the weights of a country with gaps; on such a
        # country it can report a reachable gain infeasible.  That is a gcindex
        # defect, not a cost, so the query goes to a country with every leaf.
        y = year()
        c = pick(rng, [d for d in inputs.countries
                       if all((d, leaf) in inputs.values[y] for leaf in oracle.LEAVES)])
        node, k = pick(rng, WHATIF_NODES), 1 + int(rng.random() * 5)
        add("whatif", ["whatif", *data, "--year", str(y), "--country", c, "--node", node,
                       "--gain", str(k)], year=y, country=c, node=node, gain=k)
        for fmt in ("csv", "json", "svg"):
            add("report-scores", ["report", *data, "--kind", "scores", "--node", "GCI"], fmt=fmt)
            y = year()
            add("report-deltas", ["report", *data, "--kind", "deltas", *y_args(y)], year=y, fmt=fmt)
            c = country()
            add("report-trend", ["report", *data, "--kind", "trend", "--country", c,
                                 "--nodes", "TI", "GCI"], country=c, fmt=fmt)
            y = year()
            add("report-bars", ["report", *data, "--kind", "bars", "--year", str(y),
                                "--node", "ICTS"], year=y, fmt=fmt)
        bad_year = inputs.years[0] - 1 - int(rng.random() * 5)
        add("invalid", ["compute", *data, "--year", str(bad_year)])
        add("invalid", ["whatif", *data, "--year", str(year()), "--country", "Z9999",
                        "--node", "TI", "--gain", "1"])
        for i, (kind, argv, meta) in enumerate(slots):
            if kind.startswith("report"):
                out = self.work_dir / f"slot{i:02d}.{meta['fmt']}"
                argv += ["--format", meta["fmt"], "--out", str(out)]
                meta["out"] = out
        return shuffle(rng, slots)

    def round(self) -> List[Op]:
        return [Op(f"{i:02d}-{kind}", self._runner(argv, meta.get("out")), self._output,
                   self._checker(kind, meta))
                for i, (kind, argv, meta) in enumerate(self._deck)]

    @staticmethod
    def _runner(argv: List[str], out_file) -> Callable[[], object]:
        """(exit code, stdout, stderr, text of the --out file or None)"""
        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = gcindex.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            written = None
            if out_file is not None and code == 0:
                written = Path(out_file).read_text(encoding="utf-8")
            return code, out.getvalue(), err.getvalue(), written
        return run

    @staticmethod
    def _output(result) -> bytes:
        code, out, err, written = result
        return (written if written is not None else out if code == 0 else err).encode()

    def _checker(self, kind: str, meta: dict) -> Callable[[object], None]:
        def check(result) -> None:
            code, out, err, written = result
            if kind == "invalid":
                lines = err.splitlines()
                _require(code == 1, f"invalid request exited {code}, not 1")
                _require(len(lines) == 1 and lines[0].startswith("error: "),
                         f"invalid request must print one 'error:' line, got {err!r}")
                _require(out == "", "invalid request wrote to stdout")
                return
            _require(code == 0, f"{kind} exited {code}: {err.strip()}")
            _require(err == "", f"{kind} wrote to stderr: {err!r}")
            if "out" in meta:  # report commands write only the file
                _require(out == "", f"{kind} wrote to stdout")
                out = written
            getattr(self, "_check_" + kind.replace("-", "_"))(out, meta)
        return check

    # -- per-command checks ---------------------------------------------------

    def _score_rows(self, rows, where: str) -> None:
        _require(len(rows) > 0, f"{where}: no score rows")
        for year, c, node, score in rows:
            want = self.expected[year][c].get(node)
            _require(want is not None and _close6(score, want),
                     f"{where}: {year} {c} {node} {score} != oracle {want}")

    def _csv_rows(self, body: str, header: str) -> List[List[str]]:
        lines = body.splitlines()
        _require(lines and lines[0] == header, f"expected header {header!r}")
        return [line.split(",") for line in lines[1:] if not line.startswith("#")]

    def _check_compute(self, body: str, meta: dict) -> None:
        y = meta["year"]
        if meta["fmt"] == "json":
            doc = json.loads(body)
            rows = [(doc["year"], r["country"], r["node"], r["score"]) for r in doc["scores"]]
        else:
            rows = [(int(a), b, c, float(d)) for a, b, c, d
                    in self._csv_rows(body, "year,country,node,score")]
        want = sum(len(nodes) for nodes in self.expected[y].values())
        _require(len(rows) == want and all(r[0] == y for r in rows), "compute: wrong row set")
        self._score_rows(rows, "compute")

    def _check_rank(self, body: str, meta: dict) -> None:
        if meta["fmt"] == "json":
            ranks = json.loads(body)["ranks"]
        else:
            ranks = {c: int(r) for _, c, r in self._csv_rows(body, "year,country,rank")}
        _require(ranks == self.ranks[meta["year"]], "rank: ranks differ from the oracle")

    def _check_delta(self, body: str, meta: dict) -> None:
        y = meta["year"]
        prev, cur = self.ranks[y - 1], self.ranks[y]
        want = {c: prev[c] - cur[c] for c in sorted(set(prev) & set(cur))}
        if meta["fmt"] == "svg":
            svg = ET.fromstring(body.encode())
            bars = [e for e in svg.iter() if e.tag.endswith("rect")]
            _require(len(bars) == len(want) + 1, "delta svg: one bar per country expected")
            return
        if meta["fmt"] == "json":
            got = json.loads(body)["deltas"]
        else:
            got = {c: int(d) for c, d, _, _
                   in self._csv_rows(body, "country,delta,prev_rank,cur_rank")}
        _require(got == want, "delta: movements differ from the oracle")

    _check_report_deltas = _check_delta

    def _check_chisq(self, body: str, meta: dict) -> None:
        fields = dict(line.split(" ", 1) for line in body.splitlines())
        y = meta["year"]
        common = sorted(set(self.ranks[y - 1]) & set(self.ranks[y]))
        prev = [float(self.ranks[y - 1][c]) for c in common]
        cur = [float(self.ranks[y][c]) for c in common]
        stat = oracle.chi_square_statistic(prev, cur, meta["design"])
        _require(_close6(float(fields["statistic"]), stat), "chisq: statistic differs")
        _require(int(fields["df"]) == len(common) - 1, "chisq: wrong df")
        _require(0.0 <= float(fields["p-value"]) <= 1.0, "chisq: p-value outside [0, 1]")
        reject = float(fields["statistic"]) > float(fields["critical-value"])
        _require(fields["decision"].startswith("reject") == reject, "chisq: decision flipped")

    def _series(self, country: str, node: str) -> List[Tuple[int, float]]:
        return [(y, t[country][node]) for y, t in sorted(self.expected.items())
                if country in t and node in t[country]]

    def _check_trend(self, body: str, meta: dict) -> None:
        fields = dict(line.split(" ", 1) for line in body.splitlines())
        slope, intercept = oracle.ols(self._series(meta["country"], meta["node"]))
        _require(_close6(float(fields["slope"]), slope), "trend: slope differs")
        _require(_close6(float(fields["intercept"]), intercept), "trend: intercept differs")

    def _check_correlate(self, body: str, meta: dict) -> None:
        fields = dict(line.split(" ", 1) for line in body.splitlines())
        a = dict(self._series(meta["country"], "TI"))
        b = dict(self._series(meta["country"], "GCI"))
        years = sorted(set(a) & set(b))
        r = oracle.pearson([a[y] for y in years], [b[y] for y in years])
        _require(_close6(float(fields["r"]), r), "correlate: r differs")

    def _check_whatif(self, body: str, meta: dict) -> None:
        fields = dict(line.split(" ", 1) for line in body.splitlines())
        y, c, node, k = meta["year"], meta["country"], meta["node"], meta["gain"]
        scores, cls = self.expected[y], self.inputs.class_of[c]
        gci = {d: s["GCI"] for d, s in scores.items()}
        if fields["min-delta"] == "infeasible":
            best = oracle.rederived_root(cls, scores[c], node, 7.0 - gc.STRICT_MARGIN)
            _require(oracle.rank_gain(gci, c, best) < k,
                     "whatif: reported infeasible, yet a score of 7 reaches the gain")
            return
        base, new = int(fields["baseline-rank"]), int(fields["new-rank"])
        _require(base == self.ranks[y][c], "whatif: baseline rank differs from the oracle")
        _require(base - new >= k and int(fields["delta-rank"]) == base - new,
                 f"whatif: gain {base - new} is below the requested {k}")
        want = oracle.rederived_root(cls, scores[c], node, float(fields["override"]))
        _require(abs(float(fields["new-gci"]) - want) <= 2e-6,
                 "whatif: new GCI differs from the oracle's re-derivation")

    def _check_report_scores(self, body: str, meta: dict) -> None:
        if meta["fmt"] == "svg":
            svg = ET.fromstring(body.encode())
            lines = [e for e in svg.iter() if e.tag.endswith("polyline")]
            _require(len(lines) == len(self.inputs.countries), "scores svg: one line per country")
            return
        if meta["fmt"] == "json":
            rows = [(r["year"], r["country"], r["node"], r["score"])
                    for r in json.loads(body)["scores"]]
        else:
            rows = [(int(a), b, c, float(d)) for a, b, c, d
                    in self._csv_rows(body, "year,country,node,score")]
        want = sum(1 for t in self.expected.values() for s in t.values() if "GCI" in s)
        _require(len(rows) == want, "report scores: wrong row count")
        self._score_rows(rows, "report scores")

    def _check_report_trend(self, body: str, meta: dict) -> None:
        c = meta["country"]
        if meta["fmt"] == "svg":
            ET.fromstring(body.encode())
            return
        if meta["fmt"] == "json":
            doc = json.loads(body)
            rows = [(y, c, n, v) for n in ("TI", "GCI") for y, v in doc["series"][n]]
            fits = {n: (f["slope"], f["intercept"]) for n, f in doc["fits"].items()}
        else:
            rows = [(int(y), c, n, float(v)) for y, n, v, _
                    in self._csv_rows(body, "year,node,score,fitted")]
            fits = {}
        self._score_rows(rows, "report trend")
        for n, (slope, intercept) in fits.items():
            want = oracle.ols(self._series(c, n))
            _require(_close6(slope, want[0]) and _close6(intercept, want[1]),
                     f"report trend: {n} fit differs")

    def _check_report_bars(self, body: str, meta: dict) -> None:
        y = meta["year"]
        if meta["fmt"] == "svg":
            svg = ET.fromstring(body.encode())
            bars = [e for e in svg.iter() if e.tag.endswith("rect")]
            _require(len(bars) == len(self.expected[y]) + 1, "bars svg: one bar per country")
            return
        if meta["fmt"] == "json":
            rows = [(r["year"], r["country"], r["node"], r["score"])
                    for r in json.loads(body)["scores"]]
        else:
            rows = [(int(a), b, c, float(d)) for a, b, c, d
                    in self._csv_rows(body, "year,country,node,score")]
        _require(len(rows) == len(self.expected[y]), "report bars: wrong row count")
        self._score_rows(rows, "report bars")


# ---------------------------------------------------------------------------
# whatif-sweep: what-if queries against a large loaded score table
# ---------------------------------------------------------------------------

class WhatifSweep:
    """min_delta_for_rank_gain then apply_scenario at the solved value."""

    name = "whatif-sweep"
    op_unit = "op = one what-if query (solve, then apply)"
    # the score table comes from compute_all, as `gcindex whatif` gets it: the
    # solver assumes every parent score is its children's exact weighted sum,
    # which a 6-decimal score CSV read with load_score_table breaks
    setup_code = (
        "from gcindex import compute_all, load_classes, load_panel, load_tree\n"
        "compute_all(load_tree('wef-default'), load_panel(A[0], load_classes(A[1])), int(A[2]))\n"
    )
    QUERIES = 200

    def __init__(self, inputs: Inputs, work_dir: Path, seed: int):
        self.inputs = inputs
        rng = random.Random(f"gcindex-bench:queries:{seed}")
        self.queries = [
            (pick(rng, inputs.countries), pick(rng, WHATIF_NODES), 1 + int(rng.random() * 5))
            for _ in range(self.QUERIES)
        ]

    def setup_args(self) -> List[str]:
        return [str(self.inputs.panel), str(self.inputs.classes), str(self.inputs.years[0])]

    def load(self) -> None:
        self.classes = gc.load_classes(self.inputs.classes)
        self.tree = gc.load_tree(gc.WEF_DEFAULT)
        panel = gc.load_panel(self.inputs.panel, self.classes)
        self.scores = gc.compute_all(self.tree, panel, self.inputs.years[0])
        self.rows: Dict[str, Dict[str, float]] = {}
        for (c, n), s in self.scores.entries.items():
            self.rows.setdefault(c, {})[n] = s
        self.gci = {c: row["GCI"] for c, row in self.rows.items()}

    def round(self) -> List[Op]:
        return [Op(f"{i:03d}", self._runner(*q), self._output, self._checker(*q))
                for i, q in enumerate(self.queries)]

    def _runner(self, country: str, node: str, k: int) -> Callable[[], object]:
        def run():
            delta = gc.min_delta_for_rank_gain(
                self.tree, self.scores, self.classes, country, k, node)
            if delta is None:
                return None, None
            override = self.scores.score(country, node) + delta
            scenario = gc.Scenario(country, node, override)
            return delta, gc.apply_scenario(self.tree, self.scores, self.classes, scenario)
        return run

    @staticmethod
    def _output(result) -> bytes:
        delta, outcome = result
        if delta is None:
            return b"infeasible"
        return repr((delta, outcome.new_gci, outcome.baseline_rank, outcome.new_rank)).encode()

    def _checker(self, country: str, node: str, k: int) -> Callable[[object], None]:
        def check(result) -> None:
            delta, outcome = result
            row, cls = self.rows[country], self.inputs.class_of[country]
            if delta is None:
                best = oracle.rederived_root(cls, row, node, 7.0 - gc.STRICT_MARGIN)
                gain = oracle.rank_gain(self.gci, country, best)
                _require(gain < k, f"{country}/{node}: reported infeasible, "
                                   f"yet a score of 7 gains {gain} >= {k} ranks")
                return
            want = oracle.rederived_root(cls, row, node, row[node] + delta)
            _require(abs(outcome.new_gci - want) <= 1e-12,
                     f"{country}/{node}: new GCI {outcome.new_gci!r} != oracle {want!r}")
            own = self.gci[country]
            before = 1 + sum(1 for s in self.gci.values() if s > own)
            after = 1 + sum(1 for c, s in self.gci.items() if c != country and s > outcome.new_gci)
            _require((outcome.baseline_rank, outcome.new_rank) == (before, after),
                     f"{country}/{node}: ranks {outcome.baseline_rank}->{outcome.new_rank}, "
                     f"re-ranking gives {before}->{after}")
            _require(before - after >= k,
                     f"{country}/{node}: gained {before - after} < {k} ranks")
        return check


WORKLOADS = {w.name: w for w in (WideYear, PanelHistory, WhatifSweep)}
