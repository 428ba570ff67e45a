"""Command-line front door: compute, rank, delta, trend, correlate, chisq,
whatif, report.

Exit codes: 0 success, 1 domain or ingestion error (message on stderr),
2 usage error (argparse).  All numbers print with 6 decimals and a '.'
separator; identical inputs and flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from . import data as bundled
from .engine import MissingPolicy, compute_all
from .errors import GciError
from .ingest import (
    WEF_DEFAULT,
    DatasetManifest,
    _fmt6,
    _json_number,
    _write,
    emit_report,
    load_score_table,
    render_report,
)
from .model import IndexTree, Panel, ScoreTable
from .ranking import (
    format_delta,
    rank_delta,
    rank_scores,
    rank_table_from_indicator,
)
from .stats import Decision, ols_fit, pearson, rank_homogeneity_test
from .svg import line_chart
from .whatif import Scenario, apply_scenario, min_delta_for_rank_gain

_DECISION_TEXT = {
    Decision.REJECT: "reject the null hypothesis",
    Decision.DO_NOT_REJECT: "do not reject the null hypothesis",
}


def _alpha(token: str) -> float:
    """argparse type for a significance level: a number strictly inside (0, 1)."""
    try:
        value = float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {token!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {token}")
    return value


def _add_dataset_flags(parser: argparse.ArgumentParser, data_required: bool = True):
    parser.add_argument("--data", required=data_required,
                        help="panel CSV (year,country,indicator,value)")
    parser.add_argument("--classes", help="class map CSV (country,class); default: all noncore")
    parser.add_argument(
        "--tree",
        default=WEF_DEFAULT,
        help=f"tree config JSON or the literal {WEF_DEFAULT!r} (default)",
    )
    parser.add_argument(
        "--policy",
        choices=["strict", "renormalize"],
        default="strict",
        help="missing-data policy (default strict)",
    )


def _load(args) -> tuple:
    manifest = DatasetManifest(
        panel=args.data,
        classes=getattr(args, "classes", None),
        tree=args.tree,
        policy=args.policy,
    )
    return manifest.load()


def _deliver(args, results, node: Optional[str] = None) -> None:
    """Send a result to --out via emit_report, or stdout in --format."""
    fmt = getattr(args, "format", "csv")
    out = getattr(args, "out", None)
    if out:
        emit_report(results, fmt, out, node=node)
    else:
        sys.stdout.write(render_report(results, fmt, node=node))


def _score_years(args, panel: Panel, tree: IndexTree, policy: MissingPolicy,
                 country: Optional[str] = None) -> Dict[int, ScoreTable]:
    """{year: ScoreTable} for the panel's years within --from/--to, each
    scored once; with `country`, only the years where it has data."""
    return {
        year: compute_all(tree, panel, year, policy)
        for year in panel.years()
        if (args.from_year is None or year >= args.from_year)
        and (args.to_year is None or year <= args.to_year)
        and (country is None or country in panel.countries(year))
    }


def _series(tables: Dict[int, ScoreTable], country: str, node: str):
    """(year, score) points of one country's node, in year order; at least
    two, or a GciError naming the node, the country and the years searched."""
    if not tables:
        raise GciError(f"country {country!r} has no data in the requested years")
    points = [(year, table.score(country, node)) for year, table in tables.items()
              if table.get(country, node) is not None]
    if len(points) < 2:
        first, last = min(tables), max(tables)
        years = f"{first}-{last}" if first != last else f"{first}"
        raise GciError(f"node {node!r} has {len(points)} score{'' if len(points) == 1 else 's'}"
                       f" for {country!r} in {years}; need at least two")
    return points


def _rank_tables(args, panel: Panel, tree: IndexTree, policy: MissingPolicy):
    """Previous/current rank tables from computed scores or ingested ranks."""
    if args.rank_indicator:
        prev = rank_table_from_indicator(panel, args.prev_year, args.rank_indicator)
        cur = rank_table_from_indicator(panel, args.cur_year, args.rank_indicator)
    else:
        prev = rank_scores(compute_all(tree, panel, args.prev_year, policy), args.node)
        cur = rank_scores(compute_all(tree, panel, args.cur_year, policy), args.node)
    return prev, cur


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_compute(args) -> int:
    panel, tree, policy = _load(args)
    table = compute_all(tree, panel, args.year, policy)
    _deliver(args, table)
    return 0


def _cmd_rank(args) -> int:
    if args.scores:
        table = load_score_table(args.scores)
    else:
        if not args.data:
            raise GciError("rank needs either --scores or --data with --year")
        if args.year is None:
            raise GciError("rank from --data needs --year")
        panel, tree, policy = _load(args)
        table = compute_all(tree, panel, args.year, policy)
    _deliver(args, rank_scores(table, args.node))
    return 0


def _cmd_delta(args) -> int:
    panel, tree, policy = _load(args)
    prev, cur = _rank_tables(args, panel, tree, policy)
    _deliver(args, rank_delta(prev, cur))
    return 0


def _cmd_trend(args) -> int:
    panel, tree, policy = _load(args)
    points = _series(_score_years(args, panel, tree, policy, args.country),
                     args.country, args.node)
    result = ols_fit(points)
    sys.stdout.write(
        f"country {args.country}\nnode {args.node}\n"
        f"years {points[0][0]}-{points[-1][0]}\n"
        f"slope {_fmt6(result.slope)}\nintercept {_fmt6(result.intercept)}\nn {result.n}\n"
    )
    if args.out:
        emit_report(result, args.format, args.out)
    return 0


def _cmd_correlate(args) -> int:
    panel, tree, policy = _load(args)
    node_a, node_b = args.nodes
    tables = _score_years(args, panel, tree, policy, args.country)
    series_a = dict(_series(tables, args.country, node_a))
    series_b = dict(_series({y: tables[y] for y in series_a}, args.country, node_b))
    years = list(series_b)
    result = pearson([series_a[y] for y in years], [series_b[y] for y in years])
    sys.stdout.write(
        f"country {args.country}\nnodes {node_a},{node_b}\n"
        f"years {years[0]}-{years[-1]}\nr {_fmt6(result.r)}\nn {result.n}\n"
    )
    if args.out:
        emit_report(result, args.format, args.out)
    return 0


def _cmd_chisq(args) -> int:
    panel, tree, policy = _load(args)
    prev, cur = _rank_tables(args, panel, tree, policy)
    result = rank_homogeneity_test(prev, cur, alpha=args.alpha, design=args.design)
    sys.stdout.write(
        f"statistic {_fmt6(result.statistic)}\ndf {result.df}\n"
        f"p-value {_fmt6(result.p_value)}\ncritical-value {_fmt6(result.critical_value)}\n"
        f"alpha {_fmt6(result.alpha)}\ndecision {_DECISION_TEXT[result.decision]}\n"
    )
    if args.out:
        emit_report(result, args.format, args.out)
    return 0


def _cmd_whatif(args) -> int:
    panel, tree, policy = _load(args)
    scores = compute_all(tree, panel, args.year, policy)
    classes = panel.classes
    if args.set is not None:
        outcome = apply_scenario(tree, scores, classes,
                                 Scenario(args.country, args.node, args.set))
    else:
        delta = min_delta_for_rank_gain(tree, scores, classes,
                                        args.country, args.gain, args.node)
        if delta is None:
            sys.stdout.write("min-delta infeasible\n")
            return 0
        sys.stdout.write(f"min-delta {_fmt6(delta)}\n")
        current = scores.score(args.country, args.node)
        outcome = apply_scenario(tree, scores, classes,
                                 Scenario(args.country, args.node, current + delta))
    sys.stdout.write(
        f"country {outcome.country}\nnode {outcome.node}\n"
        f"override {_fmt6(outcome.override)}\n"
        f"baseline-gci {_fmt6(outcome.baseline_gci)}\nnew-gci {_fmt6(outcome.new_gci)}\n"
        f"baseline-rank {outcome.baseline_rank}\nnew-rank {outcome.new_rank}\n"
        f"delta-rank {format_delta(outcome.delta_rank)}\n"
    )
    if args.out:
        emit_report(outcome, args.format, args.out)
    return 0


def _cmd_report(args) -> int:
    panel, tree, policy = _load(args)
    if args.kind == "bars" and args.year is None:
        raise GciError("report --kind bars needs --year")
    if args.kind in ("scores", "bars"):
        tables = ({args.year: compute_all(tree, panel, args.year, policy)}
                  if args.kind == "bars" else _score_years(args, panel, tree, policy))
        if not any(args.node in table.nodes() for table in tables.values()):
            raise GciError(f"node {args.node!r} has no scores in the requested years")
        # bars svg charts the one year's table; every other score report is the dict
        results = tables[args.year] if args.kind == "bars" and args.format == "svg" else tables
        text = render_report(results, args.format, args.node)
    elif args.kind == "deltas":
        if args.prev_year is None or args.cur_year is None:
            raise GciError("report --kind deltas needs --prev-year and --cur-year")
        prev, cur = _rank_tables(args, panel, tree, policy)
        text = render_report(rank_delta(prev, cur), args.format)
    elif args.kind == "trend":
        if not args.country:
            raise GciError("report --kind trend needs --country")
        tables = _score_years(args, panel, tree, policy, args.country)
        series = {}
        fits = {}
        for node in args.nodes:
            pts = _series(tables, args.country, node)
            series[node] = [(float(y), v) for y, v in pts]
            fits[node] = ols_fit(pts)
        if args.format == "svg":
            charted = dict(series)
            for node, fit in fits.items():
                xs = [x for x, _ in series[node]]
                charted[f"{node}_fit"] = [(x, fit.predict(x)) for x in (min(xs), max(xs))]
            text = line_chart(charted, f"{args.country}: {', '.join(args.nodes)}")
        elif args.format == "json":
            doc = {
                "country": args.country,
                "series": {n: [[int(x), _json_number(v)] for x, v in series[n]]
                           for n in args.nodes},
                "fits": {n: {"slope": _json_number(fits[n].slope),
                             "intercept": _json_number(fits[n].intercept),
                             "n": fits[n].n} for n in args.nodes},
            }
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        else:
            lines = ["year,node,score,fitted"]
            for node in args.nodes:
                for x, v in series[node]:
                    lines.append(f"{int(x)},{node},{_fmt6(v)},{_fmt6(fits[node].predict(x))}")
            text = "\n".join(lines) + "\n"
    _write(args.out, text)
    return 0


def _cmd_fixture(args) -> int:
    names = {
        "panel": bundled.BALKANS_PANEL,
        "classes": bundled.BALKANS_CLASSES,
        "tree": bundled.BALKANS_TREE,
        "wef-tree": bundled.WEF_TREE_CONFIG,
    }
    sys.stdout.write(str(bundled.fixture_path(names[args.name])) + "\n")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcindex",
        description="Growth-competitiveness composite index toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="score every tree node for one year")
    _add_dataset_flags(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--out", help="write here instead of stdout")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_compute)

    p = sub.add_parser("rank", help="rank countries on one node")
    p.add_argument("--scores", help="score CSV from a previous compute run")
    _add_dataset_flags(p, data_required=False)  # --scores is the alternative
    p.add_argument("--year", type=int)
    p.add_argument("--node", default="GCI")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("delta", help="rank movement between two years")
    _add_dataset_flags(p)
    p.add_argument("--prev-year", type=int, required=True)
    p.add_argument("--cur-year", type=int, required=True)
    p.add_argument("--node", default="GCI", help="rank computed scores on this node")
    p.add_argument("--rank-indicator",
                   help="take standings from this panel indicator instead of scores")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json", "svg"], default="csv")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("trend", help="least-squares trend of one node for one country")
    _add_dataset_flags(p)
    p.add_argument("--country", required=True)
    p.add_argument("--node", default="GCI")
    p.add_argument("--from", dest="from_year", type=int)
    p.add_argument("--to", dest="to_year", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_trend)

    p = sub.add_parser("correlate", help="Pearson correlation between two node series")
    _add_dataset_flags(p)
    p.add_argument("--country", required=True)
    p.add_argument("--nodes", nargs=2, default=["TI", "GCI"], metavar=("NODE_A", "NODE_B"))
    p.add_argument("--from", dest="from_year", type=int)
    p.add_argument("--to", dest="to_year", type=int)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_correlate)

    p = sub.add_parser("chisq", help="chi-square test of ranking stability")
    _add_dataset_flags(p)
    p.add_argument("--prev-year", type=int, required=True)
    p.add_argument("--cur-year", type=int, required=True)
    p.add_argument("--alpha", type=_alpha, default=0.05)
    p.add_argument("--node", default="GCI")
    p.add_argument("--rank-indicator")
    p.add_argument("--design", choices=["prev-expected", "cur-expected", "two-way"],
                   default="prev-expected")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_chisq)

    p = sub.add_parser("whatif", help="override a node score or solve for a rank gain")
    _add_dataset_flags(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--country", required=True)
    p.add_argument("--node", default="GCI")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--set", type=float, help="override the node score to this value")
    group.add_argument("--gain", type=int, help="solve for the smallest gain of this many ranks")
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_whatif)

    p = sub.add_parser("report", help="figure-style artifacts (score panels, deltas, trends, bars)")
    _add_dataset_flags(p)
    p.add_argument("--kind", choices=["scores", "deltas", "trend", "bars"], required=True)
    p.add_argument("--node", default="GCI")
    p.add_argument("--nodes", nargs="+", default=["TI", "GCI"])
    p.add_argument("--country")
    p.add_argument("--year", type=int)
    p.add_argument("--prev-year", type=int)
    p.add_argument("--cur-year", type=int)
    p.add_argument("--rank-indicator")
    p.add_argument("--from", dest="from_year", type=int)
    p.add_argument("--to", dest="to_year", type=int)
    p.add_argument("--format", choices=["csv", "json", "svg"], default="svg")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("fixture", help="print the path of a bundled data file")
    p.add_argument("name", choices=["panel", "classes", "tree", "wef-tree"])
    p.set_defaults(func=_cmd_fixture)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except GciError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console_scripts target
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
