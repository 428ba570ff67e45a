"""Command-line front door: compute, rank, delta, trend, correlate, chisq,
whatif, report.

Exit codes: 0 success, 1 domain or ingestion error (message on stderr),
2 usage error (argparse).  All numbers print with 6 decimals and a '.'
separator; identical inputs and flags give byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional

from . import data as bundled
from .engine import MissingPolicy, compute_all
from .errors import GciError
from .ingest import WEF_DEFAULT, load_classes, load_panel, load_score_table, load_tree
from .model import IndexTree, Panel, ScoreTable
from .report import emit_report, fmt6, render_lines, render_report

# ranking, stats and whatif are imported by the commands that call them, so
# that a process loads only what its command runs


def _alpha(token: str) -> float:
    """argparse type for a significance level: a number strictly inside (0, 1)."""
    try:
        value = float(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {token!r}") from None
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must lie strictly between 0 and 1, got {token}")
    return value


def _gain(token: str) -> int:
    """argparse type for a rank gain: an integer >= 0."""
    try:
        value = int(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {token!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {token}")
    return value


def _load(args) -> tuple:
    """(panel, tree, policy) from the dataset flags."""
    classes = load_classes(args.classes) if args.classes is not None else None
    return load_panel(args.data, classes), load_tree(args.tree), MissingPolicy(args.policy)


def _deliver(args, results, node: Optional[str] = None) -> None:
    """Send a result to --out via emit_report, or stdout in --format."""
    if args.out:
        emit_report(results, args.format, args.out, node=node)
    else:
        sys.stdout.write(render_report(results, args.format, node=node))


def _print_record(args, result, head: str = "") -> int:
    """Print `head`, then the 'name value' lines of a one-row result, and
    write the result to --out if given."""
    sys.stdout.write(head + render_lines(result))
    if args.out:
        emit_report(result, args.format, args.out)
    return 0


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
    from .ranking import rank_scores, rank_table_from_indicator

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
    from .ranking import rank_scores

    if args.scores is not None:
        table = load_score_table(args.scores)
    else:
        panel, tree, policy = _load(args)
        table = compute_all(tree, panel, args.year, policy)
    _deliver(args, rank_scores(table, args.node))
    return 0


def _cmd_delta(args) -> int:
    from .ranking import rank_delta

    panel, tree, policy = _load(args)
    prev, cur = _rank_tables(args, panel, tree, policy)
    _deliver(args, rank_delta(prev, cur))
    return 0


def _cmd_trend(args) -> int:
    from .stats import ols_fit

    panel, tree, policy = _load(args)
    points = _series(_score_years(args, panel, tree, policy, args.country),
                     args.country, args.node)
    return _print_record(args, ols_fit(points), f"country {args.country}\nnode {args.node}\n"
                                                f"years {points[0][0]}-{points[-1][0]}\n")


def _cmd_correlate(args) -> int:
    from .stats import pearson

    panel, tree, policy = _load(args)
    node_a, node_b = args.nodes
    tables = _score_years(args, panel, tree, policy, args.country)
    series_a = dict(_series(tables, args.country, node_a))
    series_b = dict(_series({y: tables[y] for y in series_a}, args.country, node_b))
    years = list(series_b)
    result = pearson([series_a[y] for y in years], [series_b[y] for y in years])
    return _print_record(args, result, f"country {args.country}\nnodes {node_a},{node_b}\n"
                                       f"years {years[0]}-{years[-1]}\n")


def _cmd_chisq(args) -> int:
    from .stats import rank_homogeneity_test

    panel, tree, policy = _load(args)
    prev, cur = _rank_tables(args, panel, tree, policy)
    return _print_record(args, rank_homogeneity_test(prev, cur, alpha=args.alpha,
                                                     design=args.design))


def _cmd_whatif(args) -> int:
    from .whatif import Scenario, apply_scenario, min_delta_for_rank_gain

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
            if args.out:
                raise GciError(f"min-delta infeasible: {args.country} cannot gain {args.gain} "
                               f"rank{'' if args.gain == 1 else 's'} on {args.node} in "
                               f"{args.year}; nothing written to {args.out}")
            sys.stdout.write("min-delta infeasible\n")
            return 0
        sys.stdout.write(f"min-delta {fmt6(delta)}\n")
        current = scores.score(args.country, args.node)
        outcome = apply_scenario(tree, scores, classes,
                                 Scenario(args.country, args.node, current + delta))
    return _print_record(args, outcome)


def _cmd_report(args) -> int:
    panel, tree, policy = _load(args)
    if args.kind in ("scores", "bars"):
        tables = ({args.year: compute_all(tree, panel, args.year, policy)}
                  if args.year is not None else _score_years(args, panel, tree, policy))
        if not any(args.node in table.nodes() for table in tables.values()):
            raise GciError(f"node {args.node!r} has no scores in the requested years")
        # bars svg charts the one year's table; every other score report is the dict
        results = tables[args.year] if args.kind == "bars" and args.format == "svg" else tables
        _deliver(args, results, args.node)
    elif args.kind == "deltas":
        from .ranking import rank_delta

        prev, cur = _rank_tables(args, panel, tree, policy)
        _deliver(args, rank_delta(prev, cur))
    elif args.kind == "trend":
        from .stats import TrendSeries

        tables = _score_years(args, panel, tree, policy, args.country)
        points = {node: _series(tables, args.country, node) for node in args.nodes}
        _deliver(args, TrendSeries(args.country, points))
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

_WITH_SVG = ["csv", "json", "svg"]

#: each option's argparse keywords, written once for every command that takes it
_FLAGS = {
    "--data": {"help": "panel CSV (year,country,indicator,value)"},
    "--classes": {"help": "class map CSV (country,class); default: all noncore"},
    "--tree": {"default": WEF_DEFAULT,
               "help": f"tree config JSON or the literal {WEF_DEFAULT!r} (default)"},
    "--policy": {"choices": ["strict", "renormalize"], "default": "strict",
                 "help": "missing-data policy (default strict)"},
    "--scores": {"help": "score CSV from a previous compute run"},
    "--kind": {"choices": ["scores", "deltas", "trend", "bars"]},
    "--year": {"type": int},
    "--prev-year": {"type": int},
    "--cur-year": {"type": int},
    "--country": {},
    "--alpha": {"type": _alpha, "default": 0.05},
    "--node": {"default": "GCI"},
    "--nodes": {"nargs": "+", "default": ["TI", "GCI"]},
    "--rank-indicator": {},
    "--design": {"choices": ["prev-expected", "cur-expected", "two-way"],
                 "default": "prev-expected"},
    "--set": {"type": float, "help": "override the node score to this value"},
    "--gain": {"type": _gain, "help": "solve for the smallest gain of this many ranks (>= 0)"},
    "--from": {"dest": "from_year", "type": int},
    "--to": {"dest": "to_year", "type": int},
    "--out": {},
    "--format": {"choices": ["csv", "json"], "default": "csv"},
}
_DATASET = ("--data!", "--classes", "--tree", "--policy")
# standings from --rank-indicator read neither --node nor --policy; a
# one-row result prints the same 'name value' lines in every --format
_INDICATOR = ("--rank-indicator", (), ("--node", "--policy"))
_FORMAT = ("--format", ("--out",), ())
_SCORES_UNREAD = ("--nodes", "--country", "--prev-year", "--cur-year", "--rank-indicator")

#: command -> (summary, handler, its options in help order, *its usage
#: rules).  A trailing '!' marks a required option, a (name, keywords) pair
#: overrides the shared keywords, and a list is a group of which exactly one
#: must be given.  A rule (when, needs, unread) applies where `when` holds (a
#: flag is given, or "--kind K" is): each flag of `needs` must be given, and
#: none of `unread`, which that run would not read (see _check_usage).
_COMMANDS = {
    "compute": ("score every tree node for one year", _cmd_compute, (
        *_DATASET, "--year!", ("--out", {"help": "write here instead of stdout"}), "--format")),
    "rank": ("rank countries on one node", _cmd_rank, (
        "--scores", "--data", "--classes", "--tree", "--policy", "--year", "--node", "--out",
        "--format"),
        ("--scores", (), ("--data", "--classes", "--tree", "--policy", "--year")),
        ("--data", ("--year",), ())),
    "delta": ("rank movement between two years", _cmd_delta, (
        *_DATASET, "--prev-year!", "--cur-year!",
        ("--node", {"help": "rank computed scores on this node"}),
        ("--rank-indicator", {"help": "take standings from this panel indicator instead of scores"}),
        "--out", ("--format", {"choices": _WITH_SVG})), _INDICATOR),
    "trend": ("least-squares trend of one node for one country", _cmd_trend, (
        *_DATASET, "--country!", "--node", "--from", "--to", "--out", "--format"), _FORMAT),
    "correlate": ("Pearson correlation between two node series", _cmd_correlate, (
        *_DATASET, "--country!", ("--nodes", {"nargs": 2, "metavar": ("NODE_A", "NODE_B")}),
        "--from", "--to", "--out", "--format"), _FORMAT),
    "chisq": ("chi-square test of ranking stability", _cmd_chisq, (
        *_DATASET, "--prev-year!", "--cur-year!", "--alpha",
        "--node", "--rank-indicator", "--design", "--out", "--format"), _INDICATOR, _FORMAT),
    "whatif": ("override a node score or solve for a rank gain", _cmd_whatif, (
        *_DATASET, "--year!", "--country!", "--node", ["--set", "--gain"], "--out", "--format"),
        _FORMAT),
    "report": ("figure-style artifacts (score panels, deltas, trends, bars)", _cmd_report, (
        *_DATASET, "--kind!", "--node", "--nodes", "--country", "--year", "--prev-year",
        "--cur-year", "--rank-indicator", "--from", "--to",
        ("--format", {"choices": _WITH_SVG, "default": "svg"}), "--out!"),
        ("--kind scores", (), _SCORES_UNREAD), ("--kind bars", ("--year",), _SCORES_UNREAD),
        ("--kind trend", ("--country",),
         ("--node", "--year", "--prev-year", "--cur-year", "--rank-indicator")),
        ("--kind deltas", ("--prev-year", "--cur-year"),
         ("--nodes", "--country", "--year", "--from", "--to")),
        _INDICATOR),
}


def _option(entry) -> tuple:
    """(name, required, argparse keywords) of one option of a _COMMANDS row."""
    flag, keywords = entry if isinstance(entry, tuple) else (entry, {})
    name = flag.rstrip("!")
    return name, name != flag, {**_FLAGS[name], **keywords}


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The `gcindex` parser: every command, or only the subparser of `only`
    (a key of `_COMMANDS`), which parses that command's arguments alike.
    Options parse to None when not given; `main` checks them against the
    command's rules and then fills in their defaults."""
    parser = argparse.ArgumentParser(
        prog="gcindex",
        description="Growth-competitiveness composite index toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _COMMANDS if only is None else (only,):
        summary, handler, flags, *_ = _COMMANDS[command]
        p = sub.add_parser(command, help=summary)
        for flag in flags:
            if isinstance(flag, list):
                group = p.add_mutually_exclusive_group(required=True)
                for name in flag:
                    group.add_argument(name, **_FLAGS[name])
                continue
            name, required, keywords = _option(flag)
            p.add_argument(name, required=required, **{**keywords, "default": None})
        # usage errors found after parsing name the command, as argparse's own do
        p.set_defaults(func=handler, error=p.error)
    if only is not None:
        return parser

    p = sub.add_parser("fixture", help="print the path of a bundled data file")
    p.add_argument("name", choices=["panel", "classes", "tree", "wef-tree"])
    p.set_defaults(func=_cmd_fixture)

    return parser


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, building only the named command's
    subparser when that parses all of argv (see `main`)."""
    if argv and argv[0] in _COMMANDS:
        args, unread = build_parser(argv[0]).parse_known_args(argv)
        if not unread:
            return args
    return build_parser().parse_args(argv)


def _check_usage(args) -> None:
    """Reject, through args.error and before any file is read, a flag
    combination that the command's rules forbid; then fill in the defaults."""
    def dest(flag: str) -> str:
        return _FLAGS[flag].get("dest", flag[2:].replace("-", "_"))

    def given(flag: str) -> bool:
        return getattr(args, dest(flag), None) is not None

    if given("--from") and given("--to") and args.from_year > args.to_year:
        args.error(f"--from {args.from_year} is after --to {args.to_year}")
    if args.command == "rank" and not given("--scores") and not given("--data"):
        args.error("needs either --scores or --data with --year")
    if args.command == "report" and args.kind in ("scores", "bars") and given("--year") \
            and (given("--from") or given("--to")):
        args.error("--year cannot be combined with --from or --to")
    _, _, options, *rules = _COMMANDS[args.command]
    for when, needs, unread in rules:
        flag, _, value = when.partition(" ")
        if (getattr(args, dest(flag)) == value) if value else given(flag):
            if not all(map(given, needs)):
                args.error(f"{when} needs {' and '.join(needs)}")
            conflicts = [f for f in unread if given(f)]
            if conflicts:
                args.error(f"{when} cannot be combined with {', '.join(conflicts)}")
    for entry in options:
        if not isinstance(entry, list):
            name, _, keywords = _option(entry)
            if "default" in keywords and not given(name):
                setattr(args, dest(name), keywords["default"])


def main(argv: Optional[List[str]] = None) -> int:
    """Run `gcindex argv` (default: sys.argv[1:]) and return its exit code;
    usage errors exit 2 through argparse.

    When argv[0] names a command other than `fixture`, only that command's
    subparser is built to parse argv.  The full parser parses when argv is
    empty or starts with `-h`, `fixture` or an unknown word, and when the one
    command leaves arguments unread, so that the usage error lists every
    command.  Both give the same namespace or the same output.
    """
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if args.command in _COMMANDS:
        _check_usage(args)
    try:
        return args.func(args)
    except (GciError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:  # console_scripts target
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
