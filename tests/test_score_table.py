"""compute_all's ScoreTable holds the countries and rows of its walk, and
builds its (country, node) entries only when something reads them.

The entries are a non-data descriptor on the class that the instance
attribute shadows once it is set, as the constructor sets it from the start.
Such a table must behave as `ScoreTable(year, dict(t.entries))` does (==,
repr, entry order, pickle, deepcopy, an unhashable hash), and ranking,
every score report and the multi-year commands (trend, correlate, report
--kind trend|scores), which read one node's column per year, must finish
without building an entry.  The file runs under pytest and, with nothing
installed, as `PYTHONPATH=src python tests/test_score_table.py`, since the
laziness rests on how each Python resolves attributes.
"""

import contextlib
import copy
import io
import pickle
import sys
import tempfile
from fractions import Fraction
from random import Random

from gcindex import cli, engine, model
from gcindex.data import BALKANS_CLASSES, BALKANS_PANEL, BALKANS_TREE, fixture_path
from gcindex.engine import MissingPolicy, compute_all
from gcindex.errors import MissingNodeError
from gcindex.model import (
    IndexTree,
    InnovatorClass,
    Node,
    Normalization,
    Panel,
    ScoreTable,
    validate_tree,
)
from gcindex.ranking import rank_scores
from gcindex.report import render_report

CORE, NONCORE = InnovatorClass.CORE, InnovatorClass.NONCORE
YEAR = 2006


def _tree() -> IndexTree:
    """GCI over TI and MEI, plus a TTS leaf that only the non-core class
    reaches; ICT is hard data on fixed bounds."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    return validate_tree(IndexTree({
        "GCI": Node("GCI", edges_by_class={
            CORE: (("TI", half), ("MEI", half)),
            NONCORE: (("TI", third), ("TTS", third), ("MEI", third)),
        }),
        "TI": Node("TI", edges=(("IS", half), ("ICT", half))),
        "IS": Node("IS"),
        "ICT": Node("ICT", normalize=Normalization(0.0, 100.0)),
        "TTS": Node("TTS"),
        "MEI": Node("MEI"),
    }, "GCI"))


def _panel(gaps: bool) -> Panel:
    """Eight countries, classes interleaved in country order; with `gaps`,
    some leaf cells are dropped (never a whole country's)."""
    rng = Random(26)
    rows, classes = [], {}
    for i in range(8):
        country = f"K{(5 * i) % 8}"
        classes[country] = CORE if i % 3 == 0 else NONCORE
        for leaf in ("IS", "ICT", "TTS", "MEI"):
            if gaps and leaf != "IS" and rng.random() < 0.35:
                continue
            rows.append((YEAR, country, leaf, rng.uniform(0.0, 100.0) if leaf == "ICT"
                         else rng.uniform(1.0, 7.0)))
    return Panel(rows, classes)


CASES = {"strict": (MissingPolicy.STRICT, False), "renormalize": (MissingPolicy.RENORMALIZE, True)}


def _lazy(case: str):
    """(a fresh compute_all table for the case, its tree and panel)."""
    policy, gaps = CASES[case]
    tree, panel = _tree(), _panel(gaps)
    return compute_all(tree, panel, YEAR, policy), tree, panel


@contextlib.contextmanager
def _patched(owner, name, value):
    saved = vars(owner)[name]
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


@contextlib.contextmanager
def _counted_transposes():
    """A list that gains one item per build of a table's entries from its
    rows, while the block runs."""
    builds = []
    real = model._Transposed.__get__

    def get(self, table, owner):
        if table is not None:
            builds.append(table)
        return real(self, table, owner)

    with _patched(model._Transposed, "__get__", get):
        yield builds


def _raised(fn, *args):
    try:
        fn(*args)
    except Exception as exc:  # noqa: BLE001 - the caller checks type and text
        return exc
    raise AssertionError(f"{fn.__name__} raised nothing")


def test_lazy_table_records_like_a_constructed_one():
    for case in CASES:
        table, tree, panel = _lazy(case)
        assert "entries" not in vars(table)
        eager = ScoreTable(YEAR, dict(_lazy(case)[0].entries))
        # country order, then each class's plan order, as before
        expected = [(c, n) for c in panel.countries(YEAR)
                    for n, _, _ in tree.plan(panel.innovator_class(c)) if (c, n) in eager.entries]
        assert list(eager.entries) == expected, case
        if case == "renormalize":
            assert len(expected) < sum(len(tree.plan(panel.innovator_class(c)))
                                       for c in panel.countries(YEAR)), "the panel has no gaps"
        assert repr(_lazy(case)[0]) == repr(eager), case
        assert _lazy(case)[0] == eager and eager == _lazy(case)[0], case
        assert list(table.entries) == expected, case
        assert type(table.entries) is dict and table.entries == eager.entries, case
        assert isinstance(_raised(hash, _lazy(case)[0]), TypeError), case
        lazy = _lazy(case)[0]
        assert [lazy.score(c, n) for c, n in expected] == [eager.score(c, n) for c, n in expected]
        assert lazy.get("K0", "NOPE") is None and lazy.get("NOPE", "GCI") is None
        lazy = _lazy(case)[0]
        assert lazy.countries() == eager.countries(), case
        assert {n for _, n in lazy.entries} == {n for _, n in eager.entries}, case


def test_pickle_and_deepcopy_round_trips():
    for case in CASES:
        eager = ScoreTable(YEAR, dict(_lazy(case)[0].entries))
        for read_first in (False, True):
            for name, clone in (("pickle", lambda t: pickle.loads(pickle.dumps(t))),
                                ("deepcopy", copy.deepcopy)):
                table = _lazy(case)[0]
                if read_first:
                    table.entries  # noqa: B018 - kept before the round trip
                twin = clone(table)
                where = f"{case} {name}{' after a read' if read_first else ''}"
                assert ("entries" in vars(twin)) is read_first, where
                assert repr(twin) == repr(eager) and twin == eager, where
                assert list(twin.entries) == list(eager.entries), where
                assert isinstance(_raised(hash, twin), TypeError), where
                assert render_report(twin, "csv") == render_report(eager, "csv"), where


def test_ranking_and_score_reports_build_no_entries():
    for case in CASES:
        with _counted_transposes() as builds:
            table = _lazy(case)[0]
            ranks = rank_scores(table, "GCI")
            reports = [render_report(table, fmt) for fmt in ("csv", "json", "svg")]
            reports += [render_report({YEAR: table}, fmt, "GCI") for fmt in ("csv", "json", "svg")]
            assert table.countries()
            assert builds == [] and "entries" not in vars(table), case
            # reading them builds them once; every later read is the attribute
            entries = table.entries
            assert vars(table)["entries"] is entries is table.entries
            table.score("K0", "GCI"), table.get("K0", "TI"), repr(table), table == table
            assert builds == [table], case
        eager = ScoreTable(YEAR, dict(entries))
        assert rank_scores(eager, "GCI") == ranks
        assert reports == [render_report(eager, fmt) for fmt in ("csv", "json", "svg")] + [
            render_report({YEAR: eager}, fmt, "GCI") for fmt in ("csv", "json", "svg")], case


def test_ranking_an_entries_table_builds_no_rows():
    def ranked(table, node):
        try:
            return rank_scores(table, node)
        except MissingNodeError as exc:
            return str(exc)

    for case in CASES:
        lazy = _lazy(case)[0]
        table = ScoreTable(YEAR, dict(lazy.entries))
        for node in _tree().nodes:
            assert ranked(table, node) == ranked(lazy, node), (case, node)
        # each column read one entry per country; no row was built for it
        assert ("rows",) not in table._cache, case


def _oracle_column(table: ScoreTable, node: str):
    """({country: score} on `node` by one entry lookup per country, the
    MissingNodeError that _ascending and rank_scores must raise or None)."""
    countries = table.countries()
    column = {c: table.entries[(c, node)] for c in countries if (c, node) in table.entries}
    if not column:
        return column, MissingNodeError(f"no scores for node {node!r}")
    if len(column) < len(countries):
        missing = [c for c in countries if c not in column]
        return column, MissingNodeError(f"node {node!r} has no score for: {missing}")
    return column, None


def test_column_from_the_rows_matches_the_per_entry_oracle():
    messages = set()
    partial = 0
    for case in CASES:
        oracle = ScoreTable(YEAR, dict(_lazy(case)[0].entries))
        lazy = _lazy(case)[0]
        for table in (lazy, ScoreTable(YEAR, dict(oracle.entries))):
            for node in (*_tree().nodes, "NOPE"):
                want, error = _oracle_column(oracle, node)
                # the column holds every country with a score, however many
                got = table._column(node)
                assert list(got.items()) == list(want.items()), (case, node)
                if error is None:
                    assert table._ascending(node) == sorted(want.values()), (case, node)
                    continue
                partial += bool(want)
                for read in (table._ascending, lambda n: rank_scores(table, n)):
                    got = _raised(read, node)
                    assert (type(got), str(got)) == (type(error), str(error)), (case, node)
                messages.add(str(error).split(" ")[0])
        assert "entries" not in vars(lazy), case
    # "no scores for node ..." and "node ... has no score for: [...]"
    assert messages == {"no", "node"} and partial, partial


def _bundled(*argv: str) -> list:
    """The compute_all tables a `gcindex` run on the bundled panel scores,
    after it has run; its stdout is discarded and --out goes to a
    temporary directory."""
    tables = []

    def kept(*args, **kwargs):
        tables.append(compute_all(*args, **kwargs))
        return tables[-1]

    data = ["--data", str(fixture_path(BALKANS_PANEL)), "--classes",
            str(fixture_path(BALKANS_CLASSES)), "--tree", str(fixture_path(BALKANS_TREE))]
    with tempfile.TemporaryDirectory() as work, _patched(cli, "compute_all", kept), \
            contextlib.redirect_stdout(io.StringIO()):
        out = [arg.replace("{out}", work) for arg in argv[1:]]
        assert cli.main([argv[0], *data, *out]) == 0, argv
    return tables


def test_multi_year_commands_build_no_entries():
    runs = [("trend", "--country", "Macedonia", "--node", "TI"),
            ("correlate", "--country", "Macedonia", "--nodes", "TI", "GCI"),
            ("report", "--kind", "trend", "--country", "Macedonia", "--out", "{out}/t.svg")]
    runs += [("report", "--kind", "scores", "--node", "TI", "--format", fmt,
              "--out", f"{{out}}/s.{fmt}") for fmt in ("csv", "json", "svg")]
    for argv in runs:
        tables = _bundled(*argv)
        assert len(tables) > 1, argv
        # each table read one column per node, from its kept rows
        assert [t for t in tables if "entries" in vars(t)] == [], argv


def test_out_of_range_aggregate_names_the_first_offender():
    for case in CASES:
        table, tree, panel = _lazy(case)
        first = table.countries()[0]
        node = next(n for n, _, weights in tree.plan(panel.innovator_class(first))
                    if weights is not None)
        # every aggregate lands 10 above its true mean; the first aggregate in
        # the first country's plan has leaves only below it
        real = engine._aggregate_columns
        bumped = (lambda parts, size: [s if s is None else s + 10.0 for s in real(parts, size)])
        with _patched(engine, "_aggregate_columns", bumped):
            policy = CASES[case][0]
            err = _raised(compute_all, tree, panel, YEAR, policy)
        message = f"score {table.score(first, node) + 10.0} for ({first}, {node}) outside [1, 7]"
        assert (type(err), str(err)) == (ValueError, message), case
        bad = {**table.entries, (first, node): table.score(first, node) + 10.0}
        assert str(_raised(ScoreTable, YEAR, bad)) == message


def test_compute_all_reads_the_year_columns_not_the_views():
    columns = Panel._columns

    def view(self, *args):
        raise AssertionError("compute_all read Panel.value")

    for case, (policy, _) in CASES.items():
        table, tree, panel = _lazy(case)
        read = []

        def kept(self, year):
            read.append(year)
            return columns(self, year)

        with _patched(Panel, "_columns", kept), _patched(Panel, "value", view):
            again = compute_all(tree, panel, YEAR, policy)
        assert read == [YEAR], case
        assert again == table, case


if __name__ == "__main__":
    tests = [(name, test) for name, test in sorted(globals().items())
             if name.startswith("test_") and callable(test)]
    failed = 0
    for name, test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAILED {name}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)
