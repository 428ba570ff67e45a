"""A Panel's contents and scores do not depend on the order of its rows.

Panel indexes its rows by year, then indicator, then country, so the order
in which rows arrive decides the order of every kept dict.  Seeded
permutations of the bundled panel's rows must give the same years,
countries, length, values and year mappings, and compute_all must give
bit-identical scores under both policies, also with observed bounds, gaps
and two innovator classes.  A bad row still raises the error and message
the constructor has always raised, the first fault in row order winning.
And evaluate_node, which indexes a (country, leaf) mapping itself, scores
every country and node as compute_all does, bit for bit.  The file runs
under pytest and, with nothing installed, as `PYTHONPATH=src python
tests/test_panel_index.py`.
"""

import csv
import sys
from random import Random

from gcindex.data import BALKANS_PANEL, BALKANS_TREE, fixture_path
from gcindex.engine import MissingPolicy, compute_all, evaluate_node
from gcindex.errors import DuplicateKeyError, GciError, MissingLeafError
from gcindex.ingest import load_tree
from gcindex.model import OBSERVED, IndexTree, InnovatorClass, Node, Panel, validate_tree

SEEDS = range(12)
#: leaves scored with observed bounds in the observed tree; TTS is skipped
#: by the core class, so its bounds also span countries that do not use it
OBSERVED_LEAVES = ("IS", "TTS", "PII")


def _rows():
    """The bundled panel's (year, country, indicator, value) rows, in file
    order, read with the csv module."""
    with open(fixture_path(BALKANS_PANEL), newline="", encoding="utf-8") as f:
        lines = [line for line in f if not line.startswith("#")]
    reader = csv.reader(lines)
    assert next(reader) == ["year", "country", "indicator", "value"]
    return [(int(year), country, indicator, float(value))
            for year, country, indicator, value in reader]


ROWS = _rows()
COUNTRIES = sorted({country for _, country, _, _ in ROWS})
#: every other country core, so each year has two class groups
CLASSES = {c: (InnovatorClass.CORE if i % 2 else InnovatorClass.NONCORE)
           for i, c in enumerate(COUNTRIES)}


def _trees():
    """{name: tree}: the bundled tree, and the same tree with
    OBSERVED_LEAVES normalized over each year's observed range."""
    plain = load_tree(fixture_path(BALKANS_TREE))
    nodes = {**plain.nodes, **{leaf: Node(leaf, normalize=OBSERVED) for leaf in OBSERVED_LEAVES}}
    return {"plain": plain, "observed": validate_tree(IndexTree(nodes, plain.root))}


TREES = _trees()


def _shuffled(rows, seed):
    rows = list(rows)
    Random(seed).shuffle(rows)
    return rows


def _gapped(rows):
    """The rows without a seeded tenth of them, in their order."""
    rng = Random(2024)
    return [row for row in rows if rng.random() >= 0.1]


def _outcome(fn, *args):
    """fn(*args), or the class and message of the error it raised."""
    try:
        return fn(*args)
    except (GciError, ValueError) as exc:
        return type(exc), str(exc)


def _bits(table):
    """A score table's entries, in order, each score as its exact bits."""
    return [(c, n, s.hex()) for (c, n), s in table.entries.items()]


def _scored(rows):
    """{(tree, policy, year): compute_all's outcome} over the rows' panel."""
    panel = Panel(rows, CLASSES)
    out = {}
    for name, tree in TREES.items():
        for policy in MissingPolicy:
            for year in panel.years():
                got = _outcome(compute_all, tree, panel, year, policy)
                out[(name, policy, year)] = got if isinstance(got, tuple) else _bits(got)
    return out


def test_row_order_does_not_change_the_panel():
    base = Panel(ROWS)
    expected = {}
    for year, country, indicator, value in ROWS:
        expected.setdefault(year, {})[(country, indicator)] = value
    assert len(base) == len(ROWS)
    assert base.years() == tuple(sorted(expected))
    for year, values in expected.items():
        assert dict(base.year_values(year)) == values, year
        assert base.countries(year) == tuple(sorted({c for c, _ in values})), year
    for seed in SEEDS:
        panel = Panel(_shuffled(ROWS, seed))
        assert len(panel) == len(base), seed
        assert panel.years() == base.years(), seed
        assert panel.countries() == base.countries() == tuple(COUNTRIES), seed
        for year in (*base.years(), 1999):
            assert panel.countries(year) == base.countries(year), (seed, year)
            assert dict(panel.year_values(year)) == dict(base.year_values(year)), (seed, year)
            for country in (*COUNTRIES, "Atlantis"):
                for indicator in ("IS", "TTS", "ICTS", "PII", "MEI", "GCI_RANK", "NOPE"):
                    value = panel.value(year, country, indicator)
                    assert value == expected.get(year, {}).get((country, indicator)), (
                        seed, year, country, indicator)


def test_year_values_is_a_new_read_only_mapping_indicator_by_indicator():
    panel = Panel([(2005, "B", "y", 2.0), (2005, "A", "x", 1.0), (2005, "A", "y", 3.0)])
    view = panel.year_values(2005)
    assert list(view.items()) == [(("B", "y"), 2.0), (("A", "y"), 3.0), (("A", "x"), 1.0)]
    assert view is not panel.year_values(2005)
    try:
        view[("C", "x")] = 4.0
    except TypeError:
        pass
    else:
        raise AssertionError("year_values is writable")
    assert panel.value(2005, "C", "x") is None


def test_compute_all_is_bit_identical_under_any_row_order():
    for rows in (ROWS, _gapped(ROWS)):
        base = _scored(rows)
        # the gaps must make the policies differ, or they test nothing
        assert any(isinstance(got, tuple) for got in base.values()) == (rows is not ROWS)
        for seed in SEEDS:
            assert _scored(_shuffled(rows, seed)) == base, seed


#: (bad rows, the error the first of them raises)
BAD = {
    "year": ([(1989, "Macedonia", "IS", 4.0)], (ValueError, "year 1989 outside [1990, 2100]")),
    "country": ([(2006, "North Macedonia", "IS", 4.0)],
                (ValueError, "country must be non-empty without whitespace: 'North Macedonia'")),
    "indicator": ([(2006, "Macedonia", "", 4.0)],
                  (ValueError, "indicator must be non-empty without whitespace: ''")),
    "nan": ([(2006, "Macedonia", "NEW", float("nan"))], (ValueError, "value nan is not finite")),
    "inf": ([(2003, "Atlantis", "IS", float("-inf"))], (ValueError, "value -inf is not finite")),
    "duplicate": ([(2006, "Macedonia", "IS", 9.0)],
                  (DuplicateKeyError, "duplicate observation (2006, 'Macedonia', 'IS')")),
    # one row, several faults: the year is checked first, then the tokens,
    # then the value, then the key
    "all": ([(1989, "a b", "", float("nan"))], (ValueError, "year 1989 outside [1990, 2100]")),
    "country and indicator": ([(2006, "a b", "", float("nan"))],
                              (ValueError, "country must be non-empty without whitespace: 'a b'")),
    "indicator and value": ([(2006, "Macedonia", "x y", float("inf"))],
                            (ValueError, "indicator must be non-empty without whitespace: 'x y'")),
    "repeated nan": ([(2006, "Macedonia", "IS", float("nan"))],
                     (ValueError, "value nan is not finite")),
    # two faulty rows: the first in row order raises
    "first": ([(2006, "Macedonia", "NEW", float("inf")), (1989, "Macedonia", "IS", 4.0)],
              (ValueError, "value inf is not finite")),
}


def test_a_bad_row_raises_the_same_error_under_any_row_order():
    for case, (bad, want) in BAD.items():
        for seed in SEEDS:
            rows = _shuffled(ROWS, seed)
            # after the clean row it repeats, for a duplicate
            start = 1 + next(i for i, row in enumerate(rows) if row[:3] == (2006, "Macedonia", "IS"))
            at = sorted(Random(seed).sample(range(start, len(rows) + 1), len(bad)))
            for offset, (i, row) in enumerate(zip(at, bad)):
                rows.insert(i + offset, row)
            assert _outcome(Panel, rows) == want, (case, seed)


def test_evaluate_node_equals_compute_all_bit_for_bit():
    compared = 0
    for rows in (ROWS, _gapped(ROWS)):
        panel = Panel(rows, CLASSES)
        for name, tree in TREES.items():
            for policy in MissingPolicy:
                for year in panel.years():
                    table = _outcome(compute_all, tree, panel, year, policy)
                    if isinstance(table, tuple):
                        assert table[0] is MissingLeafError and policy is MissingPolicy.STRICT
                        continue
                    leaves = dict(panel.year_values(year))
                    for country in panel.countries(year):
                        cls = CLASSES[country]
                        for node in tree.reachable(cls):
                            want = table.get(country, node)
                            got = _outcome(evaluate_node, tree, node, cls, leaves, country, policy)
                            where = (name, policy, year, country, node)
                            if want is None:
                                assert got[0] is MissingLeafError, where
                            else:
                                assert got.hex() == want.hex(), where
                                compared += 1
    assert compared > 1000, compared


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
