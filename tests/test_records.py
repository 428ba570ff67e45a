"""The value types' record contract: construction by position or keyword,
equality only with the same type, hashing of the field tuple, the
`Name(field=value!r, ...)` repr and immutability."""

from fractions import Fraction

import pytest

from gcindex.model import IndexTree, InnovatorClass, Node, Normalization, RankTable, ScoreTable
from gcindex.ranking import RankDeltaReport
from gcindex.stats import ChiSquareResult, CorrelationResult, Decision, TrendResult
from gcindex.whatif import Scenario, WhatIfOutcome

LEAF = Node("IS")

# (type, {field: value} in field order, exact repr, hashable)
CASES = [
    (Normalization, {"min": 0.0, "max": 1.0}, "Normalization(min=0.0, max=1.0)", True),
    (Node, {"id": "TI", "edges": (("IS", Fraction(1, 2)), ("TTS", Fraction(1, 2))),
            "edges_by_class": None, "normalize": None},
     "Node(id='TI', edges=(('IS', Fraction(1, 2)), ('TTS', Fraction(1, 2))), "
     "edges_by_class=None, normalize=None)", True),
    (Node, {"id": "GCI", "edges": None,
            "edges_by_class": {InnovatorClass.CORE: (("TI", Fraction(1)),)},
            "normalize": None},
     "Node(id='GCI', edges=None, edges_by_class={<InnovatorClass.CORE: 'core'>: "
     "(('TI', Fraction(1, 1)),)}, normalize=None)", False),
    (IndexTree, {"nodes": {"IS": LEAF}, "root": "IS"},
     "IndexTree(nodes={'IS': Node(id='IS', edges=None, edges_by_class=None, normalize=None)}, "
     "root='IS')", False),
    (ScoreTable, {"year": 2006, "entries": {("Macedonia", "TI"): 3.5}},
     "ScoreTable(year=2006, entries={('Macedonia', 'TI'): 3.5})", False),
    (RankTable, {"year": 2006, "ranks": {"Macedonia": 2}, "policy": "competition"},
     "RankTable(year=2006, ranks={'Macedonia': 2}, policy='competition')", False),
    (ChiSquareResult, {"statistic": 1.5, "df": 3, "p_value": 0.68, "critical_value": 7.81,
                       "alpha": 0.05, "decision": Decision.DO_NOT_REJECT},
     "ChiSquareResult(statistic=1.5, df=3, p_value=0.68, critical_value=7.81, alpha=0.05, "
     "decision=<Decision.DO_NOT_REJECT: 'do-not-reject'>)", True),
    (TrendResult, {"slope": 0.25, "intercept": -497.0, "n": 6},
     "TrendResult(slope=0.25, intercept=-497.0, n=6)", True),
    (CorrelationResult, {"r": 0.9, "n": 6}, "CorrelationResult(r=0.9, n=6)", True),
    (Scenario, {"country": "Macedonia", "node": "TI", "override": 3.5},
     "Scenario(country='Macedonia', node='TI', override=3.5)", True),
    (WhatIfOutcome, {"country": "Macedonia", "node": "TI", "override": 3.5,
                     "baseline_gci": 3.8, "new_gci": 3.9, "baseline_rank": 8, "new_rank": 7,
                     "delta_rank": 1, "new_scores": {"TI": 3.5, "GCI": 3.9}},
     "WhatIfOutcome(country='Macedonia', node='TI', override=3.5, baseline_gci=3.8, "
     "new_gci=3.9, baseline_rank=8, new_rank=7, delta_rank=1, "
     "new_scores={'TI': 3.5, 'GCI': 3.9})", False),
    (RankDeltaReport, {"prev_year": 2005, "cur_year": 2006, "deltas": {"Macedonia": 1},
                       "prev_ranks": {"Macedonia": 8}, "cur_ranks": {"Macedonia": 7},
                       "entrants": (), "leavers": ("Serbia",)},
     "RankDeltaReport(prev_year=2005, cur_year=2006, deltas={'Macedonia': 1}, "
     "prev_ranks={'Macedonia': 8}, cur_ranks={'Macedonia': 7}, entrants=(), "
     "leavers=('Serbia',))", False),
]


@pytest.fixture(params=CASES, ids=lambda case: case[0].__name__)
def case(request):
    return request.param


def test_every_value_type_is_covered():
    assert len({cls for cls, *_ in CASES}) == 11


def test_positional_and_keyword_construction_agree(case):
    cls, fields, _, _ = case
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert {name: getattr(by_keyword, name) for name in fields} == fields


@pytest.mark.parametrize("call", [
    lambda cls, fields: cls(),
    lambda cls, fields: cls(*fields.values(), None),
    lambda cls, fields: cls(**fields, unknown=None),
    lambda cls, fields: cls(next(iter(fields.values())), **fields),
], ids=["missing", "extra", "unknown", "repeated"])
def test_bad_arguments_raise_type_error(case, call):
    cls, fields, _, _ = case
    with pytest.raises(TypeError):
        call(cls, fields)


def test_equal_only_to_same_type_with_equal_fields(case):
    cls, fields, _, _ = case
    record = cls(**fields)
    values = tuple(fields.values())
    assert record != values and values != record
    assert record.__eq__(values) is NotImplemented
    assert record != LEAF
    assert (record.__eq__(LEAF) is NotImplemented) == (cls is not Node)


def test_unequal_fields_make_unequal_records():
    assert Normalization(0.0, 1.0) != Normalization(0.0, 2.0)
    assert Scenario("Macedonia", "TI", 3.5) != Scenario("Macedonia", "GCI", 3.5)
    assert RankTable(2006, {"A": 1}) != RankTable(2006, {"A": 1}, "ingested")


def test_hash_follows_the_field_tuple(case):
    cls, fields, _, hashable = case
    first, second = cls(**fields), cls(*fields.values())
    if hashable:
        assert hash(first) == hash(second) == hash(tuple(fields.values()))
        assert len({first, second}) == 1
    else:
        with pytest.raises(TypeError):
            hash(first)


def test_repr_names_every_field(case):
    cls, fields, text, _ = case
    assert repr(cls(**fields)) == text


def test_fields_cannot_be_set_or_deleted(case):
    cls, fields, _, _ = case
    record = cls(**fields)
    for name in (next(iter(fields)), "unknown"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        delattr(record, next(iter(fields)))
    assert record == cls(**fields)


def test_defaults_are_the_class_attributes():
    assert Node("IS") == Node("IS", None, None, None)
    assert RankTable(2006, {"A": 1}).policy == "competition"


def test_kept_results_stay_outside_the_fields():
    table = ScoreTable(2006, {("B", "TI"): 4.0, ("A", "TI"): 3.5})
    text = repr(table)
    assert table.countries() == ("A", "B")
    assert repr(table) == text
    assert table == ScoreTable(2006, {("A", "TI"): 3.5, ("B", "TI"): 4.0})
