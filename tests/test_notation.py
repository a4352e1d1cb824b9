"""Parsing and formatting of the textual and JSON interchange forms."""

import pytest

from pmzs import DomainError, Sequence, make_group, parse_group, parse_sequence, parse_subset
from pmzs.notation import format_group, format_subset, subset_to_json


def test_parse_group():
    assert parse_group("C5") == make_group([5])
    assert parse_group("c2 x C4") == make_group([2, 4])
    assert parse_group("C2XC3") == make_group([6])
    assert parse_group("C1") == make_group([])
    assert parse_group("C1xC5") == make_group([5])


def test_parse_group_errors():
    for bad in ("C0", "", "K4", "C2+C4", "C-3"):
        with pytest.raises(DomainError):
            parse_group(bad)


def test_group_format_round_trip():
    for spec in ("C1", "C5", "C2xC4", "C2xC2xC2", "C3xC6"):
        assert format_group(parse_group(spec)) == spec


def test_parse_element():
    # an element literal is a term of a subset or sequence literal
    g = make_group([2, 4])
    assert parse_subset(g, "[(1,3)]")[0].coords == (1, 3)
    g8 = make_group([8])
    assert parse_sequence(g8, "[(3)]").support[0].coords == (3,)
    for bad in ("[(1,2)]", "[3]", "[()]", "[(x)]"):
        with pytest.raises(DomainError):
            parse_subset(g8, bad)
        with pytest.raises(DomainError):
            parse_sequence(g8, bad)


def test_parse_subset():
    g8 = make_group([8])
    subset = parse_subset(g8, "[(1),(3)]")
    assert [x.coords[0] for x in subset] == [1, 3]
    assert parse_subset(g8, "[]") == ()
    with pytest.raises(DomainError):
        parse_subset(g8, "[(1),(1)]")
    with pytest.raises(DomainError):
        parse_subset(g8, "[(1)^2]")
    with pytest.raises(DomainError):
        parse_subset(g8, "(1),(3)")


def test_parse_sequence():
    g24 = make_group([2, 4])
    seq = parse_sequence(g24, "[(1,0)^2, (0,3)]")
    assert len(seq) == 3
    assert seq.multiplicity(g24.element(1, 0)) == 2
    assert seq.multiplicity(g24.element(0, 3)) == 1
    g5 = make_group([5])
    assert len(parse_sequence(g5, "[(1)^10]")) == 10
    assert parse_sequence(g5, "[]") == Sequence.empty(g5)
    with pytest.raises(DomainError):
        parse_sequence(g5, "[(1)^0]")
    with pytest.raises(DomainError):
        parse_sequence(g5, "[(1) (2)]")


def test_sequence_literal_round_trip():
    g24 = make_group([2, 4])
    for literal in ("[(1,0)^2, (0,3)]", "[(0,1)]", "[]"):
        seq = parse_sequence(g24, literal)
        assert parse_sequence(g24, str(seq)) == seq


def test_subset_format_round_trip():
    g8 = make_group([8])
    subset = parse_subset(g8, "[(3),(1)]")
    assert format_subset(subset) == "[(1), (3)]"
    assert parse_subset(g8, format_subset(subset)) == subset


def test_json_round_trips():
    # a subset's JSON form lists its coordinates in index order
    g24 = make_group([2, 4])
    subset = parse_subset(g24, "[(0,3),(1,0)]")
    assert subset_to_json(subset) == [[0, 3], [1, 0]]
    assert tuple(g24.element(tuple(c)) for c in subset_to_json(subset)) == subset
