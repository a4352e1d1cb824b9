"""Parsing and formatting of the textual and JSON interchange forms."""

from functools import partial

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


def test_parse_group_splits_on_either_case_of_x():
    # factors split on x and X alike; an empty factor is not a cyclic group
    assert parse_group("c2 x C4") == parse_group("C4XC2") == make_group([2, 4])
    for bad in ("C4xx", "Cx", "C4X"):
        with pytest.raises(DomainError, match=f"^unrecognized group literal '{bad}' \\(expected e.g. 'C2xC4'\\)$"):
            parse_group(bad)
    with pytest.raises(DomainError, match="^invalid cyclic order 0 in group literal 'C0XC2'$"):
        parse_group("C0XC2")


def test_parse_group_reads_unicode_decimal_digits():
    # a factor's order is any run of decimal digits, as int() reads them
    assert parse_group("C\u0665") == parse_group("c\uff15") == make_group([5])
    assert parse_group("C1\u0662 x C\u0664") == make_group([12, 4])
    for bad in ("C\u00b2", "C\u2155", "C5\u00b2"):  # superscript two and a vulgar fraction are no decimals
        with pytest.raises(DomainError, match="^unrecognized group literal"):
            parse_group(bad)


def test_parse_group_keeps_one_trailing_newline_per_factor():
    assert parse_group("C5\n") == make_group([5])
    assert parse_group("C2\nxC3") == make_group([6])
    for bad in ("C5\n\n", "C\n5", "\nC5"):
        with pytest.raises(DomainError, match="^unrecognized group literal"):
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
    # the trivial group's one element has no coordinates
    g1 = make_group([])
    assert parse_subset(g1, "[()]")[0].coords == ()
    assert len(parse_sequence(g1, "[()^3]")) == 3
    for bad in ("[(0)]", "[(x)]"):
        with pytest.raises(DomainError):
            parse_subset(g1, bad)


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
    assert dict(seq.items())[g24.element(1, 0)] == 2
    assert dict(seq.items())[g24.element(0, 3)] == 1
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


def test_sequence_literal_spacing_and_unicode_digits():
    g5 = make_group([5])
    expected = Sequence.from_items(g5, [(g5.element(1), 2), (g5.element(2), 3)])
    for literal in ("[(1)^2,(2)^3]", "[ (1) ^ 2 , (2)^ 3 ]", "[(1) ^2, (2) ^\t3,]", "[(1)^\u0662, (2)^\uff13]"):
        assert parse_sequence(g5, literal) == expected, literal
    for bad in ("[(1)^]", "[(1) ^ , (2)]", "[(1)^\u00b2]", "[(1)^2 (2)]", "[(1)^2^3]", "[(1),,(2)]", "[((1))]"):
        with pytest.raises(DomainError, match="^malformed sequence literal"):
            parse_sequence(g5, bad)


def test_subset_terms_split_on_commas_and_whitespace():
    g8 = make_group([8])
    assert parse_subset(g8, "[ (1) ,, (3)\n]") == parse_subset(g8, "[(1)(3)]") == parse_subset(g8, "[(1),(3)]")
    for bad in ("[,]", "[(1);(3)]", "[((1))]", "[(1),(3]", "[(1)),(3)]"):
        with pytest.raises(DomainError, match="^malformed subset literal"):
            parse_subset(g8, bad)


def test_parsers_call_no_re_function(monkeypatch):
    import re

    from pmzs import notation

    assert not hasattr(notation, "re")
    called = []

    def record(name):
        def call(*args, **kwargs):
            called.append(name)
            raise AssertionError(f"called re.{name}")
        return call

    g24 = make_group([2, 4])
    accepted = []
    # the patch covers the parser calls only: pytest's own reporting (junit
    # XML among it) uses re once the test body returns
    with monkeypatch.context() as patch:
        for name in ("compile", "_compile", "match", "fullmatch", "search", "findall", "finditer", "sub", "subn", "split"):
            patch.setattr(re, name, record(name))
        group = parse_group(" c2 X C4\n")
        subset = parse_subset(g24, "[(1,0), (0,3)]")
        sequence = parse_sequence(g24, "[(1,0)^2, (0,3) ^ 3]")
        for parse, literal in ((parse_group, "C2+C4"), (partial(parse_subset, g24), "[(1,0)(]"),
                               (partial(parse_sequence, g24), "[(1,0)^]")):
            try:
                parse(literal)
            except DomainError:
                continue
            accepted.append(literal)
    assert called == []
    assert accepted == []
    assert group == g24
    assert len(subset) == 2
    assert len(sequence) == 5
