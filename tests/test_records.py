"""The value classes compare, hash and validate as frozen dataclasses of the
same fields did: equal only within one class, the hash of the tuple of fields
in order, and the same validation messages.  The literal hashes were taken
from those dataclasses; a hash of ints and tuples does not depend on the
interpreter's string-hash seed."""

import pytest

from pmzs import (
    DomainError,
    Factorizer,
    Group,
    Limits,
    Sequence,
    atom_length_profile,
    char_compare,
    char_invariants,
    delta_star,
    enumerate_atoms,
    group_invariants,
    make_group,
)
from pmzs.atoms import AtomSet, LengthProfile
from pmzs.delta_star import DeltaStarReport
from pmzs.groups import GroupElement, GroupSummary
from pmzs.relations import FactorizationSet
from pmzs.suite import CharComparison, CharReport, CheckReport, SuiteResult, run_suite

C3, C2XC4 = make_group([3]), make_group([2, 4])
S = Sequence.of(C3, *[C3.element(1)] * 3, *[C3.element(2)] * 3)


def _atoms(*coords):
    return enumerate_atoms(C3, [C3.element(c) for c in coords])


def _factorizations():
    return Factorizer(_atoms(1, 2)).factorizations(S)


# class -> its fields in order, and builders of two equal records and a third
# that differs from them
CASES = {
    Limits: (
        ("max_support", "max_atom_length", "max_sweep_order", "rho_cap"),
        lambda: Limits(), lambda: Limits(8, 20, 10, 3), lambda: Limits(max_support=3),
    ),
    Group: (
        ("invariant_factors",),
        lambda: Group((2, 4)), lambda: make_group([4, 2]), lambda: Group((8,)),
    ),
    GroupElement: (
        ("group", "coords"),
        lambda: C2XC4.element(1, 3), lambda: GroupElement(C2XC4, (3, 7)), lambda: C2XC4.element(1, 2),
    ),
    GroupSummary: (
        ("group", "order", "exponent", "rank", "d_star", "m_ranks"),
        lambda: group_invariants(C2XC4), lambda: group_invariants(make_group([2, 4])), lambda: group_invariants(C3),
    ),
    AtomSet: (
        ("group", "ground", "folded", "includes_zero"),
        lambda: _atoms(1, 2), lambda: _atoms(2, 1), lambda: _atoms(1),
    ),
    LengthProfile: (
        ("max_length", "gcd_lengths_minus_2"),
        lambda: atom_length_profile(_atoms(1, 2)), lambda: LengthProfile(3, 1), lambda: LengthProfile(3, 0),
    ),
    FactorizationSet: (
        ("element", "factorizations", "lengths", "delta"),
        _factorizations, _factorizations,
        lambda: FactorizationSet(S, _factorizations().factorizations, (2, 3), ()),
    ),
    Sequence: (
        ("group", "entries"),
        lambda: S, lambda: Sequence(C3, ((2, 3), (1, 3))), lambda: Sequence.of(C3, C3.element(1)),
    ),
    DeltaStarReport: (
        ("group", "complete", "table", "delta_star", "max_delta", "witnesses", "skipped", "evaluated_only"),
        lambda: delta_star(C3), lambda: delta_star(make_group([3])), lambda: delta_star(make_group([4])),
    ),
    CheckReport: (
        ("check_id", "group", "status", "details"),
        lambda: CheckReport("x", "C3", "pass", {"a": 1}), lambda: CheckReport("x", "C3", "pass", {"a": 1}),
        lambda: CheckReport("x", "C3", "pass"),
    ),
    CharReport: (
        ("group", "order", "exponent", "davenport_group", "davenport_monoid",
         "delta_star", "max_delta_star", "has_even_delta", "complete"),
        lambda: char_invariants(C3), lambda: char_invariants(make_group([3])), lambda: char_invariants(C2XC4),
    ),
    CharComparison: (
        ("first", "second", "distinguished_by", "note"),
        lambda: char_compare(char_invariants(C3), char_invariants(C2XC4)),
        lambda: char_compare(char_invariants(make_group([3])), char_invariants(C2XC4)),
        lambda: char_compare(char_invariants(C2XC4), char_invariants(C3)),
    ),
    SuiteResult: (
        ("target", "checks", "reports"),
        lambda: run_suite("C3"), lambda: run_suite("C3"), lambda: run_suite("C4"),
    ),
}

# hash(a) of the first record of each case whose fields hold ints and tuples only
HASHES = {
    Limits: -6559397033701541568,
    Group: -2826368964500699064,
    GroupElement: -5890895715484578050,
    AtomSet: 3183520684837231566,
    LengthProfile: 8756109708711196808,
    FactorizationSet: -3576598429397947041,
    Sequence: 6019011908361679185,
}

# the records with a dict field cannot be hashed, as the dataclasses could not
UNHASHABLE = {GroupSummary, DeltaStarReport, CheckReport, SuiteResult}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_equality_and_hash_follow_the_fields(cls):
    fields, first, second, third = CASES[cls]
    a, b, c = first(), second(), third()
    assert type(a) is type(b) is type(c) is cls
    assert a == b and not a != b and a is not b
    assert a != c and not a == c
    key = tuple(getattr(a, name) for name in fields)
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(key)
        assert cls not in HASHES or hash(a) == HASHES[cls]
    # a record equals no instance of another class with the same fields
    other = type(f"{cls.__name__}Copy", (cls,), {})(*key)
    assert a.__eq__(other) is NotImplemented and other.__eq__(a) is NotImplemented
    assert a != other and not a == other
    assert a != key and a != None  # noqa: E711


def test_repr_names_the_fields():
    assert repr(Limits()) == "Limits(max_support=8, max_atom_length=20, max_sweep_order=10, rho_cap=3)"
    assert repr(LengthProfile(3, 1)) == "LengthProfile(max_length=3, gcd_lengths_minus_2=1)"
    assert repr(S) == "Sequence(group=Group([3]), entries=((1, 3), (2, 3)))"
    assert repr(C2XC4.element(1, 3)) == "C2xC4:(1,3)"


def test_defaults():
    assert CheckReport("x", "C3", "pass").details == {}
    assert DeltaStarReport(C3, True, (), (), None, {}, ()).evaluated_only is False
    assert Limits(rho_cap=5) == Limits(8, 20, 10, 5)


@pytest.mark.parametrize("name", ["max_support", "max_atom_length", "max_sweep_order", "rho_cap"])
@pytest.mark.parametrize("value", [0, -1, 1.5, 2.0, "8", None], ids=repr)
def test_limits_reject_values_below_one_and_non_integers(name, value):
    with pytest.raises(DomainError) as raised:
        Limits(**{name: value})
    assert str(raised.value) == f"limit {name!r} must be a positive integer, got {value!r}"


@pytest.mark.parametrize("factors, message", [
    ((1,), "invariant factor must be >= 2, got 1"),
    ((0,), "invariant factor must be >= 2, got 0"),
    ((4, 2), "invariant factors must form a divisibility chain, got (4, 2)"),
])
def test_group_validation(factors, message):
    with pytest.raises(DomainError) as raised:
        Group(factors)
    assert str(raised.value) == message


def test_group_and_element_normalize_their_fields():
    assert Group(("4", 8)).invariant_factors == (4, 8) and Group(()).invariant_factors == ()
    assert GroupElement(C2XC4, (5, -1)).coords == (1, 3)
    assert Sequence(C3, ((2, 1), (1, 4))).entries == ((1, 4), (2, 1))


@pytest.mark.parametrize("coords", [(1,), (1, 2, 3), ()])
def test_element_validation(coords):
    with pytest.raises(DomainError) as raised:
        GroupElement(C2XC4, coords)
    assert str(raised.value) == f"element needs 2 coordinates for C2xC4, got {len(coords)}"


@pytest.mark.parametrize("entries, message", [
    (((3, 1),), "element index 3 out of range for C3"),
    (((-1, 1),), "element index -1 out of range for C3"),
    (((1, 0),), "multiplicities must be strictly positive"),
    (((1, 1), (1, 2)), "duplicate support element in sequence entries"),
])
def test_sequence_validation(entries, message):
    with pytest.raises(DomainError) as raised:
        Sequence(C3, entries)
    assert str(raised.value) == message


# the eight records that bind their fields with the base constructor
PLAIN = [AtomSet, LengthProfile, DeltaStarReport, CharReport, CharComparison, GroupSummary, FactorizationSet,
         SuiteResult]


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_plain_records_bind_their_fields_by_position_and_name(cls):
    fields, first = CASES[cls][:2]
    a = first()
    values = tuple(getattr(a, name) for name in fields)
    assert "__init__" not in vars(cls)
    assert cls(*values) == cls(**dict(zip(fields, values))) == a
    assert cls(*values[:1], **dict(zip(fields[1:], values[1:]))) == a
    for k, name in enumerate(fields):
        if name != "evaluated_only":  # the one field with a default
            with pytest.raises(TypeError, match=f"^{cls.__name__} is missing the field {name!r}$"):
                cls(*values[:k], **dict(zip(fields[k + 1:], values[k + 1:])))
    with pytest.raises(TypeError, match=f"^{cls.__name__} got two values for the field {fields[0]!r}$"):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError, match=f"^{cls.__name__} has no field 'extra'$"):
        cls(*values, extra=1)
    with pytest.raises(TypeError, match=f"^{cls.__name__} takes {len(fields)} fields, got {len(fields) + 1} values$"):
        cls(*values, None)


def test_a_default_fills_only_its_own_field():
    values = (C3, True, (), (), None, {}, ())
    assert DeltaStarReport(*values).evaluated_only is False
    assert DeltaStarReport(*values, True).evaluated_only is True
    assert DeltaStarReport(*values, evaluated_only=True).evaluated_only is True
    with pytest.raises(TypeError, match="^DeltaStarReport is missing the field 'skipped'$"):
        DeltaStarReport(*values[:-1])
    with pytest.raises(TypeError, match="^LengthProfile is missing the field 'gcd_lengths_minus_2'$"):
        LengthProfile(3)
