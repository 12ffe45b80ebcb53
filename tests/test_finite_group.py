"""Base-group tables: builtins, validation, conjugacy classes."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classalg import (
    BudgetExceeded,
    ClassAlgError,
    FamilySpec,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    ParseError,
    UnknownBuiltin,
    builtin_group,
    load_group,
    load_group_file,
    parse_family,
)
from classalg import finite_group
from classalg.finite_group import TRIVIAL, validate_table

KLEIN = {
    "order": 4,
    "mult": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    "names": ["e", "a", "b", "ab"],
}


def test_trivial_group():
    assert TRIVIAL.order == 1
    assert TRIVIAL.identity == 0
    assert TRIVIAL.num_classes == 1
    assert TRIVIAL.names == ("e",)


@pytest.mark.parametrize("name", ["cyclic(2)", "cyclic2", "CYCLIC(2)", " cyclic( 2 ) "])
def test_builtin_spellings(name):
    F = builtin_group(name)
    assert F.order == 2
    assert F.names == ("+", "-")


def test_builtins_are_shared():
    """One group per builtin, whatever the spelling, so the caches keyed on
    a group are shared; groups loaded from tables stay distinct."""
    assert builtin_group("cyclic2") is builtin_group("cyclic(2)")
    assert builtin_group(" SYM( 3 ) ") is builtin_group("sym3")
    assert builtin_group("trivial") is TRIVIAL
    assert FamilySpec.symmetric().base is TRIVIAL
    assert parse_family("wreath:cyclic2").base is parse_family("dtype").base
    assert builtin_group("cyclic1") is not TRIVIAL
    assert load_group(KLEIN) is not load_group(KLEIN)


def test_cyclic_structure():
    F = builtin_group("cyclic(3)")
    assert F.order == 3
    assert F.mult[1][2] == 0
    assert F.inv[1] == 2
    # abelian: all classes are singletons
    assert F.num_classes == 3
    assert sorted(F.class_of) == [0, 1, 2]


def test_sym3_structure():
    F = builtin_group("sym(3)")
    assert F.order == 6
    sizes = sorted(F.class_of.count(k) for k in range(F.num_classes))
    assert sizes == [1, 2, 3]
    # class 0 is the identity's class
    assert F.class_of[F.identity] == 0 and F.class_of.count(0) == 1
    assert F.names[F.identity] == "e"
    # conjugating a transposition never leaves its class
    k = F.class_of[F.names.index("(12)")]
    transpositions = [t for t in range(6) if F.class_of[t] == k]
    for g in range(6):
        for t in transpositions:
            assert F.class_of[F.mult[F.mult[g][t]][F.inv[g]]] == F.class_of[t]


@pytest.mark.parametrize(
    "name",
    ["frobnitz", "cyclic", "sym", "sym(4)", "trivial(2)", "cyclic(13)", "cyclic(0)"],
)
def test_unknown_builtins(name):
    with pytest.raises(UnknownBuiltin):
        builtin_group(name)


def test_validate_not_closed():
    with pytest.raises(NotClosed) as exc:
        validate_table(2, [[0, 1], [1, 5]])
    assert exc.value.value == 5
    with pytest.raises(NotClosed):
        validate_table(2, [[0, True], [1, 0]])


def test_validate_not_associative():
    # subtraction mod 3 is closed but not associative
    table = [[(i - j) % 3 for j in range(3)] for i in range(3)]
    with pytest.raises(NotAssociative):
        validate_table(3, table)


def test_validate_no_identity():
    with pytest.raises(NoIdentity):
        validate_table(2, [[0, 0], [0, 0]])


def test_validate_no_inverse():
    # boolean AND: 1 is the identity, 0 has no inverse
    with pytest.raises(NoInverse) as exc:
        validate_table(2, [[0, 0], [0, 1]])
    assert exc.value.x == 0


def test_load_group_klein():
    F = load_group(KLEIN)
    assert F.order == 4
    assert F.identity == 0
    assert F.num_classes == 4
    assert F.names[3] == "ab"
    assert F.inv[2] == 2


def test_load_group_errors(monkeypatch):
    with pytest.raises(ParseError):
        load_group({"order": 2})
    with pytest.raises(ParseError):
        load_group({"order": 2, "mult": [[0, 1]]})
    with pytest.raises(ParseError):
        load_group({"order": "two", "mult": [[0]]})
    # a JSON true is not the order 1, as it is not an element index
    with pytest.raises(ParseError, match="got True"):
        load_group({"order": True, "mult": [[0]]})
    with pytest.raises(ParseError):
        load_group({"order": 1, "mult": [[0]], "names": ["a", "b"]})
    with pytest.raises(BudgetExceeded):
        load_group({"order": 25, "mult": [[0] * 25] * 25})
    big = {"order": 25, "mult": [[(i + j) % 25 for j in range(25)] for i in range(25)]}
    monkeypatch.setattr(finite_group, "DEFAULT_MAX_ORDER", 30)
    assert load_group(big).order == 25


def test_load_group_file(tmp_path):
    path = tmp_path / "klein.json"
    path.write_text(json.dumps(KLEIN))
    F = load_group_file(str(path))
    assert F.order == 4
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_group_file(str(bad))
    with pytest.raises(ParseError):
        load_group_file(str(tmp_path / "missing.json"))


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
)
# square tables with entries near the index range, some of them groups
_TABLES = st.integers(1, 3).flatmap(lambda n: st.lists(
    st.lists(st.integers(-1, n) | _JSON, min_size=n, max_size=n),
    min_size=n, max_size=n,
))
_SPECS = _JSON | st.fixed_dictionaries(
    {"order": st.integers(0, 4) | st.booleans() | _JSON, "mult": _TABLES | _JSON},
    optional={"names": st.lists(st.text(max_size=2), max_size=4) | _JSON},
)


@settings(max_examples=100, deadline=None)
@given(_SPECS)
def test_load_group_gives_a_group_or_a_classalg_error(spec):
    try:
        F = load_group(spec)
    except ClassAlgError:
        return
    assert type(F.order) is int and F.order == spec["order"]
    assert F.mult == tuple(map(tuple, spec["mult"]))


def test_default_names():
    F = load_group({"order": 2, "mult": [[0, 1], [1, 0]]})
    assert F.names == ("0", "1")


def test_identity_not_first():
    # identity at index 1; class 0 must still be the identity class
    F = load_group({"order": 2, "mult": [[1, 0], [0, 1]]})
    assert F.identity == 1
    assert F.class_of == (1, 0)  # element 1 alone in class 0
