"""Partial elements, omega labels, vectors, and the P structure constants."""

import copy
import pickle
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classalg import (
    AlgebraVector,
    BudgetExceeded,
    ClassLabel,
    FamilySpec,
    GroupElement,
    InvalidLabel,
    LevelMismatch,
    OmegaLabel,
    ParseError,
    PartialElement,
    admissibility_audit,
    basis_vector,
    builtin_group,
    element_budget,
    ik_product,
    p_constant,
    project,
    truncation_basis,
)
from classalg.center_algebra import center_row
from classalg.correspondence import identity_rows, phi_rows, xi_closed_form
from classalg.finite_group import TRIVIAL
from classalg.oracles import (
    _pair_count,
    center_product_oracle,
    class_label,
    enumerate_omega_class,
    enumerate_partial_elements,
    identity_element,
    level_views,
    omega_of,
    p_constant_all_representatives,
    partial_orbit_oracle,
    phi_oracle,
    pmultiply,
    product_oracle,
)
from classalg.partial_algebra import (
    product_column, product_rows, vector_rows, weigh, window_pairs,
)
from classalg.wreath import (
    class_label_representative,
    class_members,
    class_size,
    code_class,
    compose,
    encode,
    inverse_label,
    labels_with_alpha_up_to,
    representative_factors,
)
from user_groups import ALTERNATING4, DIHEDRAL8, QUATERNION, SYM3_SHIFTED

Z2 = builtin_group("cyclic2")


def CL(parts):
    return ClassLabel.from_pairs((p, 0) for p in parts)


def OM(l, parts):
    return OmegaLabel(l, CL(parts))


def label_ids(l, F):
    """The id of each label at level l: its position in labels_with_alpha_up_to."""
    return {c: i for i, c in enumerate(labels_with_alpha_up_to(l, F))}


def level_omegas(l, F):
    """(l, c) for every label c at level l, by label id."""
    return [OmegaLabel(l, c) for c in labels_with_alpha_up_to(l, F)]


# --- partial elements ---

def test_pmultiply_windows_join():
    a = PartialElement(0b011, identity_element(TRIVIAL, 3))
    b = PartialElement(0b100, identity_element(TRIVIAL, 3))
    ab = pmultiply(a, b, TRIVIAL)
    assert ab.d == 0b111
    assert ab.h == identity_element(TRIVIAL, 3)


def test_pmultiply_transpositions():
    a = PartialElement(0b011, GroupElement(3, (1, 0, 2), (0,) * 3))
    b = PartialElement(0b110, GroupElement(3, (0, 2, 1), (0,) * 3))
    ab = pmultiply(a, b, TRIVIAL)
    assert ab.d == 0b111
    assert ab.h.perm == (1, 2, 0)
    assert omega_of(a, TRIVIAL) == OM(2, [2])
    assert omega_of(PartialElement(0b111, a.h), TRIVIAL) == OM(3, [2])
    assert omega_of(ab, TRIVIAL) == OM(3, [3])


def test_pmultiply_level_mismatch():
    a = PartialElement(0, identity_element(TRIVIAL, 2))
    b = PartialElement(0, identity_element(TRIVIAL, 3))
    with pytest.raises(LevelMismatch):
        pmultiply(a, b, TRIVIAL)


def test_omega_label_validation_and_parse():
    assert OmegaLabel.parse("2:[2]", TRIVIAL) == OM(2, [2])
    assert OmegaLabel.parse(" 3 : [ 2 ] ", TRIVIAL) == OM(3, [2])
    assert OmegaLabel.parse("2:[(2,1)]", Z2) == OmegaLabel(2, ClassLabel(((2, 1),)))
    with pytest.raises(InvalidLabel):
        OmegaLabel(1, CL([2]))
    with pytest.raises(ParseError):
        OmegaLabel.parse("1:[2]", TRIVIAL)
    with pytest.raises(ParseError):
        OmegaLabel.parse("2-[2]", TRIVIAL)
    assert OM(2, [2]).display(TRIVIAL) == "2:[2]"


# digit runs on both sides of Python's 4300-digit int conversion limit
_DIGITS = st.integers(0, 12).map(str) | st.integers(4290, 4310).map(lambda k: "7" * k)
_INNER = st.lists(
    _DIGITS | st.sampled_from(list("(),: ")) | st.text(max_size=2), max_size=8
).map("".join)
_CLASS_TEXT = _INNER.map(lambda s: f"[{s}]") | _INNER


@settings(max_examples=200, deadline=None)
@given(window=_DIGITS, text=_CLASS_TEXT, F=st.sampled_from([TRIVIAL, Z2]))
def test_label_parsers_give_a_label_or_a_parse_error(window, text, F):
    """Any text, with integers too long to convert, parses to a label that
    survives a display round trip, or raises ParseError and nothing else."""
    for parse, s in ((ClassLabel.parse, text), (OmegaLabel.parse, text),
                     (OmegaLabel.parse, f"{window}:{text}")):
        try:
            label = parse(s, F)
        except ParseError:
            continue
        assert parse(label.display(F), F) == label


_H = GroupElement(3, (1, 0, 2), (0, 0, 0))


@pytest.mark.parametrize("make", [
    lambda: GroupElement(3, (1, 0, 2), (0, 0, 0)),
    lambda: CL([3, 2]),
    lambda: OM(3, [2]),
    lambda: PartialElement(0b011, _H),
    lambda: basis_vector(OM(2, [2]), 3),
    lambda: FamilySpec.symmetric(),
    lambda: admissibility_audit(FamilySpec.symmetric(), 2),
    lambda: admissibility_audit(FamilySpec.d_type(), 3).witness,
], ids=["GroupElement", "ClassLabel", "OmegaLabel", "PartialElement",
        "AlgebraVector", "FamilySpec", "AuditReport", "AuditWitness"])
def test_value_types_compare_and_hash_by_value(make):
    """Two equal constructions are equal, hash alike and count once in a
    set; a copy is equal too."""
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert copy.copy(a) == a


def test_class_label_stores_alpha():
    c = CL([3, 2])
    assert c.alpha == 5 and c.pairs == ((3, 0), (2, 0))
    assert pickle.loads(pickle.dumps(c)) == c
    assert pickle.loads(pickle.dumps(OM(5, [3, 2]))) == OM(5, [3, 2])


# --- enumeration ---

@pytest.mark.parametrize(
    "F,N,count",
    [(TRIVIAL, 2, 5), (TRIVIAL, 3, 16), (TRIVIAL, 4, 65), (Z2, 2, 13), (Z2, 3, 79)],
)
def test_partial_element_counts(F, N, count):
    pes = enumerate_partial_elements(F, N)
    assert len(pes) == count
    assert len(set(pes)) == count
    assert pes == sorted(pes, key=PartialElement.sort_key)


def test_enumerate_omega_class():
    full = 0b111
    cls = enumerate_omega_class(OM(2, [2]), full, TRIVIAL, 3)
    assert len(cls) == 3
    assert len(set(cls)) == 3
    # all members carry the right label and fit the window
    for p in cls:
        assert omega_of(p, TRIVIAL) == OM(2, [2])
    # restricting the window restricts the class
    assert len(enumerate_omega_class(OM(2, [2]), 0b011, TRIVIAL, 3)) == 1
    assert enumerate_omega_class(OM(1, []), 0b100, TRIVIAL, 3) == [
        PartialElement(0b100, identity_element(TRIVIAL, 3))
    ]


@pytest.mark.parametrize("F,N", [(TRIVIAL, 3), (TRIVIAL, 4), (Z2, 2), (Z2, 3)])
def test_omega_labels_match_orbit_oracle(F, N):
    """Omega fibers equal brute-force simultaneous-conjugation orbits."""
    pes = enumerate_partial_elements(F, N)
    fibers = {}
    for p in pes:
        fibers.setdefault(omega_of(p, F), []).append(p)
    orbit_sets = {frozenset(o) for o in partial_orbit_oracle(F, N)}
    assert {frozenset(v) for v in fibers.values()} == orbit_sets


def test_truncation_basis_matches_orbits():
    assert len(truncation_basis(3, TRIVIAL)) == len(partial_orbit_oracle(TRIVIAL, 3))
    assert len(truncation_basis(2, Z2)) == len(partial_orbit_oracle(Z2, 2))
    basis = truncation_basis(3, TRIVIAL)
    assert basis == sorted(basis, key=OmegaLabel.sort_key)


# --- algebra vectors ---

def test_vector_make_sorts_and_drops_zeros():
    v = AlgebraVector.make(3, {OM(2, [2]): 0, OM(1, []): 2, OM(3, [3]): -1})
    assert v.terms == ((OM(1, []), 2), (OM(3, [3]), -1))
    with pytest.raises(InvalidLabel):
        AlgebraVector.make(2, {OM(3, [3]): 1})


def test_vector_display():
    v = AlgebraVector.make(3, {OM(1, []): 1, OM(2, [2]): -2})
    assert v.display(TRIVIAL) == "e[1:[]] - 2*e[2:[2]]"
    assert AlgebraVector.make(3, {}).display(TRIVIAL) == "0"


def test_readme_product_display():
    """The product printed by the README's library example, and a leading
    coefficient of -1: display writes a coefficient of 1 or -1 as a bare
    sign and any other as k*."""
    w = OmegaLabel.parse("2:[2]", TRIVIAL)
    v = ik_product(basis_vector(w, 4), basis_vector(w, 4), TRIVIAL)
    assert v.display(TRIVIAL) == "e[2:[]] + 3*e[3:[3]] + 2*e[4:[2,2]]"
    v = AlgebraVector.make(2, {OM(1, []): -1, OM(2, [2]): 3})
    assert v.display(TRIVIAL) == "-e[1:[]] + 3*e[2:[2]]"


def test_readme_budget_example():
    """The README's budget example: |S_11| is over the default budget, and
    a larger one answers 462 = C(11, 5)."""
    w1, w2, w = (OmegaLabel.parse(t, TRIVIAL) for t in ("6:[]", "5:[]", "11:[]"))
    with pytest.raises(BudgetExceeded):
        p_constant(w1, w2, w, TRIVIAL)
    with element_budget(10**8):
        assert p_constant(w1, w2, w, TRIVIAL) == 462


# --- structure constants ---

def test_golden_products_trivial():
    v = ik_product(basis_vector(OM(1, []), 4), basis_vector(OM(1, []), 4), TRIVIAL)
    assert dict(v.terms) == {OM(1, []): 1, OM(2, []): 2}
    w = ik_product(basis_vector(OM(2, [2]), 4), basis_vector(OM(2, [2]), 4), TRIVIAL)
    assert dict(w.terms) == {OM(2, []): 1, OM(3, [3]): 3, OM(4, [2, 2]): 2}


def test_golden_products_signed():
    flip = OmegaLabel(1, ClassLabel(((1, 1),)))
    neg2 = OmegaLabel(2, ClassLabel(((2, 1),)))
    v = ik_product(basis_vector(flip, 3), basis_vector(flip, 3), Z2)
    assert dict(v.terms) == {
        OmegaLabel(1, ClassLabel(())): 1,
        OmegaLabel(2, ClassLabel(((1, 1), (1, 1)))): 2,
    }
    w = ik_product(basis_vector(neg2, 3), basis_vector(flip, 3), Z2)
    assert dict(w.terms) == {
        OmegaLabel(2, ClassLabel(((2, 0),))): 2,
        OmegaLabel(3, ClassLabel(((2, 1), (1, 1)))): 1,
    }


def test_p_constant_window_bounds():
    assert p_constant(OM(1, []), OM(1, []), OM(0, []), TRIVIAL) == 0
    assert p_constant(OM(1, []), OM(1, []), OM(3, [3]), TRIVIAL) == 0
    assert p_constant(OM(2, [2]), OM(2, [2]), OM(3, [3]), TRIVIAL) == 3


def test_unit_class():
    """The class of the empty partial element is the multiplicative unit."""
    u = basis_vector(OmegaLabel(0, ClassLabel(())), 3)
    for w in truncation_basis(3, TRIVIAL):
        e = basis_vector(w, 3)
        assert ik_product(u, e, TRIVIAL) == e
        assert ik_product(e, u, TRIVIAL) == e


@pytest.mark.parametrize("F,N", [(TRIVIAL, 2), (TRIVIAL, 3), (Z2, 2)])
def test_products_agree_with_pairwise_oracle(F, N):
    """Counted structure constants equal literal class-sum products."""
    basis = truncation_basis(N, F)
    for w1 in basis:
        for w2 in basis:
            direct = dict(ik_product(
                basis_vector(w1, N), basis_vector(w2, N), F
            ).terms)
            assert product_oracle(w1, w2, F, N) == direct, (w1, w2)


@pytest.mark.parametrize(
    "F,N,max_l1,max_l2",
    [(SYM3_SHIFTED, 2, 2, 2), (SYM3_SHIFTED, 3, 2, 1),
     (DIHEDRAL8, 2, 2, 2), (DIHEDRAL8, 3, 2, 1)],
    ids=["sym3-shifted-2", "sym3-shifted-3", "dihedral8-2", "dihedral8-3"],
)
def test_p_matches_pairwise_oracle_on_user_bases(F, N, max_l1, max_l2):
    """Non-abelian bases from user tables, one with element 0 not the
    identity; at level 3 the factors have windows of at most two and one
    points (products still reach all three), to keep the oracle cheap."""
    basis = truncation_basis(N, F)
    for w1 in basis:
        for w2 in basis:
            if w1.l > max_l1 or w2.l > max_l2:
                continue
            direct = {
                w: v for w in basis if (v := p_constant(w1, w2, w, F))
            }
            assert product_oracle(w1, w2, F, N) == direct, (w1, w2)


@pytest.mark.parametrize("F,N", [(TRIVIAL, 4), (Z2, 3)])
def test_p_constant_representative_independent(F, N):
    """The pair count is the same at every element of the target class."""
    basis = truncation_basis(N, F)
    for w1 in basis:
        for w2 in basis:
            for l in range(max(w1.l, w2.l), min(N, w1.l + w2.l) + 1):
                for c in {w.c for w in basis if w.l == l}:
                    w = OmegaLabel(l, c)
                    counts = p_constant_all_representatives(w1, w2, w, F)
                    assert len(set(counts)) == 1, (w1, w2, w, counts)
                    assert counts[0] == p_constant(w1, w2, w, F)


def packed_factors(c1, c, l, F):
    """The members x of c1 at level l as support(x) | support(x^-1 h) << l,
    by the label of x^-1 h, h the representative of c: the grouping of
    factor_supports_oracle, read off the class's orbit instead of the
    enumerated level."""
    hc = encode(class_label_representative(c, F, l), F)
    groups = {}
    for z in class_members(inverse_label(c1, F), F, l):
        lab, sy = code_class(compose(z, hc), F)
        groups.setdefault(lab, []).append(code_class(z, F)[1] | sy << l)
    return groups


ROW_BASES = {
    "sym": (TRIVIAL, 5),
    "cyclic2": (Z2, 4),
    "sym3": (builtin_group("sym3"), 3),
    "sym3-shifted": (SYM3_SHIFTED, 3),
    "dihedral8": (DIHEDRAL8, 3),
    "quaternion": (QUATERNION, 3),
}


@pytest.mark.parametrize(
    "F,N",
    [(F, N) for F, top in ROW_BASES.values() for N in range(top + 1)],
    ids=[f"{name}-{N}" for name, (_, top) in ROW_BASES.items()
         for N in range(top + 1)],
)
def test_p_row_matches_pair_count(F, N):
    """Every P, from p_constant and from its cell of product_column, equals
    the window-by-window pair count at the same representative, for all
    triples of labels at level N.  The count reads a grouping built here
    from class_members and code_class, the shape factor_supports_oracle
    gives without enumerating the level.  Outside max(l1, l2) <= l <= l1 +
    l2 no pair of windows fits and both must read 0; a column is read for
    every l1, l2 <= l, once per pair and level."""
    basis = truncation_basis(N, F)
    wrong = []
    columns, level = {}, None
    for o in basis:
        if o.l != level:
            # the basis is in level order: keep one level's columns
            columns, level = {}, o.l
        grouped = {}
        ids = label_ids(o.l, F)
        for i, o1 in enumerate(basis):
            factors, read = {}, columns.setdefault(i, {})
            if o1.l <= o.l:
                if o1.c not in grouped:
                    grouped[o1.c] = packed_factors(o1.c, o.c, o.l, F)
                factors = grouped[o1.c]
            for j, o2 in enumerate(basis):
                expected = 0
                if max(o1.l, o2.l) <= o.l <= o1.l + o2.l:
                    expected = _pair_count(o.l, o1, o2, factors)
                if p_constant(o1, o2, o, F) != expected:
                    wrong.append(("p_constant", o1, o2, o))
                if max(o1.l, o2.l) <= o.l:
                    if j not in read:
                        read[j] = product_column(o1, o2, o.l, F)
                    if read[j][ids[o.c]] != expected:
                        wrong.append(("product_column", o1, o2, o))
    assert not wrong, wrong[:5]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), F=st.sampled_from([DIHEDRAL8, QUATERNION]),
       N=st.integers(0, 4))
def test_p_row_matches_pair_count_random_labels(data, F, N):
    """Random triples on the non-abelian order-8 bases, up to level 4,
    against the window-by-window pair count over a packed grouping."""
    basis = truncation_basis(N, F)
    o1, o2, o = (data.draw(st.sampled_from(basis)) for _ in range(3))
    expected = 0
    if o1.c.alpha <= o.l:
        expected = _pair_count(o.l, o1, o2, packed_factors(o1.c, o.c, o.l, F))
    assert p_constant(o1, o2, o, F) == expected


@pytest.mark.parametrize(
    "F,l", [(TRIVIAL, 7), (TRIVIAL, 8), (Z2, 5), (builtin_group("cyclic3"), 4)],
    ids=["sym-7", "sym-8", "cyclic2-5", "cyclic3-4"],
)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_product_column_matches_p_constant(F, l, data):
    """The product_column of a sampled pair of labels at level l equals
    p_constant at every target, above the levels test_p_row_matches_pair_count
    enumerates.  p_constant reads one representative_factors row itself and
    shares neither factor_rows nor its indexing by label id; a pair whose
    windows cannot join to l must read 0 in every cell."""
    basis = truncation_basis(l, F)
    o1, o2 = (data.draw(st.sampled_from(basis)) for _ in range(2))
    assert product_column(o1, o2, l, F) == tuple(
        p_constant(o1, o2, o, F) for o in level_omegas(l, F)
    ), (o1, o2)


# each base up to the level whose every row a sampled column reads cheaply
PREFIX_BASES = {
    "sym": (TRIVIAL, 9),
    "cyclic2": (Z2, 6),
    "cyclic3": (builtin_group("cyclic3"), 4),
    "sym3": (builtin_group("sym3"), 4),
    "dihedral8": (DIHEDRAL8, 3),
    "quaternion": (QUATERNION, 3),
    "alternating4": (ALTERNATING4, 3),
}


@pytest.mark.parametrize("F,top", list(PREFIX_BASES.values()), ids=list(PREFIX_BASES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_product_column_matches_every_target_row(F, top, data):
    """The product_column of sampled labels (l1, c1), (l2, c2) with
    alpha(c1) + alpha(c2) < l equals the weighed representative_factors
    row of every target at l, and no target past the id prefix of
    alpha(c) <= alpha(c1) + alpha(c2) has c2 in its row: that bound is
    what lets factor_rows read the prefix alone."""
    l = data.draw(st.integers(1, top))
    labels = labels_with_alpha_up_to(l, F)
    c1, c2 = data.draw(st.sampled_from(
        [(c1, c2) for c1 in labels for c2 in labels if c1.alpha + c2.alpha < l]))
    l1, l2 = (data.draw(st.integers(c.alpha, l)) for c in (c1, c2))
    reach = len(labels_with_alpha_up_to(c1.alpha + c2.alpha, F))
    rows = [representative_factors(c1, c, l, F) for c in labels]
    assert not any(c2 in row for row in rows[reach:]), (c1, c2, l)
    assert product_column(OmegaLabel(l1, c1), OmegaLabel(l2, c2), l, F) == tuple(
        weigh(row.get(c2, {}), l, l1, l2, c1.alpha, c2.alpha) for row in rows
    ), (l1, c1, l2, c2, l)


@pytest.fixture
def targets_read(monkeypatch):
    """The target c of every representative_factors row that
    partial_algebra reads while the test runs, in order.  factor_rows lists
    the rows, so its cache is cleared on the way in and on the way out."""
    import classalg.partial_algebra as pa

    read, real = [], pa.representative_factors

    def recorded(c1, c, l, F):
        read.append(c)
        return real(c1, c, l, F)

    monkeypatch.setattr(pa, "representative_factors", recorded)
    pa.factor_rows.cache_clear()
    yield read
    monkeypatch.undo()
    pa.factor_rows.cache_clear()


@pytest.mark.parametrize("F,l,c1,c2,read,width", [
    (TRIVIAL, 12, ((2, 0),), ((2, 0),), 5, 77),
    (Z2, 8, ((2, 0),), ((1, 1),), 10, 185),
], ids=["sym-12", "cyclic2-8"])
def test_a_column_reads_only_the_targets_its_classes_reach(
    targets_read, F, l, c1, c2, read, width
):
    """A product's support lies in the union of its factors' supports, so
    center_row reads the rows of the targets with alpha(c) <= alpha(c1) +
    alpha(c2) only, an id prefix of the level: at sym 12, [2] x [2] reads
    the 5 labels on at most 4 points of the level's 77."""
    c1, c2 = ClassLabel(c1), ClassLabel(c2)
    with element_budget(10**9):
        row = center_row(c1, c2, l, F)
    reach = labels_with_alpha_up_to(c1.alpha + c2.alpha, F)
    assert (len(targets_read), len(row)) == (read, width)
    assert targets_read == list(reach)
    assert any(row) and not any(row[read:])


def test_window_pairs_match_enumeration():
    """window_pairs against every pair of windows (d1, d2) in {1..l} with
    d1 | d2 = {1..l}, d1 holding a points and d2 b points that meet in t,
    for every l <= 6 and every l1, l2, a, b, t."""
    for l in range(7):
        full = (1 << l) - 1
        for a in range(l + 1):
            for b in range(l + 1):
                for t in range(max(0, a + b - l), min(a, b) + 1):
                    sx, sy = (1 << a) - 1, ((1 << b) - 1) << (a - t)
                    pairs = Counter(
                        (d1.bit_count(), d2.bit_count())
                        for d1 in range(full + 1) if d1 & sx == sx
                        for d2 in range(full + 1)
                        if d2 & sy == sy and d1 | d2 == full
                    )
                    for l1 in range(l + 1):
                        for l2 in range(l + 1):
                            assert window_pairs(l, l1, l2, a, b, t) == \
                                pairs[l1, l2], (l, l1, l2, a, b, t)


def test_product_is_commutative():
    for F, N in ((TRIVIAL, 4), (Z2, 3)):
        basis = truncation_basis(N, F)
        for w1 in basis:
            for w2 in basis:
                a = ik_product(basis_vector(w1, N), basis_vector(w2, N), F)
                b = ik_product(basis_vector(w2, N), basis_vector(w1, N), F)
                assert a == b, (w1, w2)


def test_product_is_associative_on_basis():
    for F, N in ((TRIVIAL, 3), (Z2, 2)):
        basis = truncation_basis(N, F)
        for w1 in basis:
            e1 = basis_vector(w1, N)
            for w2 in basis:
                e2 = basis_vector(w2, N)
                for w3 in basis:
                    e3 = basis_vector(w3, N)
                    left = ik_product(ik_product(e1, e2, F), e3, F)
                    right = ik_product(e1, ik_product(e2, e3, F), F)
                    assert left == right, (w1, w2, w3)


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.integers(-3, 3), min_size=7, max_size=7),
    coeffs2=st.lists(st.integers(-3, 3), min_size=7, max_size=7),
    coeffs3=st.lists(st.integers(-3, 3), min_size=7, max_size=7),
)
def test_product_bilinear(coeffs, coeffs2, coeffs3):
    basis = truncation_basis(3, TRIVIAL)
    a = AlgebraVector.make(3, dict(zip(basis, coeffs)))
    b = AlgebraVector.make(3, dict(zip(basis, coeffs2)))
    c = AlgebraVector.make(3, dict(zip(basis, coeffs3)))

    def add(u, v):
        out = dict(u.terms)
        for k, x in v.terms:
            out[k] = out.get(k, 0) + x
        return AlgebraVector.make(3, out)

    lhs = ik_product(add(a, b), c, TRIVIAL)
    rhs = add(ik_product(a, c, TRIVIAL), ik_product(b, c, TRIVIAL))
    assert lhs == rhs


# --- projections ---

def test_project_drops_high_windows():
    v = ik_product(basis_vector(OM(2, [2]), 4), basis_vector(OM(2, [2]), 4), TRIVIAL)
    p3 = project(v, 3)
    assert dict(p3.terms) == {OM(2, []): 1, OM(3, [3]): 3}
    assert project(v, 4) == v
    assert project(project(v, 3), 2) == project(v, 2)
    with pytest.raises(LevelMismatch):
        project(p3, 4)


def test_projection_commutes_with_product():
    v4 = ik_product(basis_vector(OM(2, [2]), 4), basis_vector(OM(2, [2]), 4), TRIVIAL)
    v3 = ik_product(basis_vector(OM(2, [2]), 3), basis_vector(OM(2, [2]), 3), TRIVIAL)
    assert project(v4, 3) == v3


# every base: the builtins sym and cyclic2 and each user table
KERNEL_BASES = {
    "sym": TRIVIAL,
    "cyclic2": Z2,
    "sym3-shifted": SYM3_SHIFTED,
    "dihedral8": DIHEDRAL8,
    "quaternion": QUATERNION,
    "alternating4": ALTERNATING4,
}
# pairs whose two classes have at most this many pairs of members, so the
# pairwise oracle stays cheap; it still leaves pairs reaching level 3
ORACLE_PAIRS = 5000


def _oracle_pairs(F, N):
    size = {w: comb(N, w.l) * class_size(w.c, w.l, F)
            for w in truncation_basis(N, F)}
    return [(w1, w2) for w1 in size for w2 in size
            if size[w1] * size[w2] <= ORACLE_PAIRS]


@settings(max_examples=60, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(KERNEL_BASES)),
       N=st.integers(0, 3))
def test_row_kernels_match_oracles(data, name, N):
    """The two sides identity_rows reads at levels <= 3: its P rows, which
    are product_rows, against multiplying every pair of partial elements,
    phi_rows of the product against literally summing the image of each
    class in the product into the group algebra, and its S side against
    xi xi times literal class-sum multiplication.  The tower's slice of the
    rows to a level np <= N is checked against the product counted at np,
    which is zero when a window does not fit np."""
    F = KERNEL_BASES[name]
    w1, w2 = data.draw(st.sampled_from(_oracle_pairs(F, N)))
    sides, rows = identity_rows(w1, w2, N, F)

    def terms(rows):
        return {w: v for l, row in enumerate(rows)
                for w, v in zip(level_omegas(l, F), row) if v}

    expected = product_oracle(w1, w2, F, N)
    assert terms(rows) == expected
    np = data.draw(st.integers(0, N))
    fits = max(w1.l, w2.l) <= np
    assert terms(rows[:np + 1]) == (product_oracle(w1, w2, F, np) if fits else {})
    image = phi_rows(rows, F)
    for l in range(N + 1):
        elements = level_views(F, l).elements
        tally = [0] * len(elements)
        for w, v in expected.items():
            tally = [t + v * x for t, x in zip(tally, phi_oracle(w, l, F))]
        ids = label_ids(l, F)
        assert [image[l][ids[class_label(a, F)]] for a in elements] == tally
        x = xi_closed_form(w1.l, w1.c, l) * xi_closed_form(w2.l, w2.c, l)
        S = center_product_oracle(w1.c, w2.c, l, F) if x else {}
        assert sides[l] == tuple(
            x * S.get(c, 0) for c in labels_with_alpha_up_to(l, F)
        )


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(KERNEL_BASES)),
       N=st.integers(0, 3))
def test_block_readers_match_oracles(data, name, N):
    """product_rows and center_row, each read as P columns weighed on read,
    against multiplying every pair of partial elements and every pair of
    group elements, on sampled labels."""
    F = KERNEL_BASES[name]
    w1, w2 = data.draw(st.sampled_from(_oracle_pairs(F, N)))
    expected = product_oracle(w1, w2, F, N)
    rows = product_rows(w1, w2, N, F)
    assert {w: v for l, row in enumerate(rows)
            for w, v in zip(level_omegas(l, F), row) if v} == expected
    labels = labels_with_alpha_up_to(N, F)
    c1, c2 = data.draw(st.sampled_from([
        (c1, c2) for c1 in labels for c2 in labels
        if class_size(c1, N, F) * class_size(c2, N, F) <= ORACLE_PAIRS
    ]))
    row = center_row(c1, c2, N, F)
    assert dict((c, v) for c, v in zip(labels, row) if v) == \
        center_product_oracle(c1, c2, N, F)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(KERNEL_BASES)),
       N=st.integers(0, 3))
def test_phi_rows_of_basis_vectors_match_oracle(data, name, N):
    F = KERNEL_BASES[name]
    w = data.draw(st.sampled_from(truncation_basis(N, F)))
    image = phi_rows(vector_rows(basis_vector(w, N), F), F)
    for l in range(N + 1):
        ids = label_ids(l, F)
        assert [image[l][ids[class_label(a, F)]]
                for a in level_views(F, l).elements] == phi_oracle(w, l, F)
