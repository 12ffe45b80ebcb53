"""Wreath-product elements, class labels, and the orbit oracles."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classalg.wreath as wreath_mod
from classalg import (
    BudgetExceeded,
    ClassLabel,
    GroupElement,
    InvalidLabel,
    LevelMismatch,
    ParseError,
    WrongBaseGroup,
    builtin_group,
    class_label_representative,
    class_members,
    element_budget,
    element_str,
    enumerate_elements,
    labels_with_alpha_up_to,
    level_group,
)
from classalg.finite_group import TRIVIAL, orbit_partition
from classalg.oracles import (
    class_label,
    conjugate,
    conjugation_orbits,
    d_type_membership,
    factor_supports_oracle,
    identity_element,
    inverse,
    level_views,
    multiply,
    support,
)
from classalg.wreath import (
    apply_perm_to_mask,
    check_budget,
    code_class,
    code_inverse,
    compose,
    decode,
    encode,
    generating_set,
    inverse_label,
    mask_points,
    mask_str,
    representative_factors,
)
from user_groups import ALTERNATING4, DIHEDRAL8, QUATERNION, SYM3_SHIFTED

Z2 = builtin_group("cyclic2")
Z3 = builtin_group("cyclic3")
S3F = builtin_group("sym3")


def elements_strategy(F, n):
    return st.builds(
        GroupElement,
        st.just(n),
        st.permutations(tuple(range(n))).map(tuple),
        st.tuples(*(st.integers(0, F.order - 1) for _ in range(n))),
    )


# --- product convention, frozen ---

def test_multiplication_example():
    a = GroupElement(2, (1, 0), (1, 0))  # (12; -,+)
    assert multiply(a, a, Z2) == GroupElement(2, (0, 1), (1, 1))  # (e; -,-)


def test_permutation_composition_applies_right_factor_first():
    a = GroupElement(3, (1, 0, 2), (0, 0, 0))  # (12)
    b = GroupElement(3, (0, 2, 1), (0, 0, 0))  # (23)
    ab = multiply(a, b, TRIVIAL)
    # (12)(23) maps 1->2, 2->3, 3->1
    assert ab.perm == (1, 2, 0)


def test_identity_and_inverse():
    e = identity_element(Z2, 3)
    a = GroupElement(3, (2, 0, 1), (1, 0, 1))
    assert multiply(a, e, Z2) == a == multiply(e, a, Z2)
    assert multiply(a, inverse(a, Z2), Z2) == e
    assert multiply(inverse(a, Z2), a, Z2) == e


def test_level_mismatch():
    with pytest.raises(LevelMismatch):
        multiply(identity_element(Z2, 2), identity_element(Z2, 3), Z2)


@pytest.mark.parametrize("F,n", [(TRIVIAL, 4), (Z2, 3), (S3F, 2)])
def test_hypothesis_group_laws(F, n):
    @settings(max_examples=60, deadline=None)
    @given(
        x=elements_strategy(F, n),
        y=elements_strategy(F, n),
        z=elements_strategy(F, n),
    )
    def run(x, y, z):
        assert multiply(multiply(x, y, F), z, F) == multiply(x, multiply(y, z, F), F)
        assert multiply(x, inverse(x, F), F) == identity_element(F, n)
        xy = multiply(x, y, F)
        assert support(xy, F) & ~(support(x, F) | support(y, F)) == 0
        assert class_label(conjugate(x, y, F), F) == class_label(y, F)
        assert support(conjugate(x, y, F), F) == apply_perm_to_mask(
            x.perm, support(y, F)
        )

    run()


@pytest.mark.parametrize("F,n", [(TRIVIAL, 5), (Z2, 3), (S3F, 2)])
def test_random_associativity_thousand_triples(F, n):
    rng = random.Random(12345)

    def rand_el():
        perm = list(range(n))
        rng.shuffle(perm)
        return GroupElement(
            n, tuple(perm), tuple(rng.randrange(F.order) for _ in range(n))
        )

    for _ in range(1000):
        x, y, z = rand_el(), rand_el(), rand_el()
        assert multiply(multiply(x, y, F), z, F) == multiply(x, multiply(y, z, F), F)


# --- the encoding as a permutation of n |F| points ---

_CODE_BASES = {
    "trivial": TRIVIAL, "cyclic2": Z2, "cyclic3": Z3, "sym3": S3F,
    "sym3-shifted": SYM3_SHIFTED, "dihedral8": DIHEDRAL8,
    "quaternion": QUATERNION,
}


def test_encoding_example():
    # (12; -,+) over cyclic(2): (1, f) -> (2, f), (2, f) -> (1, -f)
    a = GroupElement(2, (1, 0), (1, 0))
    assert encode(a, Z2) == (2, 3, 1, 0)
    assert encode(identity_element(SYM3_SHIFTED, 2), SYM3_SHIFTED) == tuple(range(12))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), F=st.sampled_from(list(_CODE_BASES.values())),
       n=st.integers(0, 4))
def test_encoding_matches_element_arithmetic(data, F, n):
    """Products, inverses, labels and supports read from codes agree with
    the GroupElement arithmetic, and decode undoes encode."""
    x, y = data.draw(elements_strategy(F, n)), data.draw(elements_strategy(F, n))
    cx, cy = encode(x, F), encode(y, F)
    assert sorted(cx) == list(range(n * F.order))
    assert decode(cx, F) == x
    assert compose(cx, cy) == encode(multiply(x, y, F), F)
    assert code_inverse(cx) == encode(inverse(x, F), F)
    assert code_class(cx, F) == (class_label(x, F), support(x, F))


@pytest.mark.parametrize(
    "F", [*_CODE_BASES.values(), ALTERNATING4], ids=[*_CODE_BASES, "alternating4"]
)
def test_generating_set_encodes_the_generators(F):
    """generating_set builds its codes directly: they are the codes of
    (1 2), the n-cycle and each non-identity f on point 1, and of their
    inverses."""
    for n in range(5):
        e = identity_element(F, n)
        gens = []
        if n >= 2:
            gens.append(GroupElement(n, (1, 0) + e.perm[2:], e.deco))
            gens.append(GroupElement(n, e.perm[1:] + (0,), e.deco))
        if n >= 1:
            gens += [
                GroupElement(n, e.perm, (f,) + e.deco[1:])
                for f in range(F.order) if f != F.identity
            ]
        assert generating_set(F, n) == tuple(
            (encode(g, F), encode(inverse(g, F), F)) for g in gens
        ), n


def _overlap_counts(c1, c, l, F):
    """factor_supports_oracle for the representative of c at level l, each
    member's pair of supports reduced to their overlap."""
    mask = (1 << l) - 1
    h = class_label_representative(c, F, l)
    return {
        lab: dict(Counter((p & mask & p >> l).bit_count() for p in v))
        for lab, v in factor_supports_oracle(c1, h, F).items()
    }


_GROUPING_CASES = [
    (name, F, n) for name, F in _CODE_BASES.items() for n in range(4)
]


@pytest.mark.parametrize(
    "name,F,n", _GROUPING_CASES, ids=[f"{name}-{n}" for name, _, n in _GROUPING_CASES]
)
def test_factor_supports_match_reference(name, F, n):
    """The grouping made from codes, counted over the inverse of the first
    class or read transposed from the row of the target's class, equals the
    GroupElement reference over the enumerated class, each member's pair of
    supports reduced to their overlap, for every first class and target at
    level n."""
    labels = labels_with_alpha_up_to(n, F)
    for c in labels:
        for c1 in labels:
            want = _overlap_counts(c1, c, n, F)
            assert representative_factors(c1, c, n, F) == want, (c1, c)


# the bases of user_groups, given as multiplication tables
_USER_BASES = {
    "sym3-shifted": SYM3_SHIFTED, "dihedral8": DIHEDRAL8,
    "quaternion": QUATERNION, "alternating4": ALTERNATING4,
}


def _row_sides(F, l):
    """The (c1, c) pairs at level l whose row is counted from the members
    of inverse_label(c1), and those read transposed from the row of
    (c, c1): (|c1(l)|, c1) after (|c(l)|, c), by size and then sort_key."""
    labels = labels_with_alpha_up_to(l, F)
    order = {c: (wreath_mod.class_size(c, l, F), c.sort_key()) for c in labels}
    counted = [(c1, c) for c1 in labels for c in labels if order[c1] <= order[c]]
    transposed = [(c1, c) for c1 in labels for c in labels if order[c] < order[c1]]
    return counted, transposed


@pytest.mark.parametrize("name", sorted(_USER_BASES))
@settings(max_examples=12, deadline=None)
@given(data=st.data(), l=st.integers(2, 3))
def test_representative_factors_from_either_class(name, data, l):
    """A row counted from the members of inverse_label(c1) and one read
    transposed from the row of (c, c1) and scaled by |c1(l)| / |c(l)| both
    equal the reference grouping; a scaling that leaves a remainder raises
    instead of rounding."""
    F = _USER_BASES[name]
    for c1, c in (data.draw(st.sampled_from(pairs)) for pairs in _row_sides(F, l)):
        assert representative_factors(c1, c, l, F) == _overlap_counts(c1, c, l, F)
    # c's class above every count and c1's one larger, so the row is read
    # transposed and k (big + 1) / big leaves k for every count k
    big = 10**9
    with pytest.MonkeyPatch.context() as m:
        m.setattr(wreath_mod, "class_size", lambda c2, *_: big if c2 == c else big + 1)
        with pytest.raises(ArithmeticError, match="is not a multiple of"):
            representative_factors.__wrapped__(c1, c, l, F)


@pytest.mark.parametrize(
    "F,l", [(TRIVIAL, 6), (TRIVIAL, 7), (Z2, 5), (Z3, 4)],
    ids=["sym-6", "sym-7", "cyclic2-5", "cyclic3-4"],
)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_representative_factors_sampled_above_exhaustive_levels(F, l, data):
    """Rows drawn from both sides, counted and read transposed, as in
    test_representative_factors_from_either_class, equal the reference
    grouping at levels test_factor_supports_match_reference does not
    enumerate: the overlap read from x^-1 h alone, at more points outside
    the support of h, and over cyclic3, whose classes are not all their own
    inverses, the transposed label inverse_label(c2)."""
    for c1, c in (data.draw(st.sampled_from(pairs)) for pairs in _row_sides(F, l)):
        assert representative_factors(c1, c, l, F) == _overlap_counts(c1, c, l, F), (c1, c)


# --- support ---

def test_support_counts_moved_and_decorated_points():
    a = GroupElement(4, (1, 0, 2, 3), (0, 0, 1, 0))
    assert support(a, Z2) == 0b0111
    assert support(identity_element(Z2, 4), Z2) == 0
    assert mask_str(0b0101) == "{1,3}"
    assert mask_points(0b1010) == (1, 3)


# --- class labels ---

def test_class_label_examples():
    assert class_label(GroupElement(2, (1, 0), (1, 0)), Z2) == ClassLabel(((2, 1),))
    assert class_label(GroupElement(2, (1, 0), (0, 0)), Z2) == ClassLabel(((2, 0),))
    # (-)(-) along a 2-cycle multiplies to +
    assert class_label(GroupElement(2, (1, 0), (1, 1)), Z2) == ClassLabel(((2, 0),))
    five = GroupElement(5, (1, 2, 0, 4, 3), (0,) * 5)
    assert class_label(five, TRIVIAL) == ClassLabel(((3, 0), (2, 0)))
    assert class_label(identity_element(S3F, 3), S3F) == ClassLabel(())


def test_class_label_canonical_pair_order():
    c = ClassLabel.from_pairs([(2, 1), (3, 0), (2, 0), (1, 1)])
    assert c.pairs == ((3, 0), (2, 0), (2, 1), (1, 1))
    assert c.alpha == 8


def test_class_label_drops_trivial_fixed_points():
    assert ClassLabel.from_pairs([(1, 0), (2, 0), (1, 0)]) == ClassLabel(((2, 0),))
    with pytest.raises(InvalidLabel):
        ClassLabel.from_pairs([(0, 1)])
    with pytest.raises(InvalidLabel):
        ClassLabel.from_pairs([(2, 5)], Z2)


def test_label_order_between_labels():
    labels = labels_with_alpha_up_to(5, TRIVIAL)
    shown = [c.display(TRIVIAL) for c in labels]
    assert shown == ["[]", "[2]", "[3]", "[2,2]", "[4]", "[3,2]", "[5]"]


@pytest.mark.parametrize(
    "text,expect",
    [
        ("[]", ()),
        ("[3,2]", ((3, 0), (2, 0))),
        ("[2,3]", ((3, 0), (2, 0))),
        ("[(2,1)]", ((2, 1),)),
        ("[ (3,0) , (1,1) ]", ((3, 0), (1, 1))),
        ("[2,1]", ((2, 0),)),
    ],
)
def test_class_label_parse(text, expect):
    assert ClassLabel.parse(text, Z2).pairs == expect


@pytest.mark.parametrize("text", ["3,2", "[3,2", "[a]", "[(2,)]", "[(2,9)]", "[()]"])
def test_class_label_parse_errors(text):
    with pytest.raises(ParseError):
        ClassLabel.parse(text, Z2)


def test_display_shorthand_only_for_trivial_base():
    c = ClassLabel.from_pairs([(3, 0), (2, 0)])
    assert c.display(TRIVIAL) == "[3,2]"
    assert c.display(Z2) == "[(3,0),(2,0)]"


def test_labels_round_trip_through_display():
    for F in (TRIVIAL, Z2, S3F):
        for c in labels_with_alpha_up_to(4, F):
            assert ClassLabel.parse(c.display(F), F) == c


def test_representative_round_trip():
    for F, n in ((TRIVIAL, 5), (Z2, 5), (S3F, 4)):
        for c in labels_with_alpha_up_to(4, F):
            if c.alpha <= n:
                rep = class_label_representative(c, F, n)
                assert class_label(rep, F) == c
    with pytest.raises(InvalidLabel):
        class_label_representative(ClassLabel(((4, 0),)), TRIVIAL, 3)


def test_label_stable_under_promotion():
    # adding fixed, undecorated points changes neither label nor support
    a = GroupElement(3, (1, 0, 2), (1, 0, 1))
    b = GroupElement(6, a.perm + (3, 4, 5), a.deco + (Z2.identity,) * 3)
    assert class_label(b, Z2) == class_label(a, Z2)
    assert support(b, Z2) == support(a, Z2)


# --- enumeration and label completeness ---

def test_enumeration_counts_and_order():
    assert level_group(TRIVIAL, 3).order == 6
    assert level_group(Z2, 3).order == 48
    els = list(enumerate_elements(Z2, 2))
    assert len(els) == 8
    assert els[0] == identity_element(Z2, 2)
    assert els == sorted(els, key=GroupElement.sort_key)
    with pytest.raises(BudgetExceeded):
        list(enumerate_elements(TRIVIAL, 12))
    with pytest.raises(BudgetExceeded), element_budget(10):
        level_group(TRIVIAL, 4)


def test_element_budget_is_scoped():
    """The limit holds inside the block only: it is restored on exit and
    when the block raises, and an inner block overrides an outer one."""
    level_group(TRIVIAL, 4)
    with element_budget(30):
        level_group(TRIVIAL, 4)
        with element_budget(10):
            with pytest.raises(BudgetExceeded, match="budget is 10$"):
                level_group(TRIVIAL, 4)
        level_group(TRIVIAL, 4)
        with pytest.raises(BudgetExceeded, match="budget is 30$"):
            level_group(TRIVIAL, 5)
    with pytest.raises(KeyError), element_budget(10):
        raise KeyError
    level_group(TRIVIAL, 4)
    with pytest.raises(BudgetExceeded, match="budget is 10000000$"):
        level_group(TRIVIAL, 11)


def test_check_budget_caches_passes_only():
    """A level within the budget is checked once per limit; one over it
    raises, with the same message, every time."""
    wreath_mod._check_level.cache_clear()
    for _ in range(3):
        check_budget(Z2, 4)
        with element_budget(383), pytest.raises(
            BudgetExceeded,
            match="^level 4 over base of order 2 has 384 elements, budget is 383$",
        ):
            check_budget(Z2, 4)
    info = wreath_mod._check_level.cache_info()
    assert (info.hits, info.misses, info.currsize) == (2, 4, 1)


@pytest.mark.parametrize(
    "F,n",
    [
        (TRIVIAL, 1), (TRIVIAL, 2), (TRIVIAL, 3), (TRIVIAL, 4), (TRIVIAL, 5),
        (Z2, 1), (Z2, 2), (Z2, 3), (Z2, 4),
        (Z3, 2), (Z3, 3),
        (S3F, 2), (S3F, 3),
    ],
)
def test_labels_are_complete_invariant(F, n):
    """The fibers of code_class coincide with brute-force conjugation orbits."""
    fibers: dict = {}
    for i, code in enumerate(level_group(F, n).codes):
        fibers.setdefault(code_class(code, F)[0], set()).add(i)
    orbits = {frozenset(o) for o in conjugation_orbits(F, n)}
    assert orbits == {frozenset(ids) for ids in fibers.values()}


@pytest.mark.parametrize(
    "F,n", [(TRIVIAL, n) for n in range(5)] + [(Z2, n) for n in range(4)]
)
def test_generator_orbits_match_all_element_orbits(F, n):
    """conjugation_orbits closes under a generating set; closing under
    every element of the group gives the same partition."""
    G = level_group(F, n)
    orbit_of = orbit_partition(
        range(G.order), lambda y: [G.conj(g, y) for g in range(G.order)]
    )
    by_all: dict = {}
    for x in range(G.order):
        by_all.setdefault(orbit_of[x], set()).add(x)
    by_gens = {frozenset(o) for o in conjugation_orbits(F, n)}
    assert by_gens == {frozenset(o) for o in by_all.values()}


_MEMBER_BASES = {
    "sym": (TRIVIAL, 6), "cyclic2": (Z2, 4), "cyclic3": (Z3, 3), "sym3": (S3F, 3),
    "sym3-shifted": (SYM3_SHIFTED, 3), "dihedral8": (DIHEDRAL8, 3),
    "quaternion": (QUATERNION, 3), "alternating4": (ALTERNATING4, 2),
}
_MEMBER_CASES = [
    (name, F, n) for name, (F, top) in _MEMBER_BASES.items() for n in range(top + 1)
]


@pytest.mark.parametrize(
    "name,F,n", _MEMBER_CASES, ids=[f"{name}-{n}" for name, _, n in _MEMBER_CASES]
)
def test_class_members_match_level_group(name, F, n):
    """Members generated from a label are exactly the label's fiber in the
    enumerated level, each once."""
    G, _, _, by_label = level_views(F, n)
    for c in labels_with_alpha_up_to(n, F):
        members = [G.index[x] for x in class_members(c, F, n)]
        assert len(members) == len(set(members)), c
        assert set(members) == set(by_label[c]), c
    with pytest.raises(InvalidLabel):
        next(class_members(ClassLabel.from_pairs([(n + 2, 0)]), F, n))


@pytest.mark.parametrize(
    "name,F,n", _MEMBER_CASES, ids=[f"{name}-{n}" for name, _, n in _MEMBER_CASES]
)
def test_code_class_matches_reference_on_every_element(name, F, n):
    """code_class of every code of the level is the label and support that
    the GroupElement reference gives the element at the same index, which
    is the element the code encodes."""
    V = level_views(F, n)
    assert len(V.group.codes) == len(V.elements)
    for code, a, s in zip(V.group.codes, V.elements, V.sup):
        assert encode(a, F) == code, a
        assert code_class(code, F) == (class_label(a, F), s), a


def test_inverse_label_on_classes_that_are_not_real():
    """In A_4 the two classes of 3-cycles are inverse to each other, so a
    label and the label of its inverses differ."""
    F = ALTERNATING4
    lone = {k for k in range(F.num_classes)
            if F.class_of[F.inv[F.class_reps[k]]] != k}
    assert len(lone) == 2
    for k in lone:
        c = ClassLabel.from_pairs([(2, k), (1, k)], F)
        flipped = inverse_label(c, F)
        assert flipped != c and inverse_label(flipped, F) == c
        x = class_label_representative(c, F, 3)
        assert class_label(inverse(x, F), F) == flipped


def test_label_enumeration_matches_realized_classes():
    for F, n in ((TRIVIAL, 4), (Z2, 3), (S3F, 2)):
        by_label = level_views(F, n).by_label
        assert set(by_label) == set(labels_with_alpha_up_to(n, F))


def test_class_sizes_sum_to_group_order():
    for F, n in ((TRIVIAL, 4), (Z2, 3), (Z3, 3)):
        G, _, _, by_label = level_views(F, n)
        assert sum(len(v) for v in by_label.values()) == G.order


# --- d-type membership ---

def test_d_type_membership():
    assert d_type_membership(identity_element(Z2, 3), Z2)
    assert not d_type_membership(GroupElement(3, (0, 1, 2), (1, 0, 0)), Z2)
    assert d_type_membership(GroupElement(3, (1, 0, 2), (1, 1, 0)), Z2)
    with pytest.raises(WrongBaseGroup):
        d_type_membership(identity_element(TRIVIAL, 3), TRIVIAL)
    with pytest.raises(WrongBaseGroup):
        d_type_membership(identity_element(S3F, 2), S3F)


def test_element_display():
    a = GroupElement(3, (1, 0, 2), (1, 0, 0))
    assert element_str(a, Z2) == "((1 2); -,+,+)"
    assert element_str(identity_element(Z2, 2), Z2) == "(e; +,+)"
