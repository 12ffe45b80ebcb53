"""Class sums in the group algebras: sizes and S structure constants."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from classalg import (
    AlgebraVector,
    ClassLabel,
    InvalidLabel,
    LevelMismatch,
    basis_vector,
    builtin_group,
    center_product,
    class_size,
    labels_with_alpha_up_to,
    level_group,
    s_constant,
)
from classalg.center_algebra import center_row
from classalg.finite_group import TRIVIAL
from classalg.oracles import center_product_oracle, level_views
from user_groups import ALTERNATING4, DIHEDRAL8, QUATERNION, SYM3_SHIFTED

Z2 = builtin_group("cyclic2")


def CL(parts):
    return ClassLabel.from_pairs((p, 0) for p in parts)


def unit(l):
    return AlgebraVector.make(l, {ClassLabel(()): 1})


def test_center_basis_counts():
    assert labels_with_alpha_up_to(0, TRIVIAL) == (ClassLabel(()),)
    assert len(labels_with_alpha_up_to(3, TRIVIAL)) == 3
    assert len(labels_with_alpha_up_to(2, Z2)) == 5
    labels = [c.display(TRIVIAL) for c in labels_with_alpha_up_to(3, TRIVIAL)]
    assert labels == ["[]", "[2]", "[3]"]


@pytest.mark.parametrize("F", [TRIVIAL, Z2], ids=["trivial", "cyclic2"])
@pytest.mark.parametrize("m", [-1, -3])
def test_center_basis_below_zero_is_empty(F, m):
    # every label has alpha >= 0, the empty label included
    assert labels_with_alpha_up_to(m, F) == ()


def test_center_basis_label_validation():
    # a class sum c(l) exists only when c fits in l points
    with pytest.raises(InvalidLabel):
        basis_vector(CL([2]), 1)
    assert dict(basis_vector(CL([2]), 3).terms) == {CL([2]): 1}


@pytest.mark.parametrize("c1,c2", [(CL([3]), CL([])), (CL([]), CL([3])),
                                   (CL([2]), CL([2, 2]))])
def test_center_row_unrealized_class_is_invalid_label(c1, c2):
    """A c1 or c2 that needs more than l points is an InvalidLabel, not a
    KeyError from the column read."""
    with pytest.raises(InvalidLabel):
        center_row(c1, c2, 2, TRIVIAL)


def test_class_sizes():
    assert class_size(CL([]), 3, TRIVIAL) == 1
    assert class_size(CL([2]), 3, TRIVIAL) == 3
    assert class_size(CL([3]), 3, TRIVIAL) == 2
    assert class_size(CL([4]), 3, TRIVIAL) == 0
    # closed form, whatever the budget: the levels are far over it
    assert class_size(CL([2]), 30, TRIVIAL) == 435
    assert class_size(CL([2]), 10**20, TRIVIAL) == comb(10**20, 2)
    assert class_size(ClassLabel.from_pairs([(1, 1)]), 10**20, Z2) == 10**20
    for F, l in ((TRIVIAL, 4), (Z2, 3)):
        total = sum(class_size(c, l, F) for c in labels_with_alpha_up_to(l, F))
        assert total == level_group(F, l).order


_SIZE_BASES = {
    "sym": (TRIVIAL, 6),
    "cyclic2": (Z2, 4),
    "cyclic3": (builtin_group("cyclic3"), 3),
    "sym3": (builtin_group("sym3"), 3),
    "sym3-shifted": (SYM3_SHIFTED, 3),
    "dihedral8": (DIHEDRAL8, 3),
    "quaternion": (QUATERNION, 3),
}


@pytest.mark.parametrize(
    "name,l",
    [(name, l) for name, (_, top) in _SIZE_BASES.items() for l in range(top + 1)],
)
def test_class_size_matches_enumeration(name, l):
    """The closed-form class size equals the size of the class in the
    enumerated level, for every label, including labels the level has no
    room for."""
    F = _SIZE_BASES[name][0]
    by_label = level_views(F, l).by_label
    for c in labels_with_alpha_up_to(l + 1, F):
        assert class_size(c, l, F) == len(by_label.get(c, ())), (c, l)


def test_s_constant_symmetric_group_example():
    # transposition class squared in the symmetric group on 3 points
    assert s_constant(CL([2]), CL([2]), CL([]), 3, TRIVIAL) == 3
    assert s_constant(CL([2]), CL([2]), CL([3]), 3, TRIVIAL) == 3
    assert s_constant(CL([2]), CL([2]), CL([2]), 3, TRIVIAL) == 0


def test_s_constant_identity_is_neutral():
    for c in labels_with_alpha_up_to(3, TRIVIAL):
        for c2 in labels_with_alpha_up_to(3, TRIVIAL):
            expected = 1 if c == c2 else 0
            assert s_constant(CL([]), c, c2, 3, TRIVIAL) == expected


def test_s_constant_absent_class_vanishes():
    assert s_constant(CL([3]), CL([2]), CL([2]), 2, TRIVIAL) == 0
    assert s_constant(CL([2]), CL([2]), CL([3]), 2, TRIVIAL) == 0


def test_s_constant_conservation():
    """Total mass: sum over c of S * |c(l)| = |c1(l)| * |c2(l)|."""
    for F, l in ((TRIVIAL, 4), (Z2, 3)):
        labels = labels_with_alpha_up_to(l, F)
        for c1 in labels:
            for c2 in labels:
                lhs = sum(
                    s_constant(c1, c2, c, l, F) * class_size(c, l, F)
                    for c in labels
                )
                assert lhs == class_size(c1, l, F) * class_size(c2, l, F)


@pytest.mark.parametrize("F,l", [(TRIVIAL, 2), (TRIVIAL, 3), (TRIVIAL, 4), (Z2, 2), (Z2, 3)])
def test_s_matches_literal_class_sum_products(F, l):
    labels = labels_with_alpha_up_to(l, F)
    for c1 in labels:
        for c2 in labels:
            oracle = center_product_oracle(c1, c2, l, F)
            direct = {
                c: s_constant(c1, c2, c, l, F)
                for c in labels
                if s_constant(c1, c2, c, l, F)
            }
            assert oracle == direct, (c1, c2)


@pytest.mark.parametrize(
    "F,l,max_alpha",
    [(SYM3_SHIFTED, 2, 2), (SYM3_SHIFTED, 3, 1),
     (DIHEDRAL8, 2, 2), (DIHEDRAL8, 3, 1),
     (ALTERNATING4, 3, 1), (QUATERNION, 3, 1)],
    ids=["sym3-shifted-2", "sym3-shifted-3", "dihedral8-2", "dihedral8-3",
         "alternating4-3", "quaternion-3"],
)
def test_s_matches_literal_products_on_user_bases(F, l, max_alpha):
    """Non-abelian bases from user tables, one with element 0 not the
    identity; at level 3 only small classes, to keep the oracle cheap."""
    labels = labels_with_alpha_up_to(l, F)
    small = labels_with_alpha_up_to(max_alpha, F)
    for c1 in small:
        for c2 in small:
            direct = {
                c: v for c in labels if (v := s_constant(c1, c2, c, l, F))
            }
            assert center_product_oracle(c1, c2, l, F) == direct, (c1, c2)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), F=st.sampled_from([DIHEDRAL8, QUATERNION]),
       l=st.integers(3, 4))
def test_s_class_equation_random_labels(data, F, l):
    """sum_c S(c1, c2, c; l) |c(l)| = |c1(l)| |c2(l)| for random c1, c2 with
    alpha <= 2 on the non-abelian order-8 bases; level 4 lies past the
    exhaustive member tests."""
    small = labels_with_alpha_up_to(2, F)
    c1, c2 = (data.draw(st.sampled_from(small)) for _ in range(2))
    lhs = sum(
        s_constant(c1, c2, c, l, F) * class_size(c, l, F)
        for c in labels_with_alpha_up_to(l, F)
    )
    assert lhs == class_size(c1, l, F) * class_size(c2, l, F)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), F=st.sampled_from([DIHEDRAL8, QUATERNION, ALTERNATING4]))
def test_s_matches_literal_products_random_labels(data, F):
    labels = labels_with_alpha_up_to(2, F)
    c1, c2, c = (data.draw(st.sampled_from(labels)) for _ in range(3))
    oracle = center_product_oracle(c1, c2, 2, F)
    assert s_constant(c1, c2, c, 2, F) == oracle.get(c, 0)


def test_center_product_vectors():
    v = center_product(
        basis_vector(CL([2]), 3), basis_vector(CL([2]), 3), TRIVIAL
    )
    assert dict(v.terms) == {CL([]): 3, CL([3]): 3}
    assert center_product(unit(3), v, TRIVIAL) == v
    with pytest.raises(LevelMismatch):
        center_product(unit(2), unit(3), TRIVIAL)


def test_center_product_commutative_and_associative():
    labels = labels_with_alpha_up_to(3, TRIVIAL)
    vecs = [basis_vector(c, 3) for c in labels]
    for a in vecs:
        for b in vecs:
            ab = center_product(a, b, TRIVIAL)
            assert ab == center_product(b, a, TRIVIAL)
            for c in vecs:
                assert center_product(ab, c, TRIVIAL) == center_product(
                    a, center_product(b, c, TRIVIAL), TRIVIAL
                )
