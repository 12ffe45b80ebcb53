"""Centers of the group algebras of F wr S_l: class sums and their products.

The center at level l has the class sums as a basis, indexed by class
labels with alpha <= l.  A structure constant S(c1, c2, c; l) counts the x
in class c1 with x^-1 h in class c2, for one fixed h in class c: the
members of c1 are the cached conjugation orbit of one representative of
its label (wreath.class_members), and each is multiplied against h once,
so no level group is enumerated and no product table is built.  Grouping
the members by the label of x^-1 h gives the whole S row of (c1, c), one
count for every c2, stored by label id; center_row reads c1(l) c2(l) off
those rows as one row over the targets.  Class sizes come from the
centralizer order in closed form.  Correctness against literal class-sum
multiplication and against enumerated classes is part of the test suite.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial, perm

from .errors import LevelMismatch
from .finite_group import FiniteGroup
from .partial_algebra import AlgebraVector
from .wreath import (
    ClassLabel,
    check_budget,
    label_ids,
    labels_with_alpha_up_to,
    representative_factors,
)


def class_size(c: ClassLabel, l: int, F: FiniteGroup) -> int:
    """|c(l)|, the number of elements of F wr S_l with label c (0 if alpha > l).

    The group order |F|^l l! over the centralizer order: with m the
    multiplicity of each pair (r, k) in c padded by (1, 0) pairs to l
    points, and K_k the k-th class of F, prod m! (r |F| / |K_k|)^m.  The
    padding's factor (l - alpha)! |F|^(l - alpha) cancels, so l is never
    multiplied out.
    """
    if c.alpha > l:
        return 0
    base_class_size = Counter(F.class_of)
    centralizer = 1
    for (r, k), m in Counter(c.pairs).items():
        centralizer *= factorial(m) * (r * F.order // base_class_size[k]) ** m
    return perm(l, c.alpha) * F.order**c.alpha // centralizer


@lru_cache(maxsize=None)
def s_row(c1: ClassLabel, c: ClassLabel, l: int, F: FiniteGroup) -> tuple[int, ...]:
    """S(c1, c2, c; l) for every label c2 with alpha <= l, by label id: the
    member counts of the groups of representative_factors(c1, c, l).  The
    caller checks the budget."""
    row = [0] * len(labels_with_alpha_up_to(l, F))
    ids = label_ids(l, F)
    for c2, counts in representative_factors(c1, c, l, F).items():
        row[ids[c2]] = sum(counts.values())
    return tuple(row)


@lru_cache(maxsize=None)
def s_rows(c1: ClassLabel, l: int, F: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The s_row of c1 into every target at level l >= alpha(c1), by the
    target's label id.  The caller checks the budget."""
    return tuple(s_row(c1, c, l, F) for c in labels_with_alpha_up_to(l, F))


def center_row(
    c1: ClassLabel, c2: ClassLabel, l: int, F: FiniteGroup
) -> tuple[int, ...]:
    """c1(l) c2(l) as a row: S(c1, c2, c; l) for every target c, by label
    id; c1 and c2 must be realized at level l."""
    check_budget(F, l)
    j = label_ids(l, F)[c2]
    return tuple(row[j] for row in s_rows(c1, l, F))


def s_constant(
    c1: ClassLabel, c2: ClassLabel, c: ClassLabel, l: int, F: FiniteGroup
) -> int:
    """Coefficient of the class sum c(l) in the product c1(l) * c2(l).

    Zero whenever any of the classes is not realized at level l.
    """
    if c1.alpha > l or c2.alpha > l or c.alpha > l:
        return 0
    check_budget(F, l)
    return s_row(c1, c, l, F)[label_ids(l, F)[c2]]


def center_basis_vector(c: ClassLabel, l: int) -> AlgebraVector:
    return AlgebraVector.make(l, {c: 1})


def center_product(
    a: AlgebraVector, b: AlgebraVector, F: FiniteGroup
) -> AlgebraVector:
    """Product of center vectors at a common level l, expanded in class
    sums: the center_rows of the pairs of terms, summed, then labelled."""
    if a.level != b.level:
        raise LevelMismatch(f"levels differ: {a.level} != {b.level}")
    l = a.level
    acc: list[int] = []
    for c1, x in a.terms:
        for c2, y in b.terms:
            row = center_row(c1, c2, l, F)
            acc = [s + x * y * v for s, v in zip(acc or [0] * len(row), row)]
    # label order is the vectors' sort order
    return AlgebraVector.from_row(l, labels_with_alpha_up_to(l, F), acc)
