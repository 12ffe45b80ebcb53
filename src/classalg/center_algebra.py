"""Centers of the group algebras of F wr S_l: class sums and their products.

The center at level l has the class sums as a basis, indexed by class
labels with alpha <= l.  S(c1, c2, c; l) counts the x in class c1 with
x^-1 h in class c2, for one fixed h in class c.  The partial elements with
window {1..l} multiply as the elements of F wr S_l do, and one pair of
windows joins to {1..l} there, so S(c1, c2, c; l) = P((l, c1), (l, c2),
(l, c)): center_row and s_constant read those cells of the P rows
(partial_algebra.p_row), and S is counted nowhere else.  Class sizes come
from the centralizer order in closed form.  The tests check S against
literal class-sum products and against enumerated classes.
"""

from __future__ import annotations

from collections import Counter
from math import factorial, perm

from .errors import LevelMismatch
from .finite_group import FiniteGroup
from .partial_algebra import AlgebraVector, OmegaLabel, level_omegas, p_row, p_rows
from .wreath import ClassLabel, check_budget, label_ids, labels_with_alpha_up_to


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


def center_row(
    c1: ClassLabel, c2: ClassLabel, l: int, F: FiniteGroup
) -> tuple[int, ...]:
    """c1(l) c2(l) as a row: S(c1, c2, c; l) for every target c, by label
    id, the cells at the full window of the P rows of (l, c1); c1 and c2
    must be realized at level l."""
    check_budget(F, l)
    ids = label_ids(l, F)
    j = ids[c2]
    return tuple(row[j][l] for row in p_rows(level_omegas(l, F)[ids[c1]], l, F))


def s_constant(
    c1: ClassLabel, c2: ClassLabel, c: ClassLabel, l: int, F: FiniteGroup
) -> int:
    """Coefficient of the class sum c(l) in the product c1(l) * c2(l):
    P((l, c1), (l, c2), (l, c)), read from p_row.

    Zero whenever any of the classes is not realized at level l.
    """
    if c1.alpha > l or c2.alpha > l or c.alpha > l:
        return 0
    check_budget(F, l)
    return p_row(OmegaLabel(l, c1), OmegaLabel(l, c), F)[label_ids(l, F)[c2]][l]


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
