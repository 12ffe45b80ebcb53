"""Centers of the group algebras of F wr S_l: class sums and their products.

The center at level l has the class sums as a basis, indexed by class
labels with alpha <= l.  S(c1, c2, c; l) counts the x in class c1 with
x^-1 h in class c2, for one fixed h in class c.  The partial elements with
window {1..l} multiply as the elements of F wr S_l do, and one pair of
windows joins to {1..l} there, so S(c1, c2, c; l) = P((l, c1), (l, c2),
(l, c)): center_row is the partial_algebra.product_column of (l, c1) and
(l, c2) at level l, s_constant is p_constant on full windows, and
center_product is the expand of center_rows; S is counted nowhere else.
Class sizes come from the centralizer order in closed form, in
wreath.class_size.  The tests check S against literal class-sum products
and against enumerated classes.
"""

from __future__ import annotations

from .finite_group import FiniteGroup
from .partial_algebra import (
    AlgebraVector, OmegaLabel, expand, p_constant, product_column,
)
# class_size is read from wreath; bench/test_bench.py still imports it from here
from .wreath import ClassLabel, check_budget, class_size, labels_with_alpha_up_to


def center_row(
    c1: ClassLabel, c2: ClassLabel, l: int, F: FiniteGroup
) -> tuple[int, ...]:
    """c1(l) c2(l) as a row: S(c1, c2, c; l) for every target c, by label
    id, the product_column of (l, c1) and (l, c2) at level l; c1 and c2
    must be realized at level l."""
    check_budget(F, l)
    return product_column(OmegaLabel(l, c1), OmegaLabel(l, c2), l, F)


def s_constant(
    c1: ClassLabel, c2: ClassLabel, c: ClassLabel, l: int, F: FiniteGroup
) -> int:
    """Coefficient of the class sum c(l) in the product c1(l) * c2(l):
    P((l, c1), (l, c2), (l, c)), in which one pair of windows holds every
    pair of supports.

    Zero whenever any of the classes is not realized at level l.
    """
    if c1.alpha > l or c2.alpha > l or c.alpha > l:
        return 0
    return p_constant(OmegaLabel(l, c1), OmegaLabel(l, c2), OmegaLabel(l, c), F)


def center_product(
    a: AlgebraVector, b: AlgebraVector, F: FiniteGroup
) -> AlgebraVector:
    """Product of center vectors at a common level l, expanded in class
    sums: the expand of the center_rows of the pairs of terms over
    labels_with_alpha_up_to, whose order is the vectors' sort order."""
    l = a.level
    return expand(a, b, lambda c1, c2: center_row(c1, c2, l, F),
                  lambda: labels_with_alpha_up_to(l, F))
