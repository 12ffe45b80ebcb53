"""Centers of the group algebras of F wr S_l: class sums and their products.

The center at level l has the class sums as a basis, indexed by class
labels with alpha <= l.  S(c1, c2, c; l) counts the x in class c1 with
x^-1 h in class c2, for one fixed h in class c.  The partial elements with
window {1..l} multiply as the elements of F wr S_l do, and one pair of
windows joins to {1..l} there, so S(c1, c2, c; l) = P((l, c1), (l, c2),
(l, c)): center_row reads the full-window column of the P block of
(l, c1) (partial_algebra.p_block), a tuple over the targets, and
s_constant is p_constant on full windows; S is counted nowhere else.
Class sizes come from the centralizer order in closed form
(wreath.class_size, imported here).  The tests check S against literal
class-sum products and against enumerated classes.
"""

from __future__ import annotations

from .errors import LevelMismatch
from .finite_group import FiniteGroup
from .partial_algebra import (
    AlgebraVector, OmegaLabel, level_omegas, p_block, p_constant,
)
# class_size is defined in wreath, whose representative_factors reads it,
# and is imported here for this module's callers
from .wreath import (
    ClassLabel,
    check_budget,
    class_size,
    label_ids,
    labels_with_alpha_up_to,
)


def center_row(
    c1: ClassLabel, c2: ClassLabel, l: int, F: FiniteGroup
) -> tuple[int, ...]:
    """c1(l) c2(l) as a row: S(c1, c2, c; l) for every target c, by label
    id, the cells at the full window of the P rows of (l, c1); c1 and c2
    must be realized at level l."""
    check_budget(F, l)
    ids = label_ids(l, F)
    return p_block(level_omegas(l, F)[ids[c1]], l, F)[ids[c2]][l]


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
