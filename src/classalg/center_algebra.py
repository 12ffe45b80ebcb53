"""Centers of the group algebras of F wr S_l: class sums and their products.

The center at level l has the class sums as a basis, indexed by class
labels with alpha <= l.  A structure constant S(c1, c2, c; l) counts the x
in class c1 with x^-1 h in class c2, for one fixed h in class c: the
members of c1 are generated straight from their label and each is
multiplied against h once, so no level group is enumerated and no product
table is built.  Correctness against literal class-sum multiplication is
part of the test suite.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import LevelMismatch
from .finite_group import FiniteGroup
from .partial_algebra import AlgebraVector
from .wreath import (
    ClassLabel,
    check_budget,
    labels_with_alpha_up_to,
    level_group,
    representative_factors,
)


def class_size(c: ClassLabel, l: int, F: FiniteGroup,
               budget: int | None = None) -> int:
    """|c(l)|, the number of elements of F wr S_l with label c (0 if alpha > l)."""
    if c.alpha > l:
        return 0
    G = level_group(F, l, budget)
    return len(G.by_label.get(c, ()))


@lru_cache(maxsize=None)
def _s_constant(
    c1: ClassLabel, c2: ClassLabel, c: ClassLabel, l: int, F: FiniteGroup
) -> int:
    # budget was checked by the caller before entering the cache
    return len(representative_factors(c1, c, l, F).get(c2, ()))


def s_constant(
    c1: ClassLabel, c2: ClassLabel, c: ClassLabel, l: int, F: FiniteGroup,
    budget: int | None = None,
) -> int:
    """Coefficient of the class sum c(l) in the product c1(l) * c2(l).

    Zero whenever any of the classes is not realized at level l.
    """
    if c1.alpha > l or c2.alpha > l or c.alpha > l:
        return 0
    check_budget(F, l, budget)
    return _s_constant(c1, c2, c, l, F)


def center_basis_vector(c: ClassLabel, l: int) -> AlgebraVector:
    return AlgebraVector.make(l, {c: 1})


def center_product(
    a: AlgebraVector, b: AlgebraVector, F: FiniteGroup,
    budget: int | None = None,
) -> AlgebraVector:
    """Product of center vectors at a common level l, expanded in class sums."""
    if a.level != b.level:
        raise LevelMismatch(f"levels differ: {a.level} != {b.level}")
    l = a.level
    out: dict[ClassLabel, int] = {}
    for c1, x in a.terms:
        for c2, y in b.terms:
            for c in labels_with_alpha_up_to(l, F):
                S = s_constant(c1, c2, c, l, F, budget)
                if S:
                    out[c] = out.get(c, 0) + x * y * S
    return AlgebraVector.make(l, out)


def center_product_oracle(
    c1: ClassLabel, c2: ClassLabel, l: int, F: FiniteGroup,
    budget: int | None = None,
) -> dict[ClassLabel, int]:
    """Literal class-sum multiplication in the group algebra at level l,
    tallied elementwise and reduced to per-class coefficients."""
    G = level_group(F, l, budget)
    ids1 = G.by_label.get(c1, ())
    ids2 = G.by_label.get(c2, ())
    tally = [0] * G.order
    for i in ids1:
        for j in ids2:
            tally[G.mul(i, j)] += 1
    out: dict[ClassLabel, int] = {}
    for lab, ids in G.by_label.items():
        vals = {tally[i] for i in ids}
        if len(vals) != 1:
            raise ArithmeticError(
                f"class-sum product is not constant on class {lab}"
            )
        v = vals.pop()
        if v:
            out[lab] = v
    return out
