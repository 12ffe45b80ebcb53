"""Centers of the group algebras of F wr S_l: class sums and their products.

The center at level l has the class sums as a basis, indexed by class
labels with alpha <= l.  A structure constant S(c1, c2, c; l) counts the x
in class c1 with x^-1 h in class c2, for one fixed h in class c: the
members of c1 are generated straight from their label and each is
multiplied against h once, so no level group is enumerated and no product
table is built.  Class sizes come from the centralizer order in closed
form.  Correctness against literal class-sum multiplication and against
enumerated classes is part of the test suite.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import factorial

from .errors import LevelMismatch
from .finite_group import FiniteGroup
from .partial_algebra import AlgebraVector
from .wreath import (
    ClassLabel,
    check_budget,
    group_order,
    labels_with_alpha_up_to,
    representative_factors,
)


def class_size(c: ClassLabel, l: int, F: FiniteGroup,
               budget: int | None = None) -> int:
    """|c(l)|, the number of elements of F wr S_l with label c (0 if alpha > l).

    The group order over the centralizer order: with m the multiplicity of
    each pair (r, k) in c padded by (1, 0) pairs to l points, and K_k the
    k-th class of F, the centralizer has prod m! (r |F| / |K_k|)^m elements.
    """
    if c.alpha > l:
        return 0
    check_budget(F, l, budget)
    base_class_size = Counter(F.class_of)
    centralizer = 1
    for (r, k), m in Counter(c.pairs + ((1, 0),) * (l - c.alpha)).items():
        centralizer *= factorial(m) * (r * F.order // base_class_size[k]) ** m
    return group_order(F, l) // centralizer


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
