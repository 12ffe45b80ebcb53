"""Partial elements, their class labels, and the truncated class algebra.

A partial element is a pair (d, h): a window d (bitmask of points) and a
group element h supported inside d.  Its class under simultaneous
conjugation is labeled by omega = (l, c) where l = |d| and c is the class
label of h.  The product of class sums expands with nonnegative integer
structure constants P, which do not depend on the truncation level.

P is counted a row at a time: p_row fixes one representative h of the
target omega and counts the members x of the first class omega1 by the
label of x^-1 h and the overlap of the supports of x and x^-1 h, in which
the window pairs holding both supports are a sum of binomials; one pass
gives P(omega1, omega2, omega) for every omega2.
Rows are stored by label id, a label's position in
labels_with_alpha_up_to, so sweeps index lists instead of hashing labels.
The product kernel, product_rows, reads e[omega1] e[omega2] off the P
rows as one row per level, so a truncation is a slice of it; ik_product
converts sparse vectors around it.  No level group is enumerated and no
product table is built; enumerating partial elements and multiplying them
pairwise is left to classalg.oracles.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from math import comb

from .errors import InvalidLabel, LevelMismatch, ParseError, parse_int
from .finite_group import FiniteGroup
from .wreath import (
    ClassLabel,
    GroupElement,
    check_budget,
    code_class,
    element_str,
    encode,
    label_ids,
    labels_with_alpha_up_to,
    mask_str,
    representative_factors,
)


class PartialElement(namedtuple("PartialElement", "d h")):
    """A window d together with an element h of F wr S_n, support(h) within d."""

    __slots__ = ()

    def sort_key(self):
        return (bin(self.d).count("1"), self.d, self.h.sort_key())


def partial_element(d: int, h: GroupElement, F: FiniteGroup) -> PartialElement:
    """Validated constructor: d must fit the level and contain support(h)."""
    if d < 0 or d >> h.n:
        raise InvalidLabel(f"window {mask_str(d)} does not fit level {h.n}")
    sup = code_class(encode(h, F), F)[1]
    if sup & ~d:
        raise InvalidLabel(
            f"support {mask_str(sup)} not inside window {mask_str(d)}"
        )
    return PartialElement(d, h)


def partial_str(p: PartialElement, F: FiniteGroup) -> str:
    return f"({mask_str(p.d)}, {element_str(p.h, F)})"


class OmegaLabel(namedtuple("OmegaLabel", "l c")):
    """Class label (l, c) of a partial element: window size and element class."""

    __slots__ = ()

    def __new__(cls, l: int, c: ClassLabel) -> "OmegaLabel":
        if l < 0 or c.alpha > l:
            raise InvalidLabel(
                f"label needs alpha={c.alpha} points but window size is {l}"
            )
        return tuple.__new__(cls, (l, c))

    def sort_key(self):
        return (self.l, self.c.sort_key())

    def display(self, F: FiniteGroup) -> str:
        return f"{self.l}:{self.c.display(F)}"

    @staticmethod
    def parse(text: str, F: FiniteGroup) -> "OmegaLabel":
        s = re.sub(r"\s+", "", text)
        m = re.fullmatch(r"(\d+):(\[.*\])", s)
        if not m:
            raise ParseError(f"expected 'l:[...]', got {text!r}")
        c = ClassLabel.parse(m.group(2), F)
        try:
            return OmegaLabel(parse_int(m.group(1), "window size"), c)
        except InvalidLabel as exc:
            raise ParseError(f"invalid label {text!r}: {exc}") from None


class AlgebraVector(namedtuple("AlgebraVector", "level terms")):
    """Immutable sparse integer vector over class labels.

    level is the truncation level N for vectors keyed by OmegaLabel, or the
    group level l for center vectors keyed by ClassLabel.  terms hold only
    nonzero coefficients, sorted by the key's sort_key.
    """

    __slots__ = ()

    @classmethod
    def make(cls, level: int, coeffs: dict) -> "AlgebraVector":
        for key in coeffs:
            need = key.l if isinstance(key, OmegaLabel) else key.alpha
            if need > level:
                raise InvalidLabel(
                    f"label needs level >= {need}, vector level is {level}"
                )
        terms = tuple(
            (k, v)
            for k, v in sorted(coeffs.items(), key=lambda kv: kv[0].sort_key())
            if v != 0
        )
        return cls(level, terms)

    @classmethod
    def from_row(cls, level: int, keys, row) -> "AlgebraVector":
        """The vector with coefficient row[i] on keys[i], keys in sort order."""
        return cls(level, tuple((k, v) for k, v in zip(keys, row) if v))

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def display(self, F: FiniteGroup) -> str:
        if not self.terms:
            return "0"
        bits = []
        for k, v in self.terms:
            name = f"e[{k.display(F)}]"
            if v == 1:
                bits.append(f"+ {name}")
            elif v == -1:
                bits.append(f"- {name}")
            elif v < 0:
                bits.append(f"- {-v}*{name}")
            else:
                bits.append(f"+ {v}*{name}")
        text = " ".join(bits)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def basis_vector(omega: OmegaLabel, N: int) -> AlgebraVector:
    return AlgebraVector.make(N, {omega: 1})


@lru_cache(maxsize=None)
def level_omegas(l: int, F: FiniteGroup) -> tuple[OmegaLabel, ...]:
    """(l, c) for every label c with alpha <= l, by label id."""
    return tuple(OmegaLabel(l, c) for c in labels_with_alpha_up_to(l, F))


def truncation_basis(N: int, F: FiniteGroup) -> list[OmegaLabel]:
    """All class labels alive at truncation level N, in canonical order."""
    return [w for l in range(N + 1) for w in level_omegas(l, F)]


def vector_rows(a: AlgebraVector, F: FiniteGroup) -> list[list[int]]:
    """The coefficients of a truncated vector as one row per level
    l <= a.level, indexed by label id."""
    rows = [[0] * len(level_omegas(l, F)) for l in range(a.level + 1)]
    for w, v in a.terms:
        rows[w.l][label_ids(w.l, F)[w.c]] = v
    return rows


def project(a: AlgebraVector, new_level: int) -> AlgebraVector:
    """Truncation projection: drop every term with window size above new_level."""
    if new_level > a.level:
        raise LevelMismatch(
            f"cannot project from level {a.level} up to {new_level}"
        )
    # a sorted vector stays sorted when terms are dropped
    return AlgebraVector(
        new_level, tuple(t for t in a.terms if t[0].l <= new_level)
    )


@lru_cache(maxsize=None)
def window_pairs(l: int, l1: int, l2: int, a: int, b: int, t: int) -> int:
    """The pairs of windows of sizes l1 and l2 joining to {1..l} that hold
    an a-set and a b-set meeting in t points.  The r = l - l1 points
    outside the first window take i of the b - t points only in the b-set
    and r - i of the f points in neither; the second window holds those and
    the b-set, nb = r + b - i points, and l2 - nb of the other l - nb."""
    r, f = l - l1, l - a - b + t
    return sum(
        comb(b - t, i) * comb(f, r - i) * comb(l - nb, l2 - nb)
        for i in range(min(b - t, r) + 1) if (nb := r + b - i) <= l2
    )


@lru_cache(maxsize=None)
def p_row(
    o1: OmegaLabel, o: OmegaLabel, F: FiniteGroup
) -> tuple[tuple[int, ...], ...]:
    """P(o1, (l2, c2), o) for every second class, as row[id of c2][l2] for
    each label c2 with alpha <= o.l and each l2 <= o.l: the members x of
    o1.c with x^-1 h in c2, each weighted by window_pairs at the overlap of
    support(x) and support(x^-1 h) that representative_factors counts them
    by.  The caller checks the budget."""
    l, l1, a = o.l, o1.l, o1.c.alpha
    row = [(0,) * (l + 1)] * len(labels_with_alpha_up_to(l, F))
    ids = label_ids(l, F)
    for c2, counts in representative_factors(o1.c, o.c, l, F).items():
        row[ids[c2]] = tuple(
            sum(n * window_pairs(l, l1, l2, a, c2.alpha, t) for t, n in counts.items())
            for l2 in range(l + 1)
        )
    return tuple(row)


@lru_cache(maxsize=None)
def p_rows(
    o1: OmegaLabel, l: int, F: FiniteGroup
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The p_row of o1 into every target at level l >= o1.l, by the
    target's label id.  The caller checks the budget."""
    return tuple(p_row(o1, o, F) for o in level_omegas(l, F))


def p_constant(
    o1: OmegaLabel, o2: OmegaLabel, o: OmegaLabel, F: FiniteGroup
) -> int:
    """Number of factorizations of a fixed representative of class o as a
    product from classes o1 and o2 with windows joining to the window of o.

    Zero unless max(l1, l2) <= l <= l1 + l2.
    """
    if not max(o1.l, o2.l) <= o.l <= o1.l + o2.l:
        return 0
    check_budget(F, o.l)
    return p_row(o1, o, F)[label_ids(o.l, F)[o2.c]][o2.l]


def product_rows(
    w1: OmegaLabel, w2: OmegaLabel, n: int, F: FiniteGroup
) -> tuple[tuple[int, ...], ...]:
    """e[w1] e[w2] in the truncation at level n as rows[l][id of c] =
    P(w1, w2, (l, c)) for l <= n, read off p_rows(w1, l); only levels
    max(l1, l2)..l1 + l2 can be nonzero, and the budget is checked there."""
    j, l2 = label_ids(w2.l, F)[w2.c], w2.l
    live = range(max(w1.l, l2), min(n, w1.l + l2) + 1)
    for l in live:
        check_budget(F, l)
    return tuple(
        tuple(row[j][l2] for row in p_rows(w1, l, F)) if l in live
        else (0,) * len(level_omegas(l, F))
        for l in range(n + 1)
    )


def ik_product(
    a: AlgebraVector, b: AlgebraVector, F: FiniteGroup
) -> AlgebraVector:
    """Product in the truncated class algebra at level N = a.level: the
    product_rows of the pairs of terms, summed."""
    if a.level != b.level:
        raise LevelMismatch(f"levels differ: {a.level} != {b.level}")
    N = a.level
    acc = [[0] * len(level_omegas(l, F)) for l in range(N + 1)]
    for w1, x in a.terms:
        for w2, y in b.terms:
            for l, row in enumerate(product_rows(w1, w2, N, F)):
                acc[l] = [s + x * y * v for s, v in zip(acc[l], row)]
    # label order within a level is the vectors' sort order
    return AlgebraVector.from_row(
        N, truncation_basis(N, F), [v for row in acc for v in row]
    )
