"""Partial elements, their class labels, and the truncated class algebra.

A partial element is a pair (d, h): a window d (bitmask of points) and a
group element h supported inside d.  Its class under simultaneous
conjugation is labeled by omega = (l, c) where l = |d| and c is the class
label of h.  The product of class sums expands with nonnegative integer
structure constants P, which do not depend on the truncation level.

P is weighed when it is read.  representative_factors counts, for one
representative h of a target class c at level l, the members x of the first
class c1 by the label of x^-1 h and by the overlap of the supports of x and
x^-1 h; weigh sums those counts against window_pairs, the pairs of windows
holding both supports, a sum of binomials.  factor_rows(c1, l) files the
rows of every target under each second class c2 in one pass, shared by
every first window size.  So e[omega1] e[omega2] at level l is one column,
P(omega1, omega2, (l, c)) over the target ids (a label's id is its position
in labels_with_alpha_up_to), which product_column weighs from the entries
filed under c2 and returns for product_rows at each level of a truncation
and for S at the full window (center_algebra.center_row).  expand turns the
rows of the pairs of terms into a sparse product, for ik_product here and
center_product there.  p_constant weighs one count of one row; at full
windows it is S.
No level group is enumerated and no product table is built; enumerating
partial elements and multiplying them pairwise is left to classalg.oracles.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache
from math import comb

from .errors import InvalidLabel, LevelMismatch, ParseError, clip, clip_int, parse_int
from .finite_group import FiniteGroup
from .wreath import (
    ClassLabel,
    check_budget,
    element_str,
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


def partial_str(p: PartialElement, F: FiniteGroup) -> str:
    return f"({mask_str(p.d)}, {element_str(p.h, F)})"


class OmegaLabel(namedtuple("OmegaLabel", "l c")):
    """Class label (l, c) of a partial element: window size and element class."""

    __slots__ = ()

    def __new__(cls, l: int, c: ClassLabel) -> "OmegaLabel":
        if l < 0 or c.alpha > l:
            raise InvalidLabel(f"label needs alpha={clip_int(c.alpha)} points "
                               f"but window size is {clip_int(l)}")
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
            raise ParseError(f"expected 'l:[...]', got {clip(text)!r}")
        c = ClassLabel.parse(m.group(2), F)
        try:
            return OmegaLabel(parse_int(m.group(1), "window size"), c)
        except InvalidLabel as exc:
            raise ParseError(f"invalid label {clip(text)!r}: {exc}") from None


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
                raise InvalidLabel(f"label needs level >= {clip_int(need)}, "
                                   f"vector level is {clip_int(level)}")
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


def basis_vector(key, level: int) -> AlgebraVector:
    """e[key] at a level; key is an OmegaLabel or a center's ClassLabel."""
    return AlgebraVector.make(level, {key: 1})


@lru_cache(maxsize=None)
def level_omegas(l: int, F: FiniteGroup) -> tuple[OmegaLabel, ...]:
    """(l, c) for every label c with alpha <= l, by label id."""
    return tuple(OmegaLabel(l, c) for c in labels_with_alpha_up_to(l, F))


@lru_cache(maxsize=None)
def zero_rows(n: int, F: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The zero row of each level l <= n, by label id."""
    return tuple((0,) * len(level_omegas(l, F)) for l in range(n + 1))


def truncation_basis(N: int, F: FiniteGroup) -> list[OmegaLabel]:
    """All class labels alive at truncation level N, in canonical order."""
    return [w for l in range(N + 1) for w in level_omegas(l, F)]


def vector_rows(a: AlgebraVector, F: FiniteGroup) -> list[list[int]]:
    """The coefficients of a truncated vector as one row per level
    l <= a.level, indexed by label id; the budget is checked at a.level
    before any label is listed."""
    check_budget(F, a.level)
    rows = [[0] * len(level_omegas(l, F)) for l in range(a.level + 1)]
    for w, v in a.terms:
        rows[w.l][label_ids(w.l, F)[w.c]] = v
    return rows


def project(a: AlgebraVector, new_level: int) -> AlgebraVector:
    """Truncation projection: drop every term with window size above new_level."""
    if new_level > a.level:
        raise LevelMismatch(f"cannot project from level {clip_int(a.level)} "
                            f"up to {clip_int(new_level)}")
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


def weigh(counts: dict[int, int], l: int, l1: int, l2: int, a: int, b: int) -> int:
    """P at window sizes l1, l2 and l from the counts by overlap t of one
    row of representative_factors: each member x weighted by the
    window_pairs that hold support(x), of a points, and support(x^-1 h),
    of b points."""
    total = 0
    for t, n in counts.items():
        total += n * window_pairs(l, l1, l2, a, b, t)
    return total


@lru_cache(maxsize=None)
def factor_rows(
    c1: ClassLabel, l: int, F: FiniteGroup
) -> dict[ClassLabel, list[tuple[int, dict[int, int]]]]:
    """For each second class c2, the (id of c, counts) of every target c at
    level l whose representative_factors(c1, c, l) row holds c2, by id of c:
    one pass over the targets, shared by every first window size.  The
    caller checks the budget."""
    rows: dict[ClassLabel, list[tuple[int, dict[int, int]]]] = {}
    for k, c in enumerate(labels_with_alpha_up_to(l, F)):
        for c2, counts in representative_factors(c1, c, l, F).items():
            rows.setdefault(c2, []).append((k, counts))
    return rows


def product_column(
    w1: OmegaLabel, w2: OmegaLabel, l: int, F: FiniteGroup
) -> tuple[int, ...]:
    """P(w1, w2, (l, c)) for every target c at level l >= max(l1, l2), by
    label id: the factor_rows of c1 at l that hold c2, each weighed when
    read.  window_pairs is 0 wherever no pair of windows fits, so every l2
    is read alike.  The caller checks the budget."""
    (l1, c1), (l2, c2) = w1, w2
    col = [0] * len(labels_with_alpha_up_to(l, F))
    for k, counts in factor_rows(c1, l, F).get(c2, ()):
        col[k] = weigh(counts, l, l1, l2, c1.alpha, c2.alpha)
    return tuple(col)


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
    counts = representative_factors(o1.c, o.c, o.l, F).get(o2.c, {})
    return weigh(counts, o.l, o1.l, o2.l, o1.c.alpha, o2.c.alpha)


def product_rows(
    w1: OmegaLabel, w2: OmegaLabel, n: int, F: FiniteGroup
) -> tuple[tuple[int, ...], ...]:
    """e[w1] e[w2] in the truncation at level n as rows[l][id of c] =
    P(w1, w2, (l, c)) for l <= n, each the product_column at l.  Only
    levels max(l1, l2)..min(n, l1 + l2) can be nonzero.  The budget is
    checked once, at n, before any row is built or any label listed: every
    level read is at most n, and |F|^l l! grows with l."""
    l1, l2 = w1.l, w2.l
    lo = l1 if l1 > l2 else l2
    hi = n if n < l1 + l2 else l1 + l2
    check_budget(F, n)
    zeros = zero_rows(n, F)
    # below both windows: no row to read, and no labels of l2 to list
    if hi < lo:
        return zeros
    return (zeros[:lo] + tuple([product_column(w1, w2, l, F) for l in range(lo, hi + 1)])
            + zeros[hi + 1:])


def expand(a: AlgebraVector, b: AlgebraVector, rows, keys) -> AlgebraVector:
    """The product of a and b at their common level: rows(k1, k2), by key
    position, of each pair of terms, scaled and summed, then labelled by
    keys(), called after every row read has checked the budget."""
    if a.level != b.level:
        raise LevelMismatch(f"levels differ: {clip_int(a.level)} != {clip_int(b.level)}")
    acc: list[int] = []
    for k1, x in a.terms:
        for k2, y in b.terms:
            row = rows(k1, k2)
            acc = [s + x * y * v for s, v in zip(acc or [0] * len(row), row)]
    return AlgebraVector.from_row(a.level, keys() if acc else (), acc)


def ik_product(
    a: AlgebraVector, b: AlgebraVector, F: FiniteGroup
) -> AlgebraVector:
    """Product in the truncated class algebra at level N = a.level: the
    expand of the product_rows of the pairs of terms, flattened, over
    truncation_basis, in the vectors' sort order within a level."""
    N = a.level
    return expand(a, b, lambda w1, w2: [v for r in product_rows(w1, w2, N, F) for v in r],
                  lambda: truncation_basis(N, F))
