"""Partial elements, their class labels, and the truncated class algebra.

A partial element is a pair (d, h): a window d (bitmask of points) and a
group element h supported inside d.  Its class under simultaneous
conjugation is labeled by omega = (l, c) where l = |d| and c is the class
label of h.  The product of class sums expands with nonnegative integer
structure constants P; p_constant computes them by direct pair counting
over a fixed representative h, window by window, against the members of
the first class generated from its label (each multiplied by h once), so
no level group is enumerated and no product table is built.  Enumerating
partial elements and multiplying them pairwise is left to classalg.oracles.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import InvalidLabel, LevelMismatch, ParseError
from .finite_group import FiniteGroup
from .wreath import (
    ClassLabel,
    GroupElement,
    check_budget,
    element_str,
    labels_with_alpha_up_to,
    mask_str,
    representative_factors,
    support,
)


@dataclass(frozen=True)
class PartialElement:
    """A window d together with an element h of F wr S_n, support(h) within d."""

    d: int
    h: GroupElement

    def sort_key(self):
        return (bin(self.d).count("1"), self.d, self.h.sort_key())


def partial_element(d: int, h: GroupElement, F: FiniteGroup) -> PartialElement:
    """Validated constructor: d must fit the level and contain support(h)."""
    if d < 0 or d >> h.n:
        raise InvalidLabel(f"window {mask_str(d)} does not fit level {h.n}")
    if support(h, F) & ~d:
        raise InvalidLabel(
            f"support {mask_str(support(h, F))} not inside window {mask_str(d)}"
        )
    return PartialElement(d, h)


def partial_str(p: PartialElement, F: FiniteGroup) -> str:
    return f"({mask_str(p.d)}, {element_str(p.h, F)})"


@dataclass(frozen=True)
class OmegaLabel:
    """Class label (l, c) of a partial element: window size and element class."""

    l: int
    c: ClassLabel

    def __post_init__(self):
        if self.l < 0 or self.c.alpha > self.l:
            raise InvalidLabel(
                f"label needs alpha={self.c.alpha} points but window size is {self.l}"
            )

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
            return OmegaLabel(int(m.group(1)), c)
        except InvalidLabel as exc:
            raise ParseError(f"invalid label {text!r}: {exc}") from None


@dataclass(frozen=True)
class AlgebraVector:
    """Immutable sparse integer vector over class labels.

    level is the truncation level N for vectors keyed by OmegaLabel, or the
    group level l for center vectors keyed by ClassLabel.  terms hold only
    nonzero coefficients, sorted by the key's sort_key.
    """

    level: int
    terms: tuple[tuple[object, int], ...]

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


def truncation_basis(N: int, F: FiniteGroup) -> list[OmegaLabel]:
    """All class labels alive at truncation level N, in canonical order."""
    return [
        OmegaLabel(l, c)
        for l in range(N + 1)
        for c in labels_with_alpha_up_to(l, F)
    ]


def project(a: AlgebraVector, new_level: int) -> AlgebraVector:
    """Truncation projection: drop every term with window size above new_level."""
    if new_level > a.level:
        raise LevelMismatch(
            f"cannot project from level {a.level} up to {new_level}"
        )
    return AlgebraVector.make(
        new_level, {k: v for k, v in a.terms if k.l <= new_level}
    )


def _pair_count(
    l: int, o1: OmegaLabel, o2: OmegaLabel,
    factors: dict[ClassLabel, tuple[int, ...]],
) -> int:
    """Factorizations of the partial element ({1..l}, h) at level l into a
    product from classes o1 and o2, where factors = factor_supports(o1.c, h).
    """
    full = (1 << l) - 1
    total = 0
    for combo in itertools.combinations(range(l), o1.l):
        d1 = 0
        for j in combo:
            d1 |= 1 << j
        rest = full & ~d1
        for packed in factors.get(o2.c, ()):
            # support(x) must lie in the first window
            if packed & rest:
                continue
            need = rest | packed >> l
            nb = bin(need).count("1")
            if nb > o2.l:
                continue
            # any window of size l'' containing `need` works; the free
            # points may sit anywhere in the l available ones
            total += comb(l - nb, o2.l - nb)
    return total


@lru_cache(maxsize=None)
def _p_constant(
    o1: OmegaLabel, o2: OmegaLabel, o: OmegaLabel, F: FiniteGroup
) -> int:
    # budget was checked by the caller before entering the cache
    return _pair_count(o.l, o1, o2, representative_factors(o1.c, o.c, o.l, F))


def p_constant(
    o1: OmegaLabel, o2: OmegaLabel, o: OmegaLabel, F: FiniteGroup,
    budget: int | None = None,
) -> int:
    """Number of factorizations of a fixed representative of class o as a
    product from classes o1 and o2 with windows joining to the window of o.

    Zero unless max(l1, l2) <= l <= l1 + l2.
    """
    if not max(o1.l, o2.l) <= o.l <= o1.l + o2.l:
        return 0
    check_budget(F, o.l, budget)
    return _p_constant(o1, o2, o, F)


def ik_product(
    a: AlgebraVector, b: AlgebraVector, F: FiniteGroup,
    budget: int | None = None,
) -> AlgebraVector:
    """Product in the truncated class algebra at level N = a.level."""
    if a.level != b.level:
        raise LevelMismatch(f"levels differ: {a.level} != {b.level}")
    N = a.level
    out: dict[OmegaLabel, int] = {}
    for w1, x in a.terms:
        for w2, y in b.terms:
            lo = max(w1.l, w2.l)
            hi = min(N, w1.l + w2.l)
            for l in range(lo, hi + 1):
                for c in labels_with_alpha_up_to(l, F):
                    P = p_constant(w1, w2, OmegaLabel(l, c), F, budget)
                    if P:
                        key = OmegaLabel(l, c)
                        out[key] = out.get(key, 0) + x * y * P
    return AlgebraVector.make(N, out)
