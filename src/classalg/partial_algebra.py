"""Partial elements, their class labels, and the truncated class algebra.

A partial element is a pair (d, h): a window d (bitmask of points) and a
group element h supported inside d.  Its class under simultaneous
conjugation is labeled by omega = (l, c) where l = |d| and c is the class
label of h.  The product of class sums expands with nonnegative integer
structure constants P; p_constant computes them by direct pair counting
over a fixed representative h, window by window, against the members of
the first class generated from its label (each multiplied by h once), so
no level group is enumerated and no product table is built.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .errors import InvalidLabel, LevelMismatch, ParseError
from .finite_group import FiniteGroup, orbit_partition
from .wreath import (
    ClassLabel,
    GroupElement,
    apply_perm_to_mask,
    check_budget,
    class_label,
    class_members,
    element_str,
    factor_supports,
    labels_with_alpha_up_to,
    level_group,
    mask_points,
    mask_str,
    multiply,
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


def pmultiply(a: PartialElement, b: PartialElement, F: FiniteGroup) -> PartialElement:
    """(d', h') * (d'', h'') = (d' | d'', h'h''); windows join in the subset order."""
    if a.h.n != b.h.n:
        raise LevelMismatch(f"levels differ: {a.h.n} != {b.h.n}")
    return PartialElement(a.d | b.d, multiply(a.h, b.h, F))


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


def omega_of(p: PartialElement, F: FiniteGroup) -> OmegaLabel:
    return OmegaLabel(bin(p.d).count("1"), class_label(p.h, F))


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

    def coefficient(self, key) -> int:
        for k, v in self.terms:
            if k == key:
                return v
        return 0

    def as_dict(self) -> dict:
        return dict(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "AlgebraVector") -> "AlgebraVector":
        if self.level != other.level:
            raise LevelMismatch(f"levels differ: {self.level} != {other.level}")
        out = dict(self.terms)
        for k, v in other.terms:
            out[k] = out.get(k, 0) + v
        return AlgebraVector.make(self.level, out)

    def __neg__(self) -> "AlgebraVector":
        return AlgebraVector(self.level, tuple((k, -v) for k, v in self.terms))

    def __sub__(self, other: "AlgebraVector") -> "AlgebraVector":
        return self + (-other)

    def scaled(self, s: int) -> "AlgebraVector":
        if s == 0:
            return AlgebraVector(self.level, ())
        return AlgebraVector(self.level, tuple((k, s * v) for k, v in self.terms))

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


def unit_vector(N: int) -> AlgebraVector:
    """The class of the empty partial element is the multiplicative unit."""
    return basis_vector(OmegaLabel(0, ClassLabel(())), N)


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


def enumerate_partial_elements(
    F: FiniteGroup, N: int, budget: int | None = None
) -> list[PartialElement]:
    """All partial elements at level N, in canonical order
    (window size, window bits, element order)."""
    G = level_group(F, N, budget)
    masks = sorted(range(1 << N), key=lambda m: (bin(m).count("1"), m))
    return [
        PartialElement(d, G.elements[i])
        for d in masks
        for i in range(G.order)
        if G.sup[i] & ~d == 0
    ]


def enumerate_omega_class(
    omega: OmegaLabel, within: int, F: FiniteGroup, N: int,
    budget: int | None = None,
) -> list[PartialElement]:
    """The partial elements of class omega whose window lies inside `within`."""
    G = level_group(F, N, budget)
    ids = G.by_label.get(omega.c, ())
    pts = mask_points(within)
    out = []
    for combo in itertools.combinations(pts, omega.l):
        d = 0
        for j in combo:
            d |= 1 << j
        for i in ids:
            if G.sup[i] & ~d == 0:
                out.append(PartialElement(d, G.elements[i]))
    out.sort(key=PartialElement.sort_key)
    return out


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


def p_constant_all_representatives(
    o1: OmegaLabel, o2: OmegaLabel, o: OmegaLabel, F: FiniteGroup,
    budget: int | None = None,
) -> list[int]:
    """The pair count computed at every member of class o, not just the
    canonical representative.  Used to test representative independence."""
    if not max(o1.l, o2.l) <= o.l <= o1.l + o2.l:
        return []
    check_budget(F, o.l, budget)
    return [
        _pair_count(o.l, o1, o2, factor_supports(o1.c, h, F))
        for h in class_members(o.c, F, o.l)
    ]


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


def product_oracle(
    o1: OmegaLabel, o2: OmegaLabel, F: FiniteGroup, N: int,
    budget: int | None = None,
) -> dict[OmegaLabel, int]:
    """Brute-force class-sum product: multiply every pair from the two
    classes at level N and tally results by class.  The tally must be
    constant on classes; returns the per-class coefficients."""
    cls1 = enumerate_omega_class(o1, (1 << N) - 1, F, N, budget)
    cls2 = enumerate_omega_class(o2, (1 << N) - 1, F, N, budget)
    tally: dict[PartialElement, int] = {}
    for p1 in cls1:
        for p2 in cls2:
            q = pmultiply(p1, p2, F)
            tally[q] = tally.get(q, 0) + 1
    out: dict[OmegaLabel, int] = {}
    sizes: dict[OmegaLabel, int] = {}
    for q, cnt in tally.items():
        w = omega_of(q, F)
        out[w] = out.get(w, 0) + cnt
        sizes[w] = sizes.get(w, 0) + 1
    coeffs: dict[OmegaLabel, int] = {}
    for w, total in out.items():
        size = len(enumerate_omega_class(w, (1 << N) - 1, F, N, budget))
        if total % size:
            raise ArithmeticError(
                f"product of class sums is not a class function at {w}"
            )
        # every member of the class must appear, with a uniform count
        if sizes[w] != size:
            raise ArithmeticError(
                f"class {w} only partially covered by the product"
            )
        coeffs[w] = total // size
    return coeffs


def partial_orbit_oracle(
    F: FiniteGroup, N: int, budget: int | None = None
) -> list[tuple[PartialElement, ...]]:
    """Orbits of partial elements at level N under simultaneous conjugation
    g.(d, h) = (g d, g h g^-1).  Independent of omega labels; this is the
    oracle the omega invariant is tested against."""
    G = level_group(F, N, budget)
    pes = enumerate_partial_elements(F, N, budget)
    index = {p: i for i, p in enumerate(pes)}

    def successors(y: int) -> list[int]:
        p = pes[y]
        hi = G.index[p.h]
        return [
            index[PartialElement(
                apply_perm_to_mask(G.elements[g].perm, p.d),
                G.elements[G.conj(g, hi)],
            )]
            for g in range(G.order)
        ]

    orbit_of = orbit_partition(range(len(pes)), successors)
    orbits: list[list[PartialElement]] = [
        [] for _ in range(max(orbit_of.values()) + 1)
    ]
    for y, p in enumerate(pes):
        orbits[orbit_of[y]].append(p)
    return [tuple(o) for o in orbits]
