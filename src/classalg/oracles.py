"""Brute-force references that the tests check the production paths against.

The GroupElement arithmetic (identity_element, multiply, inverse,
conjugate, support, class_label, d_type_membership) works on (perm, deco)
with the product convention of classalg.wreath and shares no code with
compose, code_inverse or code_class: the tests and the verify preflight
check the codes against it.

Every other function enumerates a whole level (or every window of one) and
so costs time and memory that grow like |F|^n n!.  None of them reads a
class's members through class_members or labels by code_class: level_views
labels the elements of a level by class_label, products are made
elementwise, and orbits are closed under conjugation by
wreath.generating_set, the set class_members closes under; the tests check
that set against closure under every element of the level, and compare the
orbits with labels read by code_class, which shares nothing with it.
factor_supports_oracle groups a class taken from the level views by
GroupElement products, keeping each member's pair of supports, and
_pair_count counts P over it window by window: the references for
wreath.representative_factors and for the closed-form window count of
partial_algebra.weigh.  The structure constants, class sizes and the CLI
apart from the preflight and `xi --oracle` never call into this module.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import comb

from .errors import LevelMismatch, WrongBaseGroup, clip_int
from .finite_group import FiniteGroup, cycles, orbit_partition
from .partial_algebra import OmegaLabel, PartialElement
from .wreath import (
    ClassLabel,
    GroupElement,
    apply_perm_to_mask,
    check_count,
    class_label_representative,
    encode,
    enumerate_elements,
    generating_set,
    level_group,
    mask_points,
)


# --- GroupElement arithmetic ---

def identity_element(F: FiniteGroup, n: int) -> GroupElement:
    return GroupElement(n, tuple(range(n)), (F.identity,) * n)


def multiply(a: GroupElement, b: GroupElement, F: FiniteGroup) -> GroupElement:
    if a.n != b.n:
        raise LevelMismatch(f"levels differ: {a.n} != {b.n}")
    ap, ad, bp, bd = a.perm, a.deco, b.perm, b.deco
    mult = F.mult
    perm = tuple(ap[bp[i]] for i in range(a.n))
    deco = [0] * a.n
    for j in range(a.n):
        i = ap[j]
        deco[i] = mult[ad[i]][bd[j]]
    return GroupElement(a.n, perm, tuple(deco))


def inverse(a: GroupElement, F: FiniteGroup) -> GroupElement:
    perm = [0] * a.n
    deco = [0] * a.n
    for j in range(a.n):
        perm[a.perm[j]] = j
        deco[j] = F.inv[a.deco[a.perm[j]]]
    return GroupElement(a.n, tuple(perm), tuple(deco))


def conjugate(g: GroupElement, a: GroupElement, F: FiniteGroup) -> GroupElement:
    """g a g^-1."""
    return multiply(multiply(g, a, F), inverse(g, F), F)


def support(a: GroupElement, F: FiniteGroup) -> int:
    """Bitmask of points that are moved or carry a nontrivial decoration."""
    out = 0
    for j in range(a.n):
        if a.perm[j] != j or a.deco[j] != F.identity:
            out |= 1 << j
    return out


def class_label(a: GroupElement, F: FiniteGroup) -> ClassLabel:
    """Label of the conjugacy class of a in F wr S_n: for each cycle of
    a.perm, its length and the F-class of its cycle product."""
    mult, deco = F.mult, a.deco
    pairs = []
    for pts in cycles(a.perm):
        acc = deco[pts[0]]
        for p in pts[1:]:
            acc = mult[deco[p]][acc]
        pairs.append((len(pts), F.class_of[acc]))
    # from_pairs drops the undecorated fixed points and sorts
    return ClassLabel.from_pairs(pairs)


def d_type_membership(a: GroupElement, F: FiniteGroup) -> bool:
    """Whether a lies in the even-decoration subgroup of Z/2 wr S_n."""
    if F.order != 2:
        raise WrongBaseGroup(f"needs a base group of order 2, got order {F.order}")
    return sum(1 for d in a.deco if d != F.identity) % 2 == 0


# --- wreath products ---

# group is level_group(F, n), elements[i] the element encoded by its codes[i],
# sup[i] its support, by_label[c] the ids of class c, all by the reference above
LevelViews = namedtuple("LevelViews", "group elements sup by_label")


def level_views(F: FiniteGroup, n: int) -> LevelViews:
    """The budget is checked on every call, the views built once per (F, n)."""
    return LevelViews(level_group(F, n), *_reference_views(F, n))


@lru_cache(maxsize=None)
def _reference_views(F: FiniteGroup, n: int) -> tuple:
    elements = tuple(enumerate_elements(F, n))
    by_label: dict[ClassLabel, list[int]] = {}
    for i, a in enumerate(elements):
        by_label.setdefault(class_label(a, F), []).append(i)
    return elements, tuple(support(a, F) for a in elements), by_label


def conjugation_orbits(F: FiniteGroup, n: int) -> list[tuple[int, ...]]:
    """Conjugacy classes of F wr S_n as orbits of element indices.

    Pure orbit enumeration, independent of class_label; this is the oracle
    the label invariant is tested against.  Closing under conjugation by a
    generating set of a finite group gives the orbits under the whole group;
    the set is wreath.generating_set, the one class_members closes under.
    """
    G = level_group(F, n)
    gens = [G.index[g] for g, _ in generating_set(F, n)]
    orbit_of = orbit_partition(
        range(G.order), lambda y: [G.conj(g, y) for g in gens]
    )
    orbits: list[list[int]] = [[] for _ in range(max(orbit_of.values()) + 1)]
    for x in range(G.order):
        orbits[orbit_of[x]].append(x)
    return [tuple(o) for o in orbits]


# --- centers ---

def center_product_oracle(
    c1: ClassLabel, c2: ClassLabel, l: int, F: FiniteGroup
) -> dict[ClassLabel, int]:
    """Literal class-sum multiplication in the group algebra at level l,
    tallied elementwise and reduced to per-class coefficients."""
    G, _, _, by_label = level_views(F, l)
    tally = [0] * G.order
    for i in by_label.get(c1, ()):
        for j in by_label.get(c2, ()):
            tally[G.mul(i, j)] += 1
    out: dict[ClassLabel, int] = {}
    for lab, ids in by_label.items():
        vals = {tally[i] for i in ids}
        if len(vals) != 1:
            raise ArithmeticError(
                f"class-sum product is not constant on class {lab}"
            )
        v = vals.pop()
        if v:
            out[lab] = v
    return out


# --- partial elements ---

def pmultiply(a: PartialElement, b: PartialElement, F: FiniteGroup) -> PartialElement:
    """(d', h') * (d'', h'') = (d' | d'', h'h''); windows join in the subset order."""
    if a.h.n != b.h.n:
        raise LevelMismatch(f"levels differ: {a.h.n} != {b.h.n}")
    return PartialElement(a.d | b.d, multiply(a.h, b.h, F))


def omega_of(p: PartialElement, F: FiniteGroup) -> OmegaLabel:
    return OmegaLabel(bin(p.d).count("1"), class_label(p.h, F))


def enumerate_partial_elements(F: FiniteGroup, N: int) -> list[PartialElement]:
    """All partial elements at level N, in canonical order
    (window size, window bits, element order)."""
    _, elements, sup, _ = level_views(F, N)
    masks = sorted(range(1 << N), key=lambda m: (bin(m).count("1"), m))
    return [
        PartialElement(d, a)
        for d in masks
        for a, s in zip(elements, sup)
        if s & ~d == 0
    ]


def enumerate_omega_class(
    omega: OmegaLabel, within: int, F: FiniteGroup, N: int
) -> list[PartialElement]:
    """The partial elements of class omega whose window lies inside `within`."""
    _, elements, sup, by_label = level_views(F, N)
    ids = by_label.get(omega.c, ())
    pts = mask_points(within)
    out = []
    for combo in itertools.combinations(pts, omega.l):
        d = sum(1 << j for j in combo)
        for i in ids:
            if sup[i] & ~d == 0:
                out.append(PartialElement(d, elements[i]))
    out.sort(key=PartialElement.sort_key)
    return out


def product_oracle(
    o1: OmegaLabel, o2: OmegaLabel, F: FiniteGroup, N: int
) -> dict[OmegaLabel, int]:
    """Brute-force class-sum product: multiply every pair from the two
    classes at level N and tally results by class.  The tally must be
    constant on classes; returns the per-class coefficients."""
    cls1 = enumerate_omega_class(o1, (1 << N) - 1, F, N)
    cls2 = enumerate_omega_class(o2, (1 << N) - 1, F, N)
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
        size = len(enumerate_omega_class(w, (1 << N) - 1, F, N))
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


def partial_orbit_oracle(F: FiniteGroup, N: int) -> list[tuple[PartialElement, ...]]:
    """Orbits of partial elements at level N under simultaneous conjugation
    g.(d, h) = (g d, g h g^-1).  Independent of omega labels; this is the
    oracle the omega invariant is tested against."""
    G, elements, _, _ = level_views(F, N)
    pes = enumerate_partial_elements(F, N)
    index = {p: i for i, p in enumerate(pes)}

    def successors(y: int) -> list[int]:
        p = pes[y]
        hi = G.index[encode(p.h, F)]
        return [
            index[PartialElement(
                apply_perm_to_mask(elements[g].perm, p.d),
                elements[G.conj(g, hi)],
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


def factor_supports_oracle(
    c1: ClassLabel, h: GroupElement, F: FiniteGroup
) -> dict[ClassLabel, tuple[int, ...]]:
    """The members x of class c1 at level n = h.n, grouped by the label of
    x^-1 h, each kept as support(x) | support(x^-1 h) << n, by GroupElement
    products over the members of c1 in the enumerated level: the
    reference for wreath.representative_factors, which keeps only the
    overlap of the two supports."""
    n = h.n
    _, elements, _, by_label = level_views(F, n)
    groups: dict[ClassLabel, list[int]] = {}
    for x in (elements[i] for i in by_label.get(c1, ())):
        y = multiply(inverse(x, F), h, F)
        groups.setdefault(class_label(y, F), []).append(
            support(x, F) | support(y, F) << n
        )
    return {lab: tuple(v) for lab, v in groups.items()}


def _pair_count(
    l: int, o1: OmegaLabel, o2: OmegaLabel,
    factors: dict[ClassLabel, tuple[int, ...]],
) -> int:
    """Factorizations of the partial element ({1..l}, h) at level l into a
    product from classes o1 and o2, window by window, where factors is the
    grouping factor_supports_oracle(o1.c, h) makes (or one equal to it).
    """
    full = (1 << l) - 1
    total = 0
    for combo in itertools.combinations(range(l), o1.l):
        rest = full & ~sum(1 << j for j in combo)
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


def p_constant_all_representatives(
    o1: OmegaLabel, o2: OmegaLabel, o: OmegaLabel, F: FiniteGroup
) -> list[int]:
    """The pair count computed at every member of class o, taken from the
    enumerated level, not just at the canonical representative.  Used to
    test representative independence."""
    if not max(o1.l, o2.l) <= o.l <= o1.l + o2.l:
        return []
    _, elements, _, by_label = level_views(F, o.l)
    return [
        _pair_count(o.l, o1, o2, factor_supports_oracle(o1.c, elements[i], F))
        for i in by_label.get(o.c, ())
    ]


# --- the correspondence ---

def xi_count_oracle(
    lp: int, c: ClassLabel, l: int, F: FiniteGroup, all_members: bool = False
) -> int:
    """Count the windows of size lp holding a fixed element of class c
    inside {1..l} by literal subset enumeration.

    The budget bounds the C(l, lp) windows counted.  With all_members=True
    the count is recomputed at every element of the class in F wr S_l, and
    the budget bounds the level, which is enumerated; the results must
    agree.
    """
    if c.alpha > l or not 0 <= lp <= l:
        return 0
    if not all_members:
        what = f"the set of windows of size {clip_int(lp)} in {{1..{clip_int(l)}}}"
        # C(l, j) grows with j up to l / 2; C(l, lp) = C(l, l - lp)
        check_count((comb(l, j) for j in range(min(lp, l - lp) + 1)), what)

    def count_for(h: GroupElement) -> int:
        sup = support(h, F)
        return sum(
            1 for combo in itertools.combinations(range(l), lp)
            if sup & ~sum(1 << j for j in combo) == 0
        )

    if not all_members:
        return count_for(class_label_representative(c, F, l))
    _, elements, _, by_label = level_views(F, l)
    counts = {count_for(elements[i]) for i in by_label.get(c, ())}
    if len(counts) != 1:
        raise ArithmeticError(f"window count is not constant on class {c}")
    return counts.pop()


def phi_oracle(omega: OmegaLabel, l: int, F: FiniteGroup) -> list[int]:
    """Literal image of the class sum of omega in the group algebra at level
    l: sum every partial element of the class with window inside {1..l},
    forgetting windows.  Returns the per-element tally."""
    G = level_group(F, l)
    tally = [0] * G.order
    for p in enumerate_omega_class(omega, (1 << l) - 1, F, l):
        tally[G.index[encode(p.h, F)]] += 1
    return tally
