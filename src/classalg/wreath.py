"""Wreath products F wr S_n: elements, conjugacy-class labels, class members
as conjugation orbits, and fully enumerated level groups.

An element is a permutation of {0..n-1} together with one F-element per
point.  The product convention is fixed once here and used everywhere:

    (a * b).perm = a.perm o b.perm          (apply b first)
    (a * b).deco[i] = a.deco[i] * b.deco[a.perm^-1(i)]

GroupElement holds that form for parsing and display; classalg.oracles
holds its arithmetic as the reference.  Production uses an encoding
instead: F wr S_n acts on the n |F| points (j, f), numbered j |F| + f, by

    (j, f) -> (perm[j], deco[perm[j]] * f),

and an element is encoded as the tuple of images of those points.  The
action of a * b is the action of b followed by that of a, so a product is
one composition of tuples, compose(a, b)[p] = a[b[p]], made in C by
tuple(map(a.__getitem__, b)); the inverse is the inverse permutation, and
the identity is tuple(range(n |F|)).  A cycle of perm through the point
(j, identity) comes back to (j, g) with g a cycle product of the cycle, so
labels and supports are read off the code without decoding it.

Conjugacy classes are labeled by the multiset of (cycle length, F-class of
the cycle product), with (1, identity-class) pairs dropped.  The members of
a class, bare codes, are the orbit of one representative under conjugation
by generating_set(F, n), built once per class and level and cached.  That the
label is a complete invariant is tested, never assumed: the tests group the
codes of a fully enumerated level by code_class and compare the groups with
the orbits under the same set (classalg.oracles), and those with the orbits
under every element.  The oracles label and decode elements by the
GroupElement reference, never by code_class.  The P rows, and S in them,
read only representative_factors, which counts the members x of a class
by the label of x^-1 h and the overlap of the supports of x and x^-1 h in
one loop over the inverses of x; when the class of h comes first, by size
and then label, the row is read transposed from the row counted from it.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from functools import lru_cache, partial
from math import factorial, perm
from operator import itemgetter

from .errors import BudgetExceeded, InvalidLabel, ParseError, clip, clip_int, parse_int
from .finite_group import FiniteGroup, cycle_str, orbit_partition

DEFAULT_ELEMENT_BUDGET = 10_000_000

# the element budget of the current element_budget block; None outside one
_element_budget: ContextVar[int | None] = ContextVar("element_budget", default=None)


@contextmanager
def element_budget(limit: int | None):
    """Bound every enumeration inside the block by `limit` elements (None:
    DEFAULT_ELEMENT_BUDGET); the previous limit is back on exit."""
    token = _element_budget.set(limit)
    try:
        yield
    finally:
        _element_budget.reset(token)


def _limit() -> int:
    limit = _element_budget.get()
    return DEFAULT_ELEMENT_BUDGET if limit is None else limit


def check_count(sizes, what: str) -> None:
    """Raise BudgetExceeded if enumerating `what`, of sizes[-1] elements, is
    over the element budget.  The nondecreasing sizes are read up to the
    first over the limit, which shows as a lower bound unless it is the last
    and short enough for str(); the numbers are clipped as errors.clip_int
    clips them."""
    limit, sizes = _limit(), iter(sizes)
    for size in sizes:
        if size > limit:
            count = f"more than {clip_int(limit)}"
            if next(sizes, None) is None:
                with suppress(ValueError):
                    count = clip(str(size))
            raise BudgetExceeded(
                f"{what} has {count} elements, budget is {clip_int(limit)}"
            )


@lru_cache(maxsize=None)
def _first_level_over(order: int, limit: int) -> tuple[int, int]:
    """(l, |F|^l l!) for the first level l over limit, |F| = order: the
    orders grow with l, so the levels within limit are exactly 0..l-1."""
    l, size = 0, 1
    while size <= limit:
        l += 1
        size *= order * l
    return l, size


def check_budget(F: FiniteGroup, n: int) -> None:
    """Raise BudgetExceeded, naming the first level l over the budget, if n >= l."""
    l, size = _first_level_over(F.order, _limit())
    if n >= l:
        check_count([size], f"level {l} over base of order {clip_int(F.order)}")


# --- support-set bitmask helpers (bit j <-> point j, displayed 1-based) ---

def mask_points(mask: int) -> tuple[int, ...]:
    return tuple(j for j in range(mask.bit_length()) if mask >> j & 1)


def mask_str(mask: int) -> str:
    return "{" + ",".join(str(j + 1) for j in mask_points(mask)) + "}"


def apply_perm_to_mask(perm: tuple[int, ...], mask: int) -> int:
    out = 0
    for j in mask_points(mask):
        out |= 1 << perm[j]
    return out


def mask_mover(code: tuple[int, ...], F: FiniteGroup):
    """apply_perm_to_mask by the permutation of the points that the element
    encoded by code makes, cached: the audit's orbit search moves the same
    few windows by one generator many times."""
    m = F.order
    perm = tuple(code[j * m] // m for j in range(len(code) // m))
    return lru_cache(maxsize=None)(partial(apply_perm_to_mask, perm))


class GroupElement(namedtuple("GroupElement", "n perm deco")):
    """Element of F wr S_n: perm[i] is the image of point i, deco[i] in F."""

    __slots__ = ()

    def sort_key(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return (self.perm, self.deco)


def element_str(a: GroupElement, F: FiniteGroup) -> str:
    return f"({cycle_str(a.perm, ' ')}; {','.join(F.names[d] for d in a.deco)})"


# --- conjugacy-class labels ---

class ClassLabel(namedtuple("ClassLabel", "pairs alpha")):
    """Multiset of (cycle length, F-class index) pairs, canonically sorted.

    Pairs are ordered by length descending, then F-class ascending; pairs
    (1, 0) are never stored.  alpha is the number of points the class
    genuinely occupies, stored with the pairs: ClassLabel(pairs) sets it.
    """

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...]) -> "ClassLabel":
        return tuple.__new__(cls, (pairs, sum(ln for ln, _ in pairs)))

    def __getnewargs__(self) -> tuple:
        return (self.pairs,)

    @classmethod
    def from_pairs(
        cls, pairs, F: FiniteGroup | None = None
    ) -> "ClassLabel":
        kept = []
        for ln, k in pairs:
            if ln < 1:
                raise InvalidLabel(f"cycle length must be >= 1, got {clip_int(ln)}")
            if k < 0 or (F is not None and k >= F.num_classes):
                raise InvalidLabel(f"F-class index {clip_int(k)} out of range")
            if (ln, k) != (1, 0):
                kept.append((ln, k))
        kept.sort(key=lambda pair: (-pair[0], pair[1]))
        return cls(tuple(kept))

    def sort_key(self):
        return (self.alpha, self.pairs)

    def display(self, F: FiniteGroup) -> str:
        if F.order == 1:
            return "[" + ",".join(str(ln) for ln, _ in self.pairs) + "]"
        return "[" + ",".join(f"({ln},{k})" for ln, k in self.pairs) + "]"

    @staticmethod
    def parse(text: str, F: FiniteGroup) -> "ClassLabel":
        s = re.sub(r"\s+", "", text)
        if not (s.startswith("[") and s.endswith("]")):
            raise ParseError(f"class label must be bracketed: {clip(text)!r}")
        inner = s[1:-1]
        if not inner:
            return ClassLabel(())
        if inner.startswith("("):
            if not re.fullmatch(r"\(\d+,\d+\)(?:,\(\d+,\d+\))*", inner):
                raise ParseError(f"bad class label syntax: {clip(text)!r}")
            pairs = [
                (parse_int(a, "class label"), parse_int(b, "class label"))
                for a, b in re.findall(r"\((\d+),(\d+)\)", inner)
            ]
        else:
            if not re.fullmatch(r"\d+(?:,\d+)*", inner):
                raise ParseError(f"bad class label syntax: {clip(text)!r}")
            pairs = [(parse_int(p, "class label"), 0) for p in inner.split(",")]
        try:
            return ClassLabel.from_pairs(pairs, F)
        except InvalidLabel as exc:
            raise ParseError(f"invalid class label {clip(text)!r}: {exc}") from None


# --- the encoding as a permutation of n |F| points (see the module docstring) ---

def encode(a: GroupElement, F: FiniteGroup) -> tuple[int, ...]:
    """The images of the points j |F| + f under a."""
    m, mult, deco = F.order, F.mult, a.deco
    out: list[int] = []
    for i in a.perm:
        out.extend([i * m + x for x in mult[deco[i]]])
    return tuple(out)


def decode(code: tuple[int, ...], F: FiniteGroup) -> GroupElement:
    """The element that encode maps to code."""
    m = F.order
    n = len(code) // m
    deco = [F.identity] * n
    for j in range(n):
        # (j, identity) goes to (perm[j], deco[perm[j]])
        i, deco_i = divmod(code[j * m + F.identity], m)
        deco[i] = deco_i
    return GroupElement(n, tuple(code[j * m] // m for j in range(n)), tuple(deco))


def compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The code of the product of the elements encoded by a and b."""
    return tuple(map(a.__getitem__, b))


def code_inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    """The code of the inverse: the points sorted by their images."""
    return tuple(sorted(range(len(a)), key=a.__getitem__))


def _cycle_key(
    code: tuple[int, ...], F: FiniteGroup
) -> tuple[tuple[tuple[int, int], ...], int]:
    """The label pairs of an encoded element as sorted (-length, F-class)
    pairs, and its support, from one walk of each cycle through its least
    point j: starting at (j, identity), the walk is back in j's block at
    (j, g), g a cycle product of the cycle."""
    m, class_of = F.order, F.class_of
    seen = 0
    key = []
    sup = 0
    for j in range(len(code) // m):
        if seen >> j & 1:
            continue
        q = code[j * m + F.identity]
        pts = 1 << j
        ln = 1
        while q // m != j:
            pts |= 1 << q // m
            q = code[q]
            ln += 1
        seen |= pts
        k = class_of[q % m]
        # undecorated fixed points are neither in the label nor the support
        if k or ln > 1:
            key.append((-ln, k))
            sup |= pts
    key.sort()
    return tuple(key), sup


@lru_cache(maxsize=None)
def _key_label(key: tuple[tuple[int, int], ...]) -> ClassLabel:
    return ClassLabel(tuple((-neg_ln, k) for neg_ln, k in key))


def code_class(code: tuple[int, ...], F: FiniteGroup) -> tuple[ClassLabel, int]:
    """The label and the support of the element encoded by code."""
    key, sup = _cycle_key(code, F)
    return _key_label(key), sup


def inverse_label(c: ClassLabel, F: FiniteGroup) -> ClassLabel:
    """The label of the inverses of the members of c: each F-class inverted."""
    inv_class = [F.class_of[F.inv[r]] for r in F.class_reps]
    return ClassLabel.from_pairs((ln, inv_class[k]) for ln, k in c.pairs)


def class_label_representative(c: ClassLabel, F: FiniteGroup, n: int) -> GroupElement:
    """An element of F wr S_n with label c: packed cycles on the lowest points,
    one class representative decorating each cycle's minimal point."""
    if c.alpha > n:
        raise InvalidLabel(f"label needs {clip_int(c.alpha)} points, "
                           f"level is {clip_int(n)}")
    perm = list(range(n))
    deco = [F.identity] * n
    pos = 0
    for ln, k in c.pairs:
        for p in range(pos, pos + ln - 1):
            perm[p] = p + 1
        perm[pos + ln - 1] = pos
        deco[pos] = F.class_reps[k]
        pos += ln
    return GroupElement(n, tuple(perm), tuple(deco))


@lru_cache(maxsize=None)
def labels_with_alpha_up_to(m: int, F: FiniteGroup) -> tuple[ClassLabel, ...]:
    """All class labels with alpha <= m, each built once, in canonical order;
    the budget is checked at m before any label is built."""
    check_budget(F, m)
    kinds = [
        (ln, k)
        for ln in range(1, m + 1)
        for k in range(F.num_classes)
        if (ln, k) != (1, 0)
    ]
    out: list[ClassLabel] = []

    def rec(i: int, room: int, acc: list[tuple[int, int]]) -> None:
        if i == len(kinds):
            out.append(ClassLabel.from_pairs(acc))
            return
        ln, k = kinds[i]
        for cnt in range(room // ln + 1):
            rec(i + 1, room - cnt * ln, acc + [(ln, k)] * cnt)

    if m >= 0:
        rec(0, m, [])
    return tuple(sorted(out, key=ClassLabel.sort_key))


@lru_cache(maxsize=None)
def generating_set(
    F: FiniteGroup, n: int
) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """A generating set of F wr S_n as (g, g^-1) codes: the transposition
    (1 2), the n-cycle (1 2 ... n), and every non-identity element of F
    decorating point 1."""
    m = F.order
    perms = [(1, 0, *range(2, n)), (*range(1, n), 0)] if n >= 2 else []
    # an undecorated perm moves (j, f) to (perm[j], f)
    gens = [tuple(i * m + x for i in perm for x in range(m)) for perm in perms]
    # f on point 1 moves (0, x) to (0, f x)
    gens += [F.mult[f] + tuple(range(m, n * m))
             for f in range(m) if n and f != F.identity]
    return tuple((g, code_inverse(g)) for g in gens)


@lru_cache(maxsize=None)
def class_members(c: ClassLabel, F: FiniteGroup, n: int) -> tuple[tuple[int, ...], ...]:
    """The code of every element of F wr S_n with label c, each once, in the
    order found: the orbit of the representative under conjugation by
    generating_set(F, n), by finite_group.orbit_partition, built once per
    (c, F, n) and cached; the budget is checked at n before the orbit is
    searched."""
    check_budget(F, n)
    # g x g^-1 is g o (x o g^-1), both compositions gathered in C by
    # itemgetter; the set is empty unless n |F| >= 2, so they give tuples.
    moves = [(g, itemgetter(*g_inv)) for g, g_inv in generating_set(F, n)]
    rep = encode(class_label_representative(c, F, n), F)
    return tuple(orbit_partition([rep], lambda x: [
        itemgetter(*after_g_inv(x))(g) for g, after_g_inv in moves
    ]))


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
    centralizer = 1
    # equal pairs are adjacent in a label
    for (r, k), run in itertools.groupby(c.pairs):
        m = len(list(run))
        centralizer *= factorial(m) * (r * F.order // F.class_of.count(k)) ** m
    return perm(l, c.alpha) * F.order**c.alpha // centralizer


@lru_cache(maxsize=None)
def representative_factors(
    c1: ClassLabel, c: ClassLabel, l: int, F: FiniteGroup
) -> dict[ClassLabel, dict[int, int]]:
    """The members x of class c1 at level l counted by the label of x^-1 h,
    h = class_label_representative(c, F, l), and by the overlap
    |support(x) & support(x^-1 h)|, cached.

    The inverses z = x^-1, the members of inverse_label(c1), are enumerated
    and the overlap is read from y = x^-1 h alone: h moves or decorates
    exactly H, the first alpha(c) points.  Off H, y acts as x^-1 does, and y
    moves each point of H that x fixes, since x y = h moves it; so the
    overlap is alpha(c1) - alpha(c) + |support(y) & H|.

    The pairs (x, z) in c1(l) x c(l) with x^-1 z of label c2 and overlap t
    number |c(l)| times the count, and |c1(l)| times the count of the row
    (c, c1) at inverse_label(c2) and overlap t + alpha(c) - alpha(c1), as x
    and z = x y agree off support(y).  So when (|c1(l)|, c1) is after
    (|c(l)|, c), by size and then sort_key, the row is that one scaled by
    |c1(l)| / |c(l)|, an exact division or an ArithmeticError.
    """
    num, den = class_size(c1, l, F), class_size(c, l, F)
    base = c1.alpha - c.alpha
    out: dict[ClassLabel, dict[int, int]] = {}
    if (num, c1.sort_key()) > (den, c.sort_key()):
        for c2, counts in representative_factors(c, c1, l, F).items():
            row = out[inverse_label(c2, F)] = {}
            for t, k in counts.items():
                row[base + t], rest = divmod(k * num, den)
                if rest:
                    raise ArithmeticError(f"{clip_int(k)} pairs times {clip_int(num)} "
                                          f"is not a multiple of {clip_int(den)}")
        return out
    h = encode(class_label_representative(c, F, l), F)
    mask = (1 << c.alpha) - 1
    tally: dict[tuple, int] = {}
    for z in class_members(inverse_label(c1, F), F, l):
        key, sy = _cycle_key(tuple(map(z.__getitem__, h)), F)
        pair = key, base + (sy & mask).bit_count()
        tally[pair] = tally.get(pair, 0) + 1
    for (key, t), k in tally.items():
        out.setdefault(_key_label(key), {})[t] = k
    return out


def enumerate_elements(F: FiniteGroup, n: int):
    """Yield all of F wr S_n in canonical order: perm lex, then deco lex."""
    if n < 0:
        raise InvalidLabel(f"level {clip_int(n)} is negative")
    check_budget(F, n)
    for perm in itertools.permutations(range(n)):
        for deco in itertools.product(range(F.order), repeat=n):
            yield GroupElement(n, perm, deco)


class LevelGroup:
    """F wr S_n fully enumerated, with index-based products: the level the
    family audit works in.

    codes holds the encoded elements in the canonical order of
    enumerate_elements, and index maps each code back to its position; sup
    holds their supports.  A product composes two codes and looks the
    result up in index; no product table is kept.  The structure constants
    and class sizes never build one of these: the audit does, and
    classalg.oracles, which labels and decodes the elements itself.
    """

    def __init__(self, F: FiniteGroup, n: int):
        self.codes: tuple[tuple[int, ...], ...] = tuple(
            encode(a, F) for a in enumerate_elements(F, n)
        )
        self.order = len(self.codes)
        self.index: dict[tuple[int, ...], int] = {
            a: i for i, a in enumerate(self.codes)
        }
        self.identity = self.index[tuple(range(n * F.order))]
        self.inv: tuple[int, ...] = tuple(
            self.index[code_inverse(a)] for a in self.codes
        )
        self.sup: tuple[int, ...] = tuple(_cycle_key(a, F)[1] for a in self.codes)

    def mul(self, i: int, j: int) -> int:
        return self.index[compose(self.codes[i], self.codes[j])]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1 by index."""
        codes = self.codes
        return self.index[tuple(
            map(codes[g].__getitem__, map(codes[x].__getitem__, codes[self.inv[g]]))
        )]


@lru_cache(maxsize=None)
def _level_group_cached(F: FiniteGroup, n: int) -> LevelGroup:
    return LevelGroup(F, n)


def level_group(F: FiniteGroup, n: int) -> LevelGroup:
    check_budget(F, n)
    return _level_group_cached(F, n)
