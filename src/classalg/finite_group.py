"""Finite base groups given by explicit multiplication tables.

A base group is a table-defined finite group F together with its
conjugacy-class data.  Elements are the indices 0..order-1.  Everything
downstream (wreath products, class labels, structure constants) consumes
an F through this interface, so user-supplied groups and builtins behave
identically.
"""

from __future__ import annotations

import itertools
import re
from functools import lru_cache

from .errors import (
    BudgetExceeded,
    NoIdentity,
    NoInverse,
    NotAssociative,
    NotClosed,
    ParseError,
    UnknownBuiltin,
    clip,
    parse_int,
)

DEFAULT_MAX_ORDER = 24


class FiniteGroup:
    """A validated finite group on element indices 0..order-1.

    class_of[x] is the conjugacy-class index of x; class 0 is the class of
    the identity, and the remaining classes are ordered by their minimal
    element index.  names holds one display string per element.

    Groups compare and hash by identity, so the caches keyed on a group
    never hash its multiplication table.  Two separately loaded copies of
    the same table are therefore distinct keys and fill their own caches.
    """

    __slots__ = ("order", "mult", "inv", "identity", "class_of", "class_reps", "names")

    def __init__(
        self, order: int, mult: tuple[tuple[int, ...], ...], inv: tuple[int, ...],
        identity: int, class_of: tuple[int, ...], class_reps: tuple[int, ...],
        names: tuple[str, ...],
    ):
        self.order, self.mult, self.inv, self.identity = order, mult, inv, identity
        self.class_of, self.class_reps, self.names = class_of, class_reps, names

    @property
    def num_classes(self) -> int:
        return len(self.class_reps)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, classes={self.num_classes})"


def validate_table(order: int, mult: list[list[int]]) -> tuple[tuple[int, ...], int]:
    """Check closure, associativity, identity, inverses.

    Returns (inverse table, identity index).  Raises NotClosed,
    NotAssociative, NoIdentity, or NoInverse, in that order of checking.
    """
    for i in range(order):
        for j in range(order):
            v = mult[i][j]
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < order:
                raise NotClosed(i, j, v)
    rng = range(order)
    for x in rng:
        for y in rng:
            xy = mult[x][y]
            for z in rng:
                if mult[xy][z] != mult[x][mult[y][z]]:
                    raise NotAssociative(x, y, z)
    identity = next(
        (e for e in rng if all(mult[e][x] == x and mult[x][e] == x for x in rng)),
        None,
    )
    if identity is None:
        raise NoIdentity("no two-sided identity in table")
    inv = []
    for x in rng:
        y = next(
            (y for y in rng if mult[x][y] == identity and mult[y][x] == identity),
            None,
        )
        if y is None:
            raise NoInverse(x)
        inv.append(y)
    return tuple(inv), identity


def orbit_partition(starts, successors) -> dict:
    """Orbits of everything reachable from `starts`, where successors(x) is
    the list of neighbours of x.  Returns {item: orbit id}, with orbits
    numbered in order of their first start."""
    orbit_of: dict = {}
    oid = 0
    for start in starts:
        if start in orbit_of:
            continue
        orbit_of[start] = oid
        stack = [start]
        while stack:
            for z in successors(stack.pop()):
                if z not in orbit_of:
                    orbit_of[z] = oid
                    stack.append(z)
        oid += 1
    return orbit_of


def cycles(perm: tuple[int, ...]) -> list[list[int]]:
    """Cycles of a permutation (fixed points included), each listed from its
    least point, in order of least point."""
    seen = bytearray(len(perm))
    out = []
    for start, j in enumerate(perm):
        if seen[start]:
            continue
        cyc = [start]
        while j != start:
            cyc.append(j)
            seen[j] = 1
            j = perm[j]
        out.append(cyc)
    return out


def cycle_str(perm: tuple[int, ...], sep: str) -> str:
    """Cycle notation on points 1..n without fixed points, "e" if none."""
    return "".join(
        "(" + sep.join(str(k + 1) for k in cyc) + ")"
        for cyc in cycles(perm)
        if len(cyc) > 1
    ) or "e"


def _conjugacy_data(
    order: int, mult: list[list[int]] | tuple[tuple[int, ...], ...],
    inv: tuple[int, ...], identity: int,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbits of x -> g x g^-1.  Identity class first, rest by minimal element."""
    starts = [identity] + [x for x in range(order) if x != identity]
    class_of = orbit_partition(
        starts, lambda y: [mult[mult[g][y]][inv[g]] for g in range(order)]
    )
    reps: list[int] = []
    for x in starts:
        if class_of[x] == len(reps):
            reps.append(x)
    return tuple(class_of[x] for x in range(order)), tuple(reps)


def load_group(spec: dict) -> FiniteGroup:
    """Build a FiniteGroup from a mapping with keys order, mult, names
    (optional), of order at most DEFAULT_MAX_ORDER."""
    if not isinstance(spec, dict):
        raise ParseError("group description must be a JSON object")
    try:
        order = spec["order"]
        mult = spec["mult"]
    except KeyError as exc:
        raise ParseError(f"group description missing key {exc.args[0]!r}") from None
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ParseError(f"order must be a positive integer, got {order!r}")
    if order > DEFAULT_MAX_ORDER:
        raise BudgetExceeded(f"group order {order} exceeds cap {DEFAULT_MAX_ORDER}")
    if not isinstance(mult, list) or len(mult) != order or any(
        not isinstance(row, list) or len(row) != order for row in mult
    ):
        raise ParseError(f"mult must be a {order}x{order} array of element indices")
    inv, identity = validate_table(order, mult)
    names = spec.get("names")
    if names is None:
        names = [str(i) for i in range(order)]
    if (
        not isinstance(names, list)
        or len(names) != order
        or any(not isinstance(s, str) for s in names)
    ):
        raise ParseError(f"names must be a list of {order} strings")
    class_of, reps = _conjugacy_data(order, mult, inv, identity)
    return FiniteGroup(
        order=order,
        mult=tuple(tuple(row) for row in mult),
        inv=inv,
        identity=identity,
        class_of=class_of,
        class_reps=reps,
        names=tuple(names),
    )


def load_group_file(path: str) -> FiniteGroup:
    """Load a JSON group file (keys: order, mult, names optional)."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bytes not UTF-8, malformed JSON, an integer too long
        if isinstance(exc, OSError) and exc.filename is not None:
            exc.filename = clip(path)  # str(exc) quotes it again
        raise ParseError(f"cannot read group file {clip(path)}: {exc}") from exc
    return load_group(spec)


def _cyclic_spec(m: int) -> dict:
    mult = [[(i + j) % m for j in range(m)] for i in range(m)]
    if m == 2:
        names = ["+", "-"]
    else:
        names = [str(i) for i in range(m)]
    return {"order": m, "mult": mult, "names": names}


def _symmetric_spec(m: int) -> dict:
    perms = list(itertools.permutations(range(m)))
    index = {p: i for i, p in enumerate(perms)}
    # compose(p, q) applies q first, matching the product convention used
    # for permutation parts everywhere else in the package
    mult = [[index[tuple(p[q[x]] for x in range(m))] for q in perms] for p in perms]
    return {"order": len(perms), "mult": mult, "names": [cycle_str(p, "") for p in perms]}


_BUILTIN_RE = re.compile(r"^(trivial|cyclic|sym)\s*(?:\(\s*(\d+)\s*\)|(\d+))?$")


def builtin_group(name: str) -> FiniteGroup:
    """Builtins: trivial, cyclic(m) (also written cyclicM), sym(3).  Each is
    built once: every spelling of the same builtin returns the same group,
    so the caches keyed on it are shared."""
    m = _BUILTIN_RE.match(name.strip().lower())
    if not m:
        raise UnknownBuiltin(f"unknown builtin group {clip(name)!r}")
    kind = m.group(1)
    arg = m.group(2) or m.group(3)
    k = parse_int(arg or "1", "builtin group parameter")
    if kind == "trivial":
        if arg is not None:
            raise UnknownBuiltin(f"trivial takes no parameter: {clip(name)!r}")
    elif arg is None:
        raise UnknownBuiltin(f"{kind} needs a parameter, e.g. {kind}(2): {clip(name)!r}")
    elif kind == "cyclic" and not 1 <= k <= 12:
        raise UnknownBuiltin(f"cyclic order out of range 1..12: {clip(name)!r}")
    elif kind == "sym" and k != 3:
        raise UnknownBuiltin(f"only sym(3) is builtin: {clip(name)!r}")
    return _builtin(kind, k)


@lru_cache(maxsize=None)
def _builtin(kind: str, k: int) -> FiniteGroup:
    if kind == "trivial":
        return load_group({"order": 1, "mult": [[0]], "names": ["e"]})
    return load_group(_cyclic_spec(k) if kind == "cyclic" else _symmetric_spec(k))


TRIVIAL = builtin_group("trivial")
