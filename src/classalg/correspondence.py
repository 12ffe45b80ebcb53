"""The bridge between partial-element classes and centers of group algebras.

xi(l', c; l) counts the windows of size l' that can carry a fixed group
element of class c inside {1..l}.  These counts tie the two families of
structure constants together: the diagonal identity expresses S in terms
of P through a unipotent triangular system, the map phi sends each
partial-element class to a compatible thread of class sums, and the
triangular shape makes phi injective with computable preimages.

The module also hosts the family audit: given a chain of groups selected
by a membership rule, it checks the unit, closure, and class-fusion
conditions that the whole construction rests on, by orbit enumeration.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from functools import lru_cache
from itertools import zip_longest
from math import comb
from operator import add, mul

from .center_algebra import center_row
from .errors import InvalidLabel, LevelMismatch, ParseError, clip, clip_int
from .finite_group import FiniteGroup, builtin_group, orbit_partition
from .partial_algebra import (
    AlgebraVector,
    OmegaLabel,
    PartialElement,
    partial_str,
    product_rows,
)
from .wreath import (
    ClassLabel,
    decode,
    generating_set,
    labels_with_alpha_up_to,
    mask_mover,
    mask_str,
)


def xi_closed_form(lp: int, c: ClassLabel, l: int) -> int:
    """Number of windows of size lp with supp(h) <= window <= {1..l} for a
    fixed h of class c: zero unless alpha(c) <= lp <= l, else a binomial."""
    a = c.alpha
    if not a <= lp <= l:
        return 0
    return comb(l - a, lp - a)


@lru_cache(maxsize=None)
def _xi_table(l: int, F: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """xi(lp, c; l) as table[lp][id of c], for every lp <= l."""
    labels = labels_with_alpha_up_to(l, F)
    return tuple(
        tuple(
            xi_closed_form(lp, labels[j], l)
            for j in range(len(labels_with_alpha_up_to(lp, F)))
        )
        for lp in range(l + 1)
    )


def identity_rows(
    w1: OmegaLabel, w2: OmegaLabel, n: int, F: FiniteGroup
) -> tuple[list[tuple[int, ...]], tuple[tuple[int, ...], ...]]:
    """Both sides of the diagonal identity for the pair w1, w2 at every
    level l <= n, by target label id: the S side
    sides[l][id of c] = xi(l1,c1;l) xi(l2,c2;l) S(c1,c2,c;l), read from
    center_row (the full-window P column), and the counted P rows,
    product_rows(w1, w2, n).  The other side, sum over lt <= l of
    xi(lt,c;l) P(w1,w2,(lt,c)), is phi_rows of the P rows; at l1 = l2 = l
    both read one P column.  Below max(l1, l2), where xi is 0, the S side
    takes the zero rows of the P rows."""
    (l1, c1), (l2, c2) = w1, w2
    lo = max(l1, l2)
    sides = []
    for l in range(lo, n + 1):
        x = xi_closed_form(l1, c1, l) * xi_closed_form(l2, c2, l)
        row = center_row(c1, c2, l, F)
        sides.append(row if x == 1 else tuple(map(x.__mul__, row)))
    prows = product_rows(w1, w2, n, F)
    return list(prows[:lo]) + sides, prows


def forward_substitute(svec, levels, c: ClassLabel) -> tuple[int, ...]:
    """The unique integer solution of the unipotent system (1 + R) P = svec
    at the given levels, R[i][j] = xi(levels[j], c; levels[i]) below the
    diagonal, by forward substitution."""
    if not any(svec):
        return tuple(svec)
    p: list[int] = []
    for s, l in zip(svec, levels):
        p.append(s - sum(xi_closed_form(lp, c, l) * x for lp, x in zip(levels, p)))
    return tuple(p)


def inversion_rows(
    omega1: OmegaLabel, omega2: OmegaLabel, F: FiniteGroup
) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(solved, brute) by label id for every c with alpha <= M = l1 + l2:
    P(omega1, omega2, (l, c)) at l = max(l1, l2)..M, solved from the S side
    of identity_rows and read from its P rows."""
    M = omega1.l + omega2.l
    levels = range(max(omega1.l, omega2.l), M + 1)
    sides, prows = identity_rows(omega1, omega2, M, F)
    # the columns by label id; a row of a lower level is short of the
    # labels that need more points, whose entries are 0
    columns = zip(zip_longest(*sides[levels.start:], fillvalue=0),
                  zip_longest(*prows[levels.start:], fillvalue=0))
    return [
        (forward_substitute(s, levels, c), b)
        for c, (s, b) in zip(labels_with_alpha_up_to(M, F), columns)
    ]


def phi_rows(rows, F: FiniteGroup) -> list[tuple[int, ...]]:
    """phi of the truncated vector with coefficients rows[l'][id of c]: the
    center row at each level l, sum over l' <= l of xi(l', c; l) rows[l']."""
    live = [lp for lp, row in enumerate(rows) if any(row)]
    first = live[0] if live else len(rows)
    # below the first nonzero row the image is that row's zeros
    out = list(map(tuple, rows[:first]))
    for l in range(first, len(rows)):
        xis = _xi_table(l, F)
        acc = list(rows[l])  # xi(l, c; l) = 1
        for lp in live:
            if lp >= l:
                break
            acc[:len(rows[lp])] = map(add, acc, map(mul, rows[lp], xis[lp]))
        out.append(tuple(acc))
    return out


# bench/spans.py times these kernels under their earlier names
verify_main_lemma, verify_inversion, phi = identity_rows, inversion_rows, phi_rows


def phi_preimage(
    target_c: ClassLabel, target_l: int, N: int, F: FiniteGroup,
) -> AlgebraVector:
    """The unique truncated vector whose image is e[c(target_l)] at level
    target_l and zero at every other level <= N: the column of c solved
    by forward_substitute."""
    if target_c.alpha > target_l:
        raise InvalidLabel(
            f"class needs alpha={clip_int(target_c.alpha)} points, "
            f"level is {clip_int(target_l)}"
        )
    if target_l > N:
        raise LevelMismatch(
            f"target level {clip_int(target_l)} exceeds truncation level {clip_int(N)}"
        )
    levels = range(target_l, N + 1)
    gamma = forward_substitute((1,) + (0,) * (N - target_l), levels, target_c)
    return AlgebraVector.make(
        N, {OmegaLabel(lp, target_c): g for lp, g in zip(levels, gamma)}
    )


# --- families and the admissibility audit ---

class FamilySpec(namedtuple("FamilySpec", "kind base name")):
    """A chain of groups: one group per window, cut out of F wr S_n by a
    membership rule.  kind selects the rule, base is F, name is the CLI
    spelling used in reports."""

    __slots__ = ()

    @classmethod
    def symmetric(cls) -> "FamilySpec":
        return cls("symmetric", builtin_group("trivial"), "sym")

    @classmethod
    def wreath(cls, base: FiniteGroup, name: str = "wreath") -> "FamilySpec":
        return cls("wreath", base, name)

    @classmethod
    def d_type(cls) -> "FamilySpec":
        return cls("d_type", builtin_group("cyclic(2)"), "dtype")

    def admits(self, code: tuple[int, ...]) -> bool:
        """Membership rule on the code of an element of F wr S_n; d_type reads
        the decorations off the images (perm[j], deco[perm[j]]) of (j, e)."""
        if self.kind != "d_type":
            return True
        m, e = self.base.order, self.base.identity
        return sum(code[p] % m != e for p in range(e, len(code), m)) % 2 == 0


def parse_family(text: str, group: FiniteGroup | None = None) -> FamilySpec:
    """CLI family grammar: sym | dtype | wreath:<builtin> | wreath (with a
    user group supplied separately)."""
    s = text.strip().lower()
    if s in ("sym", "symmetric"):
        return FamilySpec.symmetric()
    if s in ("dtype", "d_type"):
        return FamilySpec.d_type()
    if s in ("wreath", "wreath:file"):
        if group is None:
            raise ParseError(f"family {s!r} needs a group file; "
                             "pass --group-file or use wreath:<builtin>")
        return FamilySpec.wreath(group, "wreath:file")
    if s.startswith("wreath:"):
        return FamilySpec.wreath(builtin_group(s[len("wreath:"):]), s)
    raise ParseError(f"unknown family {clip(text)!r}")


class AuditWitness(namedtuple("AuditWitness", "window p1 p2")):
    """Two partial elements conjugate over the full window but not inside
    their own window."""

    __slots__ = ()

    def display(self, F: FiniteGroup) -> str:
        return (
            f"window {mask_str(self.window)}: {partial_str(self.p1, F)} and "
            f"{partial_str(self.p2, F)} are conjugate at the top level but "
            f"not within the window"
        )


class AuditReport(namedtuple(
    "AuditReport",
    "family kind level unit_ok closure_ok fusion_ok witness group_size "
    "partial_count windows_checked pairs_checked notes",
)):
    """Outcome of the finite-level admissibility audit of a family.

    witness is an AuditWitness or None.  pairs_checked is the number of
    pairs of partial elements that the fusion check covers: for each window
    in canonical order, every unordered pair of partial elements whose
    window lies inside it, taken in canonical order, up to and including
    the first violating pair, after which no further window is examined.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.unit_ok and self.closure_ok and self.fusion_ok


_AUDIT_NOTES = (
    "finiteness of each window group holds by construction here",
    "the separation property quantifies over all window sizes and is not "
    "decidable from a single finite level, so it is not checked",
)


def admissibility_audit(spec: FamilySpec, N: int) -> AuditReport:
    """Check the unit, closure, and class-fusion conditions for the family
    at level N by orbit enumeration under a generating set of each window
    group.

    Fusion means: partial elements with the same window that are conjugate
    under the top-level group must already be conjugate under the window's
    own group.  The first violating pair in canonical order is reported.
    """
    # the one production path that enumerates a whole level
    from .wreath import level_group

    F = spec.base
    G = level_group(F, N)
    codes, conj = G.codes, G.conj
    admits = [spec.admits(a) for a in codes]
    full = (1 << N) - 1
    windows = sorted(range(full + 1), key=lambda w: (w.bit_count(), w))

    by_support = defaultdict(list)  # admitted elements, in canonical order
    for i in filter(admits.__getitem__, range(G.order)):
        by_support[G.sup[i]].append(i)
    members = {
        w: sorted(i for d in windows if d & ~w == 0 for i in by_support[d])
        for w in windows
    }

    unit_ok = members[0] == [G.identity]

    # A point permutation that keeps the admitted elements admitted carries
    # a window's members and orbits onto those of any window of its size.
    # (1 2) and (1 2 ... N), first in generating_set(F, N), generate them
    # all; as bijections they keep the admitted in iff they keep the rest out.
    perms = [G.index[g] for g, _ in generating_set(F, N)[:2]] if N >= 2 else []
    few = 2 * sum(admits) <= G.order
    rest = [i for i in range(G.order) if admits[i] == few]
    invariant = all(admits[conj(g, i)] == few for g in perms for i in rest)
    checked = [(1 << k) - 1 for k in range(N + 1)] if invariant else windows

    # A generating set of <members[w]>: the members of w among the elements
    # of generating_set(F, k) on the first k points, then each member not
    # yet generated.  The generated subgroup contains the identity and
    # members[w], and a finite set closed under products is a subgroup, so
    # members[w] holds the identity and is closed exactly when the two have
    # the same size.
    gens: dict[int, list[int]] = {}
    closure_ok = True
    for w in checked:
        gs: list[int] = []
        generated: dict = {G.identity: 0}
        seeds = [G.index[g + tuple(range(len(g), N * F.order))]
                 for g, _ in generating_set(F, w.bit_count())]
        for i in [j for j in seeds if admits[j] and G.sup[j] & ~w == 0] + members[w]:
            if i not in generated:
                gs.append(i)
                generated = orbit_partition(
                    [G.identity], lambda x: [G.mul(x, g) for g in gs]
                )
        gens[w] = gs
        if len(generated) != len(members[w]):
            closure_ok = False

    def orbits_under(gs: list[int], starts) -> dict[int, int]:
        """Orbits of the partial elements reached from `starts` under
        simultaneous conjugation by the group generated by gs: closing
        under the generators of a finite group gives the orbit under the
        whole group."""
        moves = [(g, mask_mover(codes[g], F)) for g in gs]

        def successors(p: int) -> list[int]:
            d, i = p & full, p >> N
            return [conj(g, i) << N | move(d) for g, move in moves]

        return orbit_partition(starts, successors)

    def inside(w: int) -> list[int]:
        """The partial elements (d, i), as the ints i << N | d, with d inside
        w: by window in canonical order, then in canonical element order."""
        return [i << N | d for d in windows if d & ~w == 0 for i in members[d]]

    every = inside(full)
    orbit_of = orbits_under(gens[full], [p for p in every if p & full != full])

    # Pairs (a, b), a < b, of positions in inside(w) are taken window by
    # window in canonical order.  The first pair conjugate at the top but
    # not inside the window has a the first member of the earliest top orbit
    # that meets several window orbits, b the first later member of that
    # orbit in another window orbit.  pairs_checked counts the pairs up to
    # and including it, as a pair-by-pair scan would visit them.
    fusion_ok = True
    witness = None
    pairs_checked = 0
    for w in checked[:-1]:
        copies = comb(N, w.bit_count()) if invariant else 1
        pes = inside(w)
        n = len(pes)
        sub_of = orbits_under(gens[w], pes)
        first: dict[int, tuple[int, int]] = {}
        split: dict[int, int] = {}
        for pos, p in enumerate(pes):
            t = orbit_of[p]
            if t not in first:
                first[t] = (pos, sub_of[p])
            elif t not in split and sub_of[p] != first[t][1]:
                split[t] = pos
        if not split:
            pairs_checked += copies * n * (n - 1) // 2
            continue
        a, b = min((first[t][0], pos) for t, pos in split.items())
        pairs_checked += a * (n - 1) - a * (a - 1) // 2 + (b - a)
        p1, p2 = pes[a], pes[b]
        witness = AuditWitness(
            w,
            PartialElement(p1 & full, decode(codes[p1 >> N], F)),
            PartialElement(p2 & full, decode(codes[p2 >> N], F)),
        )
        fusion_ok = False
        break
    else:  # in the full window the window orbits are the top orbits
        pairs_checked += len(every) * (len(every) - 1) // 2

    return AuditReport(
        family=spec.name,
        kind=spec.kind,
        level=N,
        unit_ok=unit_ok,
        closure_ok=closure_ok,
        fusion_ok=fusion_ok,
        witness=witness,
        group_size=len(members[full]),
        partial_count=len(every),
        windows_checked=len(windows),
        pairs_checked=pairs_checked,
        notes=_AUDIT_NOTES,
    )
