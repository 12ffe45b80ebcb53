"""Exhaustive verification sweeps over a family at a truncation level.

Each suite enumerates a canonical task list, checks exact integer
identities in order in one process, and returns a dict of summary counts
and its records, one per check; run_suites heads each report with the
suite's name and the family, fields no suite writes.  The sweeps walk
truncation_basis, the OmegaLabels (l, c), whose check of the element
budget is the sweep's own.  They compare the integer rows that the
kernels and vector_rows return and index no row by label id themselves;
main-lemma and invert keep only integers, and render their records one
at a time when they are written."""

from __future__ import annotations

import random
from collections.abc import Callable, Iterator
from itertools import chain
from operator import ne

from .center_algebra import s_constant
from .correspondence import (
    FamilySpec,
    admissibility_audit,
    identity_rows,
    inversion_rows,
    phi_preimage,
    phi_rows,
)
from .finite_group import FiniteGroup
from .partial_algebra import (
    OmegaLabel,
    basis_vector,
    p_constant,
    product_rows,
    truncation_basis,
    vector_rows,
)
from .wreath import (
    GroupElement,
    check_budget,
    code_class,
    code_inverse,
    compose,
    encode,
)

SUITE_NAMES = ("preflight", "main-lemma", "invert", "phi", "tower", "audit")

# random (x, y, z) triples that the preflight checks
PREFLIGHT_TRIPLES = 200


def _suite_dict(level: int, records: list[dict] | Records, failures: int | None = None) -> dict:
    if failures is None:
        failures = sum(1 for r in records if not r["ok"])
    return {
        "level": level,
        "checks": len(records),
        "failures": failures,
        "ok": failures == 0,
        "records": records,
    }


def _pairs(basis: list[OmegaLabel], N: int) -> Iterator[tuple[OmegaLabel, OmegaLabel]]:
    """Every pair of basis labels (l1, c1), (l2, c2) with l1 + l2 <= N."""
    return ((w1, w2) for w1 in basis for w2 in basis if w1.l + w2.l <= N)


class Records:
    """A suite's records kept as label ids and ints.  rows(enc) yields each
    record's values in field order, each label, list and verdict through enc."""

    __slots__ = ("fields", "count", "rows")

    def __init__(
        self, fields: tuple[str, ...], count: int,
        rows: Callable[[Callable], Iterator[tuple]],
    ):
        self.fields, self.count, self.rows = fields, count, rows

    def __len__(self) -> int:
        return self.count

    def __iter__(self) -> Iterator[dict]:
        for row in self.rows(lambda v: v):
            yield dict(zip(self.fields, row))


def main_lemma_suite(spec: FamilySpec, N: int) -> dict:
    """Check xi' xi'' S = sum xi P for every pair of class labels at level N
    and every target class at every level l <= N.

    For each pair, identity_rows gives the S side and the P rows at every
    level; the S side and phi_rows of the P rows are kept as the two
    sides, in target order."""
    F = spec.base
    basis = truncation_basis(N, F)
    lhs: list[int] = []
    rhs: list[int] = []
    for w1 in basis:
        for w2 in basis:
            sides, prows = identity_rows(w1, w2, N, F)
            lhs.extend(chain.from_iterable(sides))
            rhs.extend(chain.from_iterable(phi_rows(prows, F)))

    def records(enc):
        names = [(w.l, enc(w.c.display(F))) for w in basis]
        flags, sides = (enc(False), enc(True)), zip(lhs, rhs)
        for l1, c1 in names:
            for l2, c2 in names:
                for (l, c), (a, b) in zip(names, sides):
                    yield l1, c1, l2, c2, l, c, a, b, flags[a == b]

    fields = ("l1", "c1", "l2", "c2", "l", "c", "lhs", "rhs", "ok")
    return _suite_dict(N, Records(fields, len(lhs), records), sum(map(ne, lhs, rhs)))


def inversion_suite(spec: FamilySpec, N: int) -> dict:
    """Solve (1 + R) P = S by forward substitution for every pair with
    l' + l'' <= N and every target, all targets of a pair at once, and
    compare against directly counted P; only the P values are kept."""
    F = spec.base
    basis = truncation_basis(N, F)
    sides = [side for w1, w2 in _pairs(basis, N) for side in inversion_rows(w1, w2, F)]

    def records(enc):
        # the targets of a pair are the classes of level l1 + l2, by label id
        shown = {w: w.display(F) for w in basis}
        targets = [[w.c.display(F) for w in basis if w.l == l] for l in range(N + 1)]
        each = iter(sides)
        for w1, w2 in _pairs(basis, N):
            levels = range(max(w1.l, w2.l), w1.l + w2.l + 1)
            for c, (s, b) in zip(targets[w1.l + w2.l], each):
                yield tuple(map(enc, (
                    shown[w1], shown[w2], c, list(levels), list(s), list(b), s == b,
                )))

    fields = ("omega1", "omega2", "c", "levels", "solved", "brute", "ok")
    return _suite_dict(N, Records(fields, len(sides), records), sum(s != b for s, b in sides))


def phi_suite(spec: FamilySpec, N: int) -> dict:
    """Check that phi is multiplicative levelwise on untruncated products
    (images xi(l', c; l) e[c(l)] multiply as a scaled center_row), upper
    triangular with unit diagonal, and that preimages map back."""
    F = spec.base
    basis = truncation_basis(N, F)
    shown = {w: w.display(F) for w in basis}
    units = {w: vector_rows(basis_vector(w, N), F) for w in basis}
    records = []
    for w1, w2 in _pairs(basis, N):
        sides, prows = identity_rows(w1, w2, N, F)
        records.append({"kind": "product", "omega1": shown[w1], "omega2": shown[w2],
                        "ok": sides == phi_rows(prows, F)})
    for w in basis:
        ok = phi_rows(units[w], F)[:w.l + 1] == units[w][:w.l + 1]
        records.append({"kind": "triangular", "omega": shown[w], "ok": ok})
    for w in basis:
        img = phi_rows(vector_rows(phi_preimage(w.c, w.l, N, F), F), F)
        records.append({"kind": "preimage", "target": f"{w.c.display(F)}({w.l})",
                        "ok": img == units[w]})
    return _suite_dict(N, records)


def tower_suite(spec: FamilySpec, N: int) -> dict:
    """Check that products commute with truncation, a slice of the rows,
    and with the order of the factors: for every ordered pair of basis
    labels, its rows at level N, read once, cut to each np < N equal the
    rows computed at np, and equal the rows of the other order.  The two
    orders read the factor_rows of different first classes, so a one-sided
    miscount fails; a symmetric one is left to main-lemma, invert and phi,
    which compare P with S."""
    F = spec.base
    basis = truncation_basis(N, F)
    shown = [w.display(F) for w in basis]
    rows = [[product_rows(w1, w2, N, F) for w2 in basis] for w1 in basis]
    records = []
    for i, (w1, s1) in enumerate(zip(basis, shown)):
        for j, (w2, s2) in enumerate(zip(basis, shown)):
            top = rows[i][j]
            ok = all(top[:np + 1] == product_rows(w1, w2, np, F)
                     for np in range(N)) and top == rows[j][i]
            records.append({"omega1": s1, "omega2": s2, "ok": ok})
    return _suite_dict(N, records)


# --- audit ---

def audit_suite(spec: FamilySpec, N: int) -> dict:
    """Admissibility audit wrapped with its expectation: the d_type family
    is expected to violate fusion from three points on (below that there is
    no room for the even element that fuses the two halves of a class),
    everything else is expected to pass."""
    rep = admissibility_audit(spec, N)
    expect_violation = spec.kind == "d_type" and N >= 3
    as_expected = rep.passed != expect_violation
    return {
        "kind": spec.kind,
        "level": N,
        "unit_ok": rep.unit_ok,
        "closure_ok": rep.closure_ok,
        "fusion_ok": rep.fusion_ok,
        "passed": rep.passed,
        "expected_violation": expect_violation,
        "ok": as_expected,
        "witness": rep.witness.display(spec.base) if rep.witness else None,
        "group_size": rep.group_size,
        "partial_count": rep.partial_count,
        "windows_checked": rep.windows_checked,
        "pairs_checked": rep.pairs_checked,
        "notes": list(rep.notes),
    }


# --- random element-arithmetic preflight ---

def _random_element(rng: random.Random, F: FiniteGroup, n: int) -> GroupElement:
    perm = list(range(n))
    rng.shuffle(perm)
    deco = tuple(rng.randrange(F.order) for _ in range(n))
    return GroupElement(n, tuple(perm), deco)


def preflight_suite(spec: FamilySpec, N: int, seed: int) -> dict:
    """Seeded random spot checks: compose, code_inverse and code_class
    against multiply, inverse, class_label and support of classalg.oracles;
    associativity, supports of products and labels under conjugation on
    codes; and that S and P, read one constant at a time as sconst and
    pconst do, count the factorization x y."""
    from .oracles import class_label, inverse, multiply, support

    F = spec.base
    n = min(N, 3)
    check_budget(F, n)
    rng = random.Random(seed)
    ok = True
    for _ in range(PREFLIGHT_TRIPLES):
        x, y, z = (_random_element(rng, F, n) for _ in range(3))
        xy = multiply(x, y, F)
        cx, cy, cz = (encode(a, F) for a in (x, y, z))
        cxy, cx_inv = compose(cx, cy), code_inverse(cx)
        classes = [code_class(a, F) for a in (cx, cy, cxy)]
        labels, (sx, sy, sxy) = zip(*classes)
        d1, d2 = (sup | rng.getrandbits(n) for sup in (sx, sy))
        windows = [d.bit_count() for d in (d1, d2, d1 | d2)]
        if (
            cxy != encode(xy, F)
            or cx_inv != encode(inverse(x, F), F)
            or classes != [(class_label(a, F), support(a, F)) for a in (x, y, xy)]
            or compose(cxy, cz) != compose(cx, compose(cy, cz))
            or sxy & ~(sx | sy)
            or code_class(compose(cxy, cx_inv), F)[0] != labels[1]
            or s_constant(*labels, n, F) < 1
            or p_constant(*map(OmegaLabel, windows, labels), F) < 1
        ):
            ok = False
            break
    return {
        "level": n,
        "seed": seed,
        "checks": PREFLIGHT_TRIPLES,
        "failures": 0 if ok else 1,
        "ok": ok,
    }


def run_suites(names: list[str], spec: FamilySpec, N: int, seed: int = 0) -> dict:
    """Run the named suites in canonical order: the names skipped, the
    reports of those run, each headed by suite and family, and if all are ok."""
    wanted = [s for s in SUITE_NAMES if s in names]
    # class machinery is undefined for a family that breaks fusion
    skipped = [s for s in wanted if spec.kind == "d_type" and s not in ("audit", "preflight")]
    # looked up at each call: bench/spans.py rebinds the suite functions to time them
    by_name = {"preflight": lambda spec, N: preflight_suite(spec, N, seed),
               "main-lemma": main_lemma_suite, "invert": inversion_suite,
               "phi": phi_suite, "tower": tower_suite, "audit": audit_suite}
    suites = [{"suite": name, "family": spec.name, **by_name[name](spec, N)}
              for name in wanted if name not in skipped]
    return {"skipped": skipped, "suites": suites, "ok": all(s["ok"] for s in suites)}
