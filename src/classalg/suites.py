"""Exhaustive verification sweeps over a family at a truncation level.

Each suite enumerates a canonical task list, checks exact integer
identities in order in one process, and returns a dict of summary counts
and its records, one per check.  Main-lemma, with tens of thousands of
checks, holds only both sides of each check as integers, and its records
are rendered as dicts one at a time when iterated (MainLemmaRecords), so
output is written without holding them.  The sweeps read structure
constants a row at a time: one S row of (c1, c) and one P row of
(omega1, omega) serve every second class, indexed by label id (a label's
position in labels_with_alpha_up_to), and the element budget is checked
once per level rather than once per constant."""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass
from operator import ne

from .center_algebra import center_product
from .correspondence import (
    FamilySpec,
    admissibility_audit,
    main_lemma_row,
    phi,
    phi_preimage,
    verify_inversion,
)
from .finite_group import FiniteGroup
from .partial_algebra import (
    AlgebraVector,
    OmegaLabel,
    basis_vector,
    ik_product,
    project,
    truncation_basis,
)
from .wreath import (
    GroupElement,
    check_budget,
    class_label,
    compose,
    conjugate,
    encode,
    inverse,
    labels_with_alpha_up_to,
    multiply,
    support,
)

SUITE_NAMES = ("preflight", "main-lemma", "invert", "phi", "tower", "audit")

# random (x, y, z) triples that the preflight checks
PREFLIGHT_TRIPLES = 200


def _suite_dict(
    name: str, spec: FamilySpec, level: int,
    records: list[dict] | MainLemmaRecords, failures: int | None = None,
) -> dict:
    if failures is None:
        failures = sum(1 for r in records if not r["ok"])
    return {
        "suite": name,
        "family": spec.name,
        "level": level,
        "checks": len(records),
        "failures": failures,
        "ok": failures == 0,
        "records": records,
    }


@dataclass(frozen=True)
class MainLemmaRecords:
    """The main-lemma records in (first, second, target) order over basis,
    kept as their lhs and rhs integers; iterating renders each record as
    a dict, one at a time."""

    basis: list[tuple[int, int]]  # (level, label id) of every class label
    shown: list[str]  # display of every label id
    lhs: list[int]
    rhs: list[int]

    def __len__(self) -> int:
        return len(self.lhs)

    def __iter__(self) -> Iterator[dict]:
        basis, shown = self.basis, self.shown
        sides = zip(self.lhs, self.rhs)
        for l1, i1 in basis:
            for l2, i2 in basis:
                for (l, i), (lhs, rhs) in zip(basis, sides):
                    yield {
                        "l1": l1,
                        "c1": shown[i1],
                        "l2": l2,
                        "c2": shown[i2],
                        "l": l,
                        "c": shown[i],
                        "lhs": lhs,
                        "rhs": rhs,
                        "ok": lhs == rhs,
                    }


def main_lemma_suite(
    spec: FamilySpec, N: int, budget: int | None = None
) -> dict:
    """Check xi' xi'' S = sum xi P for every pair of class labels at level N
    and every target class at every level l <= N.

    For each first class and target, one main_lemma_row holds both sides
    for every second class; the sides are kept in (first, second, target)
    order and MainLemmaRecords renders them as records."""
    F = spec.base
    for l in range(N + 1):
        check_budget(F, l, budget)
    labels = labels_with_alpha_up_to(N, F)
    basis = [
        (l, j) for l in range(N + 1)
        for j in range(len(labels_with_alpha_up_to(l, F)))
    ]
    lhs: list[int] = []
    rhs: list[int] = []
    for l1, i1 in basis:
        w1 = OmegaLabel(l1, labels[i1])
        rows = [main_lemma_row(w1, l, labels[i], F) for l, i in basis]
        for l2, i2 in basis:
            for (l, _), row in zip(basis, rows):
                a, b = row[l2][i2] if l2 <= l else (0, 0)
                lhs.append(a)
                rhs.append(b)
    shown = [c.display(F) for c in labels]
    records = MainLemmaRecords(basis, shown, lhs, rhs)
    return _suite_dict("main-lemma", spec, N, records, sum(map(ne, lhs, rhs)))


def inversion_suite(
    spec: FamilySpec, N: int, budget: int | None = None
) -> dict:
    """Solve (1 + R) P = S by forward substitution for every pair with
    l' + l'' <= N and compare against directly counted P."""
    F = spec.base
    basis = truncation_basis(N, F)
    records = []
    for w1 in basis:
        for w2 in basis:
            if w1.l + w2.l > N:
                continue
            for c in labels_with_alpha_up_to(w1.l + w2.l, F):
                rec = verify_inversion(w1, w2, c, F, budget)
                records.append(
                    {
                        "omega1": w1.display(F),
                        "omega2": w2.display(F),
                        "c": c.display(F),
                        "levels": list(rec.levels),
                        "solved": list(rec.solved),
                        "brute": list(rec.brute),
                        "ok": rec.ok,
                    }
                )
    return _suite_dict("invert", spec, N, records)


def phi_suite(
    spec: FamilySpec, N: int, budget: int | None = None
) -> dict:
    """Check that phi is multiplicative levelwise on untruncated products,
    upper triangular with unit diagonal, and that computed preimages map
    back to the intended class sums."""
    F = spec.base
    basis = truncation_basis(N, F)
    records = []
    for w1 in basis:
        for w2 in basis:
            if w1.l + w2.l > N:
                continue
            e1, e2 = basis_vector(w1, N), basis_vector(w2, N)
            img1, img2 = phi(e1, F), phi(e2, F)
            lhs = {
                l: center_product(img1[l], img2[l], F, budget)
                for l in range(N + 1)
            }
            rhs = phi(ik_product(e1, e2, F, budget), F)
            records.append(
                {
                    "kind": "product",
                    "omega1": w1.display(F),
                    "omega2": w2.display(F),
                    "ok": lhs == rhs,
                }
            )
    for w in basis:
        img = phi(basis_vector(w, N), F)
        lead_ok = img[w.l].as_dict() == {w.c: 1}
        below_ok = all(img[l].is_zero() for l in range(w.l))
        records.append(
            {"kind": "triangular", "omega": w.display(F), "ok": lead_ok and below_ok}
        )
    for l in range(N + 1):
        for c in labels_with_alpha_up_to(l, F):
            img = phi(phi_preimage(c, l, N, F), F)
            ok = all(
                img[j].as_dict() == ({c: 1} if j == l else {})
                for j in range(N + 1)
            )
            records.append(
                {"kind": "preimage", "target": f"{c.display(F)}({l})", "ok": ok}
            )
    return _suite_dict("phi", spec, N, records)


def _tower_ok(
    w1: OmegaLabel, w2: OmegaLabel, N: int, F: FiniteGroup, budget: int | None
) -> bool:
    v = ik_product(basis_vector(w1, N), basis_vector(w2, N), F, budget)
    below = [project(v, np) for np in range(N + 1)]
    for np, pv in enumerate(below):
        e1 = basis_vector(w1, np) if w1.l <= np else AlgebraVector(np, ())
        e2 = basis_vector(w2, np) if w2.l <= np else AlgebraVector(np, ())
        if pv != ik_product(e1, e2, F, budget):
            return False
        if any(project(pv, npp) != below[npp] for npp in range(np + 1)):
            return False
    return True


def tower_suite(
    spec: FamilySpec, N: int, budget: int | None = None
) -> dict:
    """Check that truncation projections commute with products and compose,
    over every pair of basis labels at level N."""
    F = spec.base
    basis = truncation_basis(N, F)
    records = [
        {
            "omega1": w1.display(F),
            "omega2": w2.display(F),
            "ok": _tower_ok(w1, w2, N, F, budget),
        }
        for w1 in basis
        for w2 in basis
    ]
    return _suite_dict("tower", spec, N, records)


# --- audit ---

def audit_suite(spec: FamilySpec, N: int, budget: int | None = None) -> dict:
    """Admissibility audit wrapped with its expectation: the d_type family
    is expected to violate fusion from three points on (below that there is
    no room for the even element that fuses the two halves of a class),
    everything else is expected to pass."""
    rep = admissibility_audit(spec, N, budget)
    expect_violation = spec.kind == "d_type" and N >= 3
    as_expected = rep.passed != expect_violation
    return {
        "suite": "audit",
        "family": spec.name,
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
    """Seeded random spot checks of the element arithmetic: associativity,
    support of products, label invariance under conjugation, and the
    encoding: the composed codes of x and y are the code of x y, and the
    code of x^-1 inverts the code of x."""
    F = spec.base
    n = min(N, 3) if N else 0
    identity = tuple(range(n * F.order))
    rng = random.Random(seed)
    ok = True
    for _ in range(PREFLIGHT_TRIPLES):
        x, y, z = (_random_element(rng, F, n) for _ in range(3))
        xy, cx = multiply(x, y, F), encode(x, F)
        if (
            multiply(xy, z, F) != multiply(x, multiply(y, z, F), F)
            or compose(cx, encode(y, F)) != encode(xy, F)
            or compose(encode(inverse(x, F), F), cx) != identity
            or support(xy, F) & ~(support(x, F) | support(y, F))
            or class_label(conjugate(x, y, F), F) != class_label(y, F)
        ):
            ok = False
            break
    return {
        "suite": "preflight",
        "family": spec.name,
        "level": n,
        "seed": seed,
        "checks": PREFLIGHT_TRIPLES,
        "failures": 0 if ok else 1,
        "ok": ok,
    }


def run_suites(
    names: list[str],
    spec: FamilySpec,
    N: int,
    seed: int = 0,
    budget: int | None = None,
) -> dict:
    """Run the named suites in canonical order and combine their reports."""
    wanted = [s for s in SUITE_NAMES if s in names]
    skipped: list[str] = []
    if spec.kind == "d_type":
        # class machinery is undefined for a family that breaks fusion
        skipped = [s for s in wanted if s not in ("audit", "preflight")]
        wanted = [s for s in wanted if s in ("audit", "preflight")]
    suites = []
    for name in wanted:
        if name == "preflight":
            suites.append(preflight_suite(spec, N, seed))
        elif name == "main-lemma":
            suites.append(main_lemma_suite(spec, N, budget))
        elif name == "invert":
            suites.append(inversion_suite(spec, N, budget))
        elif name == "phi":
            suites.append(phi_suite(spec, N, budget))
        elif name == "tower":
            suites.append(tower_suite(spec, N, budget))
        elif name == "audit":
            suites.append(audit_suite(spec, N, budget))
    return {
        "schema": 1,
        "command": "verify",
        "family": spec.name,
        "level": N,
        "skipped": skipped,
        "suites": suites,
        "ok": all(s["ok"] for s in suites),
    }
