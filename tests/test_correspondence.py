"""xi coefficients, the diagonal identity, triangular systems, phi, audits."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classalg.correspondence as correspondence_mod
import classalg.suites as suites_mod
import classalg.wreath as wreath_mod
from classalg import (
    AlgebraVector,
    BudgetExceeded,
    ClassLabel,
    FamilySpec,
    GroupElement,
    InvalidLabel,
    LevelMismatch,
    OmegaLabel,
    ParseError,
    UnknownBuiltin,
    admissibility_audit,
    basis_vector,
    builtin_group,
    center_product,
    element_budget,
    forward_substitute,
    ik_product,
    labels_with_alpha_up_to,
    level_group,
    p_constant,
    parse_family,
    phi_preimage,
    project,
    s_constant,
    truncation_basis,
    xi_closed_form,
)
from classalg.correspondence import (
    _AUDIT_NOTES,
    AuditReport,
    AuditWitness,
    identity_rows,
    inversion_rows,
    phi_rows,
)
from classalg.finite_group import TRIVIAL, orbit_partition
from classalg.oracles import (
    class_label, d_type_membership, level_views, phi_oracle, xi_count_oracle,
)
from classalg.partial_algebra import PartialElement, vector_rows
from classalg.suites import (
    SUITE_NAMES, audit_suite, main_lemma_suite, run_suites, tower_suite,
)
from classalg.wreath import apply_perm_to_mask, decode, encode
from user_groups import ALTERNATING4, DIHEDRAL8, QUATERNION, SYM3_SHIFTED

Z2 = builtin_group("cyclic2")


def CL(parts):
    return ClassLabel.from_pairs((p, 0) for p in parts)


def OM(l, parts):
    return OmegaLabel(l, CL(parts))


def inversion_entry(w1, w2, c, F=TRIVIAL):
    """The (solved, brute) pair of target c in inversion_rows."""
    return inversion_rows(w1, w2, F)[labels_with_alpha_up_to(w1.l + w2.l, F).index(c)]


def phi_image(v, F):
    """phi(v) as one center vector per level, from phi_rows of its rows."""
    return [AlgebraVector.from_row(l, labels_with_alpha_up_to(l, F), row)
            for l, row in enumerate(phi_rows(vector_rows(v, F), F))]


# --- xi ---

def test_xi_values():
    assert xi_closed_form(1, CL([]), 3) == 3
    assert xi_closed_form(3, CL([2]), 4) == 2
    assert xi_closed_form(2, CL([2]), 2) == 1
    assert xi_closed_form(2, CL([3]), 5) == 0  # window smaller than the class core
    assert xi_closed_form(4, CL([]), 3) == 0  # window larger than the level
    assert xi_closed_form(0, CL([]), 0) == 1


@pytest.mark.parametrize("F,maxl", [(TRIVIAL, 8), (Z2, 4)])
def test_xi_closed_form_matches_counting_oracle(F, maxl):
    for l in range(maxl + 1):
        for c in labels_with_alpha_up_to(maxl, F):
            for lp in range(l + 1):
                assert xi_closed_form(lp, c, l) == xi_count_oracle(lp, c, l, F), (
                    lp, c, l,
                )


@pytest.mark.parametrize("F,maxl", [(TRIVIAL, 5), (Z2, 3)])
def test_xi_count_independent_of_class_member(F, maxl):
    for l in range(maxl + 1):
        for c in labels_with_alpha_up_to(l, F):
            for lp in range(l + 1):
                assert xi_count_oracle(
                    lp, c, l, F, all_members=True
                ) == xi_closed_form(lp, c, l)


@settings(max_examples=100, deadline=None)
@given(lp=st.integers(0, 12), l=st.integers(0, 12), parts=st.lists(st.integers(2, 4), max_size=3))
def test_xi_diagonal_and_monotone(lp, l, parts):
    c = CL(parts)
    v = xi_closed_form(lp, c, l)
    assert v >= 0
    if lp == l:
        assert v == (1 if c.alpha <= l else 0)
    if c.alpha <= lp <= l:
        assert v >= 1


# --- the diagonal identity ---

def test_main_lemma_worked_instance():
    # both sides at level 2, on the targets [] and [2]
    sides, prows = identity_rows(OM(1, []), OM(1, []), 2, TRIVIAL)
    assert sides[2] == phi_rows(prows, TRIVIAL)[2] == (4, 0)


def test_main_lemma_empty_class_inputs():
    # a class that needs more points than its window labels no partial
    # element, and below both windows both sides are zero rows
    with pytest.raises(InvalidLabel):
        OM(1, [2])
    sides, prows = identity_rows(OM(2, [2]), OM(2, [2]), 1, TRIVIAL)
    assert sides == phi_rows(prows, TRIVIAL) == [(0,), (0,)]


@pytest.mark.parametrize("family,N", [("sym", 4), ("wreath:cyclic2", 3)])
def test_main_lemma_suite_matches_single_records(family, N):
    """The row-driven suite emits, record for record and in (first,
    second, target) order, the two sides of the identity as the
    single-constant readers give them: xi' xi'' s_constant and the sum
    over lt of xi(lt, c; l) p_constant."""
    spec = parse_family(family)
    F = spec.base
    basis = truncation_basis(N, F)
    records = main_lemma_suite(spec, N)["records"]
    triples = [(w1, w2, w) for w1 in basis for w2 in basis for w in basis]
    assert len(records) == len(triples)
    for got, (w1, w2, w) in zip(records, triples):
        x = xi_closed_form(w1.l, w1.c, w.l) * xi_closed_form(w2.l, w2.c, w.l)
        lhs = x * s_constant(w1.c, w2.c, w.c, w.l, F)
        rhs = sum(xi_closed_form(lt, w.c, w.l) * p_constant(w1, w2, OmegaLabel(lt, w.c), F)
                  for lt in range(w.c.alpha, w.l + 1))
        assert got == {
            "l1": w1.l, "c1": w1.c.display(F),
            "l2": w2.l, "c2": w2.c.display(F),
            "l": w.l, "c": w.c.display(F),
            "lhs": lhs, "rhs": rhs, "ok": lhs == rhs,
        }


def test_main_lemma_suite_holds_no_record_dicts():
    """With the row caches warm, what the suite's result keeps is its two
    integers per check (54,872 checks here), not one dict per check."""
    spec = parse_family("wreath:cyclic2")
    main_lemma_suite(spec, 4)
    tracemalloc.start()
    try:
        rep = main_lemma_suite(spec, 4)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep["checks"] == 54872 and rep["failures"] == 0
    assert held < 3 * 2**20


def test_main_lemma_diagonal_reduces_to_s_equals_p():
    """At l' = l'' = l the only surviving term is xi(l,c;l) = 1, so the
    identity pins P on the diagonal to S."""
    for F, l in ((TRIVIAL, 4), (Z2, 2)):
        labels = labels_with_alpha_up_to(l, F)
        for c1 in labels:
            for c2 in labels:
                for c in labels:
                    assert p_constant(
                        OmegaLabel(l, c1), OmegaLabel(l, c2), OmegaLabel(l, c), F
                    ) == s_constant(c1, c2, c, l, F), (c1, c2, c)


# --- triangular systems ---

def test_r_system_frozen_example():
    # xi xi S at levels 1, 2: S = 1 at both, xi(1, []; 2) = 2 twice
    assert xi_closed_form(1, CL([]), 2) == 2
    assert forward_substitute((1, 4), (1, 2), CL([])) == (1, 2)
    # solved and counted at the levels 1, 2
    assert inversion_entry(OM(1, []), OM(1, []), CL([])) == ((1, 2), (1, 2))


def test_r_system_with_gap():
    assert forward_substitute((0, 3, 3), (2, 3, 4), CL([3])) == (0, 3, 0)
    # solved at the levels 2, 3, 4
    assert inversion_entry(OM(2, [2]), OM(2, [2]), CL([3]))[0] == (0, 3, 0)


def test_r_system_strictly_lower_triangular():
    """1 + R is unipotent lower triangular: xi(levels[j], c; levels[i]) is
    1 on the diagonal and 0 above it, so forward substitution reads only
    the entries below."""
    levels = (2, 3)  # max(l1, l2)..l1 + l2
    solved, brute = inversion_entry(OM(2, [2]), OM(1, []), CL([2]))
    assert len(solved) == len(brute) == len(levels)
    for i in range(len(levels)):
        assert xi_closed_form(levels[i], CL([2]), levels[i]) == 1
        for j in range(i + 1, len(levels)):
            assert xi_closed_form(levels[j], CL([2]), levels[i]) == 0


def test_inversion_record():
    solved, brute = inversion_entry(OM(2, [2]), OM(2, [2]), CL([3]))
    assert solved == brute == (0, 3, 0)


def test_inversion_keeps_a_budget_above_the_default():
    """11! is over the default budget of 10^7 elements; a larger budget
    reaches every row the inversion reads."""
    args = (OM(6, []), OM(5, []), CL([]))
    with pytest.raises(BudgetExceeded):
        inversion_entry(*args)
    with element_budget(10**8):
        solved, brute = inversion_entry(*args)
    assert solved == brute == (6, 105, 560, 1260, 1260, 462)


def test_main_lemma_keeps_a_budget_above_the_default():
    """identity_rows checks the budget at every level it reads, so it stops
    at level 11 unless it is given more."""
    args = (OM(6, []), OM(5, []), 11, TRIVIAL)
    with pytest.raises(BudgetExceeded):
        identity_rows(*args)
    with element_budget(10**8):
        sides, prows = identity_rows(*args)
    assert sides[11][0] == phi_rows(prows, TRIVIAL)[11][0] == 462 * 462


def test_suites_keep_the_budget_they_are_given(monkeypatch):
    """With the default budget below |S_2|, every suite runs at level 3
    only inside an element_budget block that raises it."""
    monkeypatch.setattr(wreath_mod, "DEFAULT_ELEMENT_BUDGET", 1)
    spec = FamilySpec.symmetric()
    for name in SUITE_NAMES:
        with pytest.raises(BudgetExceeded):
            run_suites([name], spec, 3)
        with element_budget(6):
            assert run_suites([name], spec, 3)["ok"], name


def test_run_suites_returns_only_its_suites():
    """The header of the verify document (schema, command, family, level)
    is the CLI's; run_suites reports the suites alone."""
    for spec in (FamilySpec.symmetric(), FamilySpec.d_type()):
        rep = run_suites(["preflight", "phi", "audit"], spec, 2)
        assert list(rep) == ["skipped", "suites", "ok"]


def test_tower_reads_each_truncation_once(monkeypatch):
    """The tower reads the rows of each of the 1,444 pairs at wreath:cyclic2
    level 4 through product_rows, once at level 4 and once at each lower
    level it compares them with."""
    calls = []
    read = suites_mod.product_rows

    def counted(*args):
        calls.append(args)
        return read(*args)

    monkeypatch.setattr(suites_mod, "product_rows", counted)
    res = tower_suite(FamilySpec.wreath(Z2, "wreath:cyclic2"), 4)
    assert res["ok"] and res["checks"] == 1444
    assert len(calls) == 1444 * 5 == 7220


@pytest.fixture
def one_sided_miscount(monkeypatch):
    """install(N): representative_factors with one overlap count off by one
    in each row that it reads transposed, from the row of (c, c1), at level
    N, so that only the rows of some first factors are wrong.  The cell is
    chosen, not taken in dict order: the least second class by sort_key and
    its least overlap.  factor_rows files the rows, so its cache is cleared
    on the way in and on the way out."""
    import classalg.partial_algebra as pa

    real = pa.representative_factors

    def install(N):
        def miscounted(c1, c, l, F):
            out = real(c1, c, l, F)
            size = wreath_mod.class_size
            if l != N or (size(c1, l, F), c1.sort_key()) <= (size(c, l, F), c.sort_key()):
                return out
            out = {c2: dict(counts) for c2, counts in out.items()}
            counts = out[min(out, key=ClassLabel.sort_key)]
            counts[min(counts)] += 1
            return out

        monkeypatch.setattr(pa, "representative_factors", miscounted)
        pa.factor_rows.cache_clear()

    yield install
    monkeypatch.undo()
    pa.factor_rows.cache_clear()


@pytest.mark.parametrize("family, N, checks, tower, lemma", [
    ("sym", 5, 361, 92, 36), ("wreath:cyclic2", 3, 324, 78, 15),
], ids=["sym-5", "wreath:cyclic2-3"])
def test_tower_catches_a_one_sided_miscount(
    one_sided_miscount, family, N, checks, tower, lemma
):
    """A miscount in the rows of one first factor leaves the truncations
    consistent but breaks the order of the factors, which the tower
    compares; main-lemma, which compares P with S, fails as well."""
    spec = parse_family(family)
    one_sided_miscount(N)
    res = tower_suite(spec, N)
    assert (res["checks"], res["failures"]) == (checks, tower)
    assert main_lemma_suite(spec, N)["failures"] == lemma


def test_preflight_counts_each_sampled_product(monkeypatch):
    """A product x y is a factorization that S and P must count, so a
    constant read as 0 fails the preflight."""
    spec = FamilySpec.wreath(Z2, "wreath:cyclic2")
    assert run_suites(["preflight"], spec, 3)["ok"]
    for name in ("s_constant", "p_constant"):
        with monkeypatch.context() as m:
            m.setattr(suites_mod, name, lambda *args: 0)
            assert not run_suites(["preflight"], spec, 3)["ok"], name


def test_preflight_checks_codes_against_reference(monkeypatch):
    """compose, code_inverse and code_class, as the suites read them, are
    checked against the GroupElement arithmetic of classalg.oracles, so a
    corrupted one fails the preflight."""
    spec = FamilySpec.wreath(Z2, "wreath:cyclic2")
    code_class = wreath_mod.code_class
    corrupted = [
        ("compose", lambda a, b: wreath_mod.compose(b, a)),
        ("code_inverse", lambda a: a),
        ("code_class", lambda code, F: (code_class(code, F)[0], 0)),
        ("code_class", lambda code, F: (ClassLabel(()), code_class(code, F)[1])),
    ]
    for name, fake in corrupted:
        with monkeypatch.context() as m:
            m.setattr(suites_mod, name, fake)
            assert not run_suites(["preflight"], spec, 3)["ok"], name


# --- phi ---

def test_phi_of_singleton_class():
    img = phi_image(basis_vector(OM(1, []), 3), TRIVIAL)
    assert len(img) == 4
    for l in range(4):
        assert dict(img[l].terms) == ({CL([]): l} if l else {})


def test_phi_is_triangular_with_unit_diagonal():
    for F, N in ((TRIVIAL, 4), (Z2, 3)):
        for w in truncation_basis(N, F):
            img = phi_image(basis_vector(w, N), F)
            assert dict(img[w.l].terms) == {w.c: 1}
            for l in range(w.l):
                assert not img[l].terms


def test_phi_multiplicative_on_untruncated_products():
    for F, N in ((TRIVIAL, 4), (Z2, 3)):
        basis = truncation_basis(N, F)
        for w1 in basis:
            for w2 in basis:
                if w1.l + w2.l > N:
                    continue
                e1, e2 = basis_vector(w1, N), basis_vector(w2, N)
                img1, img2 = phi_image(e1, F), phi_image(e2, F)
                rhs = phi_image(ik_product(e1, e2, F), F)
                for l in range(N + 1):
                    assert center_product(img1[l], img2[l], F) == rhs[l], (w1, w2, l)


@pytest.mark.parametrize("F,N", [(TRIVIAL, 3), (Z2, 2)])
def test_phi_matches_literal_window_forgetting(F, N):
    """phi agrees with literally summing every class member into the group
    algebra and forgetting windows."""
    for l in range(N + 1):
        elements = level_views(F, l).elements
        for w in truncation_basis(N, F):
            tally = phi_oracle(w, l, F)
            x = xi_closed_form(w.l, w.c, l)
            assert tally == [
                x if class_label(a, F) == w.c else 0 for a in elements
            ], (w, l)


def test_phi_preimage_frozen_examples():
    v = phi_preimage(CL([2]), 2, 3, TRIVIAL)
    assert dict(v.terms) == {OM(2, [2]): 1, OM(3, [2]): -1}
    v = phi_preimage(CL([]), 0, 1, TRIVIAL)
    assert dict(v.terms) == {OM(0, []): 1, OM(1, []): -1}


def test_phi_preimage_round_trip():
    for F, N in ((TRIVIAL, 5), (Z2, 3)):
        for l in range(N + 1):
            for c in labels_with_alpha_up_to(l, F):
                v = phi_preimage(c, l, N, F)
                img = phi_image(v, F)
                for j in range(N + 1):
                    expected = {c: 1} if j == l else {}
                    assert dict(img[j].terms) == expected, (c, l, j)


def test_phi_preimage_errors():
    with pytest.raises(InvalidLabel):
        phi_preimage(CL([2]), 1, 3, TRIVIAL)
    with pytest.raises(LevelMismatch):
        phi_preimage(CL([2]), 4, 3, TRIVIAL)


BIG = 10**5000


@pytest.mark.parametrize("call, error", [
    (lambda: phi_preimage(ClassLabel(((BIG, 0),)), BIG - 1, 3, TRIVIAL), InvalidLabel),
    (lambda: phi_preimage(CL([2]), BIG, 3, TRIVIAL), LevelMismatch),
    (lambda: project(basis_vector(OM(1, []), 2), BIG), LevelMismatch),
    (lambda: ik_product(basis_vector(OM(1, []), BIG), basis_vector(OM(1, []), 2), TRIVIAL),
     LevelMismatch),
], ids=["phi_preimage-alpha", "phi_preimage-level", "project", "expand"])
def test_level_errors_clip_huge_levels(call, error):
    """A level of 5,001 digits, more than str() converts, is quoted clipped,
    so the library's own error is raised rather than a ValueError."""
    with pytest.raises(error) as exc:
        call()
    assert len(str(exc.value)) < 300


# --- families and the audit ---

def test_parse_family():
    assert parse_family("sym").kind == "symmetric"
    assert parse_family("dtype").kind == "d_type"
    spec = parse_family("wreath:cyclic2")
    assert spec.kind == "wreath" and spec.base.order == 2
    assert parse_family("wreath:sym3").base.order == 6
    assert parse_family("wreath", TRIVIAL).name == "wreath:file"
    with pytest.raises(ParseError):
        parse_family("wreath")
    with pytest.raises(ParseError):
        parse_family("nosuch")
    with pytest.raises(UnknownBuiltin):
        parse_family("wreath:nosuch")


def test_family_membership_rules():
    sym = FamilySpec.symmetric()
    assert sym.admits(encode(GroupElement(2, (1, 0), (0, 0)), TRIVIAL))
    dt = FamilySpec.d_type()
    assert dt.admits(encode(GroupElement(2, (1, 0), (1, 1)), Z2))
    assert not dt.admits(encode(GroupElement(2, (1, 0), (1, 0)), Z2))


def test_d_type_admits_agrees_with_reference():
    """admits reads the decoration parity off the code; the reference
    counts the decorations of the decoded element."""
    dt = FamilySpec.d_type()
    for n in range(5):
        for code in level_group(Z2, n).codes:
            assert dt.admits(code) == d_type_membership(decode(code, Z2), Z2)


def test_audit_passes_for_symmetric():
    rep = admissibility_audit(FamilySpec.symmetric(), 4)
    assert rep.passed
    assert rep.unit_ok and rep.closure_ok and rep.fusion_ok
    assert rep.witness is None
    assert rep.group_size == 24
    assert rep.partial_count == 65


def test_audit_passes_for_signed_wreath():
    rep = admissibility_audit(FamilySpec.wreath(Z2, "wreath:cyclic2"), 3)
    assert rep.passed
    assert rep.group_size == 48
    assert rep.partial_count == 79


def test_audit_fails_for_d_type_with_expected_witness():
    rep = admissibility_audit(FamilySpec.d_type(), 3)
    assert not rep.passed
    assert rep.unit_ok and rep.closure_ok and not rep.fusion_ok
    w = rep.witness
    assert w is not None
    assert w.window == 0b011
    assert w.p1.d == w.p2.d == 0b011
    assert w.p1.h == GroupElement(3, (1, 0, 2), (0, 0, 0))
    assert w.p2.h == GroupElement(3, (1, 0, 2), (1, 1, 0))
    assert "window {1,2}" in w.display(Z2)


def test_audit_d_type_defect_needs_three_points():
    # at two points there is no room for the even element that fuses the
    # two halves of the transposition class, so the audit still passes
    rep2 = admissibility_audit(FamilySpec.d_type(), 2)
    assert rep2.group_size == 4
    assert rep2.passed


def _audit_oracle(spec, N):
    """The audit by brute force: orbits under every element of each window
    group, every pair inside each window, every product of two members."""
    F = spec.base
    G, elements, sup, _ = level_views(F, N)
    admits = [spec.admits(a) for a in G.codes]
    full = (1 << N) - 1
    windows = sorted(range(full + 1), key=lambda m: (bin(m).count("1"), m))

    members = {
        w: [i for i in range(G.order) if admits[i] and sup[i] & ~w == 0]
        for w in windows
    }

    unit_ok = members[0] == [G.identity]

    closure_ok = True
    for w in windows:
        ms = members[w]
        mset = set(ms)
        if G.identity not in mset:
            closure_ok = False
            break
        if any(G.inv[i] not in mset for i in ms) or any(
            G.mul(i, j) not in mset for i in ms for j in ms
        ):
            closure_ok = False
            break

    pes = [(w, i) for w in windows for i in members[w]]
    pe_index = {p: k for k, p in enumerate(pes)}

    def orbits_under(group, starts):
        def successors(k):
            d, i = pes[k]
            return [
                pe_index[(apply_perm_to_mask(elements[g].perm, d), G.conj(g, i))]
                for g in group
            ]
        return orbit_partition(starts, successors)

    top = members[full]
    orbit_of = orbits_under(top, range(len(pes)))

    fusion_ok = True
    witness = None
    pairs_checked = 0
    for w in windows:
        if not fusion_ok:
            break
        inside = [k for k, (d, _) in enumerate(pes) if d & ~w == 0]
        sub_of = orbits_under(members[w], inside)
        for a_pos, k1 in enumerate(inside):
            if not fusion_ok:
                break
            for k2 in inside[a_pos + 1:]:
                pairs_checked += 1
                if orbit_of[k1] == orbit_of[k2] and sub_of[k1] != sub_of[k2]:
                    d1, i1 = pes[k1]
                    d2, i2 = pes[k2]
                    witness = AuditWitness(
                        w,
                        PartialElement(d1, elements[i1]),
                        PartialElement(d2, elements[i2]),
                    )
                    fusion_ok = False
                    break

    return AuditReport(
        family=spec.name,
        kind=spec.kind,
        level=N,
        unit_ok=unit_ok,
        closure_ok=closure_ok,
        fusion_ok=fusion_ok,
        witness=witness,
        group_size=len(top),
        partial_count=len(pes),
        windows_checked=len(windows),
        pairs_checked=pairs_checked,
        notes=_AUDIT_NOTES,
    )


class _TranspositionsOnly(FamilySpec):
    """Admits the identity and undecorated transpositions: a subgroup up to
    two points, not closed under products from three points on."""

    def admits(self, code):
        a = decode(code, self.base)
        moved = sum(1 for j, pj in enumerate(a.perm) if pj != j)
        undecorated = all(d == self.base.identity for d in a.deco)
        return undecorated and moved in (0, 2)


class _EvenDecorationSum(FamilySpec):
    """Cyclic(4) decorations summing to an even value: like d_type, fusion
    fails, and the split top orbit meets its window orbits alternately."""

    def admits(self, code):
        return sum(decode(code, self.base).deco) % 2 == 0


class _FixesPointOne(FamilySpec):
    """Admits the elements of the family of its kind that fix point 1: not
    closed under relabelling the points from three points on, so every window
    is checked.  With the d_type rule over cyclic(2), fusion first fails at
    window {2,3}, not the first window of its size."""

    def admits(self, code):
        fixed = decode(code, self.base).perm[:1] in ((), (0,))
        return fixed and super().admits(code)


_AUDIT_CASES = (
    [(FamilySpec.symmetric(), n) for n in range(6)]
    + [(FamilySpec.wreath(Z2, "wreath:cyclic2"), n) for n in range(4)]
    + [(parse_family("wreath:cyclic3"), n) for n in range(4)]
    + [(parse_family("wreath:sym3"), n) for n in range(3)]
    + [(FamilySpec.d_type(), n) for n in range(5)]
    + [(FamilySpec.wreath(SYM3_SHIFTED, "wreath:file"), n) for n in range(3)]
    + [(_TranspositionsOnly("symmetric", TRIVIAL, "transpositions"), n)
       for n in range(5)]
    + [(_TranspositionsOnly("wreath", Z2, "transpositions"), n)
       for n in range(4)]
    + [(_EvenDecorationSum("wreath", builtin_group("cyclic4"), "even-sum"), n)
       for n in range(4)]
    + [(_FixesPointOne("symmetric", TRIVIAL, "sym-fixing-1"), n) for n in range(5)]
    + [(_FixesPointOne("wreath", Z2, "cyclic2-fixing-1"), n) for n in range(4)]
    + [(_FixesPointOne("d_type", Z2, "dtype-fixing-1"), n) for n in range(5)]
)


@pytest.mark.parametrize(
    "spec,n", _AUDIT_CASES, ids=[f"{s.name}-{n}" for s, n in _AUDIT_CASES]
)
def test_audit_matches_brute_force_oracle(spec, n):
    rep = admissibility_audit(spec, n)
    assert rep == _audit_oracle(spec, n)
    if isinstance(spec, _TranspositionsOnly):
        assert rep.closure_ok == (n < 3)


def test_audit_checks_one_window_per_size_when_relabelling_keeps_the_family(
    monkeypatch,
):
    """A family closed under relabelling the points gets one fusion orbit
    search at the top and one per window size below it, N + 1 in all, up to
    the first size that fails; any other family gets one per window, 2^N."""
    searches = []

    def spy(starts, successors):
        searches.append(successors.__name__)
        return orbit_partition(starts, successors)

    monkeypatch.setattr(correspondence_mod, "orbit_partition", spy)
    cases = [
        (FamilySpec.symmetric(), 6, 7),
        (FamilySpec.wreath(Z2, "wreath:cyclic2"), 4, 5),
        (FamilySpec.d_type(), 2, 3),
        # fusion fails at {1,2}: the top and the windows {}, {1}, {1,2}
        (FamilySpec.d_type(), 5, 4),
        (_FixesPointOne("symmetric", TRIVIAL, "fixing-1"), 4, 16),
        (_FixesPointOne("wreath", Z2, "fixing-1"), 3, 8),
    ]
    for spec, N, expected in cases:
        searches.clear()
        admissibility_audit(spec, N)
        assert searches.count("successors") == expected, (spec.name, N)
    witness = admissibility_audit(_FixesPointOne("d_type", Z2, "fixing-1"), 3).witness
    assert witness.window == 0b110


_NON_ABELIAN_CASES = [
    (name, F, N)
    for name, F in (("dihedral8", DIHEDRAL8), ("quaternion", QUATERNION))
    for N in (2, 3)
]


@pytest.mark.parametrize(
    "name,F,N", _NON_ABELIAN_CASES,
    ids=[f"{name}-{N}" for name, _, N in _NON_ABELIAN_CASES],
)
def test_suites_over_non_abelian_bases(name, F, N):
    """The main lemma holds for every triple of labels and the wreath family
    passes its audit over the two non-abelian bases of order 8; at two
    points the audit equals the brute-force oracle."""
    spec = FamilySpec.wreath(F, "wreath:file")
    main = main_lemma_suite(spec, N)
    assert main["ok"]
    assert main["checks"] == len(truncation_basis(N, F)) ** 3
    audit = audit_suite(spec, N)
    assert audit["ok"] and audit["passed"]
    assert audit["group_size"] == F.order ** N * [1, 1, 2, 6][N]
    if N == 2:
        assert admissibility_audit(spec, N) == _audit_oracle(spec, N)


def test_suites_over_alternating4():
    """A_4 has two mutually inverse classes of 3-cycles; every suite
    passes over it at two and at three points."""
    spec = FamilySpec.wreath(ALTERNATING4, "wreath:file")
    for level, checks in ((2, [6859, 649, 91, 361]),
                          (3, [205379, 8329, 363, 3481])):
        rep = run_suites(["main-lemma", "invert", "phi", "tower", "audit"], spec, level)
        assert rep["ok"]
        assert [s.get("checks") for s in rep["suites"]] == checks + [None]
        assert rep["suites"][-1]["passed"]


def test_audit_symmetric_level_seven():
    rep = admissibility_audit(FamilySpec.symmetric(), 7)
    assert rep.passed
    assert rep.partial_count == 13700
    assert rep.pairs_checked == 108425464
