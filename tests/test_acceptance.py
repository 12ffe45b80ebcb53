"""Acceptance gate: one pass/fail line per criterion (run with pytest -s).

Each criterion exercises the library end to end with exact integer
arithmetic and, where a runtime limit is part of the criterion, asserts it.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from classalg.center_algebra import s_constant
from classalg.correspondence import (
    FamilySpec,
    admissibility_audit,
    xi_closed_form,
)
from classalg.finite_group import TRIVIAL, builtin_group
from classalg.oracles import (
    conjugation_orbits,
    enumerate_partial_elements,
    level_views,
    omega_of,
    partial_orbit_oracle,
    xi_count_oracle,
)
from classalg.partial_algebra import (
    OmegaLabel,
    basis_vector,
    ik_product,
    p_constant,
)
from classalg.suites import (
    audit_suite,
    inversion_suite,
    main_lemma_suite,
    phi_suite,
    tower_suite,
)
from classalg.wreath import ClassLabel, labels_with_alpha_up_to

Z2 = builtin_group("cyclic(2)")


def OM(l, pairs):
    return OmegaLabel(l, ClassLabel(tuple(pairs)))


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_01_golden_products():
    with criterion(1, "golden-products"):
        t0 = time.monotonic()
        v = ik_product(
            basis_vector(OM(2, [(2, 0)]), 4), basis_vector(OM(2, [(2, 0)]), 4),
            TRIVIAL,
        )
        assert dict(v.terms) == {
            OM(2, []): 1, OM(3, [(3, 0)]): 3, OM(4, [(2, 0), (2, 0)]): 2,
        }
        flip = OM(1, [(1, 1)])
        w = ik_product(basis_vector(flip, 3), basis_vector(flip, 3), Z2)
        assert dict(w.terms) == {OM(1, []): 1, OM(2, [(1, 1), (1, 1)]): 2}
        u = ik_product(basis_vector(OM(2, [(2, 1)]), 3), basis_vector(flip, 3), Z2)
        assert dict(u.terms) == {OM(2, [(2, 0)]): 2, OM(3, [(2, 1), (1, 1)]): 1}
        assert time.monotonic() - t0 < 1.0


def test_02_orbit_oracles():
    with criterion(2, "orbit-oracles"):
        t0 = time.monotonic()
        for F, n in ((TRIVIAL, 5), (Z2, 4)):
            orbits = {frozenset(o) for o in conjugation_orbits(F, n)}
            by_label = level_views(F, n).by_label
            assert orbits == {frozenset(ids) for ids in by_label.values()}
        for F, n in ((TRIVIAL, 4), (Z2, 3)):
            orbits = {frozenset(o) for o in partial_orbit_oracle(F, n)}
            fibers: dict = {}
            for p in enumerate_partial_elements(F, n):
                fibers.setdefault(omega_of(p, F), set()).add(p)
            assert orbits == {frozenset(s) for s in fibers.values()}
        assert time.monotonic() - t0 < 30.0


def test_03_main_lemma():
    with criterion(3, "main-lemma"):
        t0 = time.monotonic()
        for spec, n in (
            (FamilySpec.symmetric(), 5),
            (FamilySpec.wreath(Z2, "cyclic2"), 3),
        ):
            res = main_lemma_suite(spec, n)
            assert res["checks"] > 0 and res["failures"] == 0
        assert time.monotonic() - t0 < 120.0


def test_04_triangular_inversion():
    with criterion(4, "triangular-inversion"):
        for spec, n in (
            (FamilySpec.symmetric(), 5),
            (FamilySpec.wreath(Z2, "cyclic2"), 3),
        ):
            res = inversion_suite(spec, n)
            assert res["checks"] > 0 and res["failures"] == 0


def test_05_xi_closed_form():
    with criterion(5, "xi-closed-form"):
        for F, lmax in ((TRIVIAL, 8), (Z2, 4)):
            for l in range(lmax + 1):
                for lp in range(l + 1):
                    for c in labels_with_alpha_up_to(lp, F):
                        assert xi_closed_form(lp, c, l) == xi_count_oracle(
                            lp, c, l, F
                        )


def test_06_diagonal_agreement():
    with criterion(6, "diagonal-agreement"):
        for F, lmax in ((TRIVIAL, 4), (Z2, 2)):
            for l in range(lmax + 1):
                labels = labels_with_alpha_up_to(l, F)
                for c1 in labels:
                    for c2 in labels:
                        for c in labels:
                            p = p_constant(
                                OmegaLabel(l, c1), OmegaLabel(l, c2),
                                OmegaLabel(l, c), F,
                            )
                            assert p == s_constant(c1, c2, c, l, F)


def test_07_phi_monomorphism():
    with criterion(7, "phi-monomorphism"):
        for spec, n in (
            (FamilySpec.symmetric(), 5),
            (FamilySpec.wreath(Z2, "cyclic2"), 3),
        ):
            res = phi_suite(spec, n)
            assert res["checks"] > 0 and res["failures"] == 0
            assert any(r["kind"] == "preimage" for r in res["records"])


def test_08_projection_tower():
    with criterion(8, "projection-tower"):
        for spec, n in (
            (FamilySpec.symmetric(), 4),
            (FamilySpec.wreath(Z2, "cyclic2"), 3),
        ):
            res = tower_suite(spec, n)
            assert res["checks"] > 0 and res["failures"] == 0


def test_09_admissibility_audit():
    with criterion(9, "admissibility-audit"):
        t0 = time.monotonic()
        rep = admissibility_audit(FamilySpec.symmetric(), 4)
        assert rep.passed and rep.group_size == 24 and rep.partial_count == 65
        rep = admissibility_audit(FamilySpec.wreath(Z2, "cyclic2"), 3)
        assert rep.passed and rep.group_size == 48 and rep.partial_count == 79
        rep = admissibility_audit(FamilySpec.d_type(), 3)
        assert not rep.passed
        assert rep.unit_ok and rep.closure_ok and not rep.fusion_ok
        assert rep.witness is not None
        res = audit_suite(FamilySpec.d_type(), 3)
        assert res["ok"] and res["expected_violation"]
        assert time.monotonic() - t0 < 60.0


def test_10_deterministic_cli():
    with criterion(10, "deterministic-cli"):
        # Run the checkout's own package with this interpreter, so neither
        # a missing console script nor an installed copy decides the result.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        outs = []
        for jobs in ("1", "2", "8"):
            proc = subprocess.run(
                [
                    sys.executable, "-m", "classalg", "verify", "all",
                    "--family", "sym", "--level", "3", "--jobs", jobs,
                ],
                capture_output=True, timeout=300, env=env,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outs.append(proc.stdout)
        assert outs[0] == outs[1] == outs[2]
        assert b"RESULT: OK" in outs[0]
