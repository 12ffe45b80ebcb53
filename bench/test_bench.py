"""Self-tests of the benchmark: run with `python3 -m pytest -q bench`."""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from classalg import cli  # noqa: E402
from classalg.center_algebra import class_size as enumerated_size  # noqa: E402
from classalg.center_algebra import s_constant  # noqa: E402
from classalg.finite_group import builtin_group  # noqa: E402
from classalg.partial_algebra import p_constant, truncation_basis  # noqa: E402
from classalg.wreath import labels_with_alpha_up_to  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BASES = {"trivial": "trivial", "cyclic2": "cyclic(2)", "sym3": "sym(3)"}
MAX_LEVEL = {"trivial": 6, "cyclic2": 4, "sym3": 3}


def group(base: str):
    return builtin_group(BASES[base])


@pytest.mark.parametrize("base", sorted(BASES))
def test_base_class_sizes_match_package(base):
    F = group(base)
    sizes = [0] * F.num_classes
    for x in range(F.order):
        sizes[F.class_of[x]] += 1
    assert tuple(sizes) == checks.BASE_CLASS_SIZES[base]


@pytest.mark.parametrize("base", sorted(BASES))
def test_closed_form_class_size_matches_enumeration(base):
    F = group(base)
    for l in range(MAX_LEVEL[base] + 1):
        labels = labels_with_alpha_up_to(l, F)
        ours = checks.labels_alpha_between(0, l, F.num_classes)
        assert [c.pairs for c in labels] == list(ours)
        for c in labels:
            assert checks.class_size(c.pairs, l, base) == enumerated_size(c, l, F)


@pytest.mark.parametrize("base,l", [("trivial", 5), ("cyclic2", 3), ("sym3", 2)])
def test_sconst_class_equation(base, l):
    F = group(base)
    labels = labels_with_alpha_up_to(l, F)
    for c1 in labels:
        for c2 in labels:
            rows = [(c.pairs, s_constant(c1, c2, c, l, F)) for c in labels]
            assert checks.sconst_identity_holds(base, l, c1.pairs, c2.pairs, rows)
            rows[0] = (rows[0][0], rows[0][1] + 1)
            assert not checks.sconst_identity_holds(base, l, c1.pairs, c2.pairs, rows)


@pytest.mark.parametrize("base,N", [("trivial", 4), ("cyclic2", 2)])
def test_pconst_class_equation(base, N):
    F = group(base)
    basis = truncation_basis(N, F)
    for w1 in basis:
        for w2 in basis:
            rows = [((w.l, w.c.pairs), p_constant(w1, w2, w, F)) for w in basis]
            assert checks.pconst_identity_holds(
                base, N, (w1.l, w1.c.pairs), (w2.l, w2.c.pairs), rows)


def cli_stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


def test_output_checks_accept_answers_and_reject_a_wrong_one():
    text = cli_stdout(["sconst", "--family", "wreath:cyclic2", "--l", "3",
                       "--c1", "[(1,1)]", "--c2", "[(2,0)]"])
    args = ("cyclic2", 3, ((1, 1),), ((2, 0),))
    assert checks.check_sconst(text, *args)
    last = text.rstrip("\n").rsplit(" ", 1)
    assert not checks.check_sconst(last[0] + " " + str(int(last[1]) + 1) + "\n", *args)
    text = cli_stdout(["pconst", "--family", "sym", "--level", "4",
                       "--omega1", "2:[2]", "--omega2", "3:[3]"])
    assert checks.check_pconst(text, "trivial", 4, (2, ((2, 0),)), (3, ((3, 0),)))
    assert not checks.check_pconst(text, "trivial", 4, (2, ((2, 0),)), (2, ((2, 0),)))


def test_parse_verify_counts_checks_and_failures():
    text = cli_stdout(["verify", "all", "--family", "sym", "--level", "3"])
    found, failed, ok = checks.parse_verify(text)
    assert ok and failed == 0
    assert set(found) == set(run.SUITES) and found["audit"] == 1
    broken = text.replace("main-lemma: checks=", "main-lemma: checks=1").replace(
        "failures=0 ok", "failures=2 FAILED", 1)
    assert checks.parse_verify(broken)[1] == 2


def test_grade_counts_failed_checks_and_unusable_output():
    inv = workloads.invocations("verify-wreath-jobs2", 1)[0]
    suites = dict(workloads.WORKLOADS["verify-wreath-jobs2"].suite_checks)
    lines = [f"preflight: seed=1 level=3 checks={suites['preflight']} ok"]
    lines += [f"{s}: checks={suites[s]} failures=0 ok"
              for s in ("main-lemma", "invert", "phi", "tower")]
    lines += ["audit: unit=ok closure=ok fusion=ok -> PASS (expected PASS)",
              "RESULT: OK"]
    good = ("\n".join(lines) + "\n").encode()
    bad = good.replace(b"invert: checks=2579 failures=0 ok",
                       b"invert: checks=2579 failures=3 FAILED").replace(
                           b"RESULT: OK", b"RESULT: FAILED")
    record = {"package": str(ROOT / "src" / "classalg" / "__init__.py")}

    def graded(stdout, rc, seed=1, rec=record):
        proc = run.Proc(inv, rc, 1.0, 0.1, 1.0, 1, stdout, rec)
        run.grade(proc, "verify-wreath-jobs2", seed, 0)
        return proc.ops, proc.failed

    ops = sum(suites.values())
    assert graded(good, 0) == (ops, 0)
    assert graded(bad, 1) == (ops, 3)
    assert graded(bad, 0) == (ops, ops)
    assert graded(good, 0, seed=workloads.DEFAULT_SEED) == (ops, ops)  # digest
    assert graded(good, 0, rec={"package": "/elsewhere/classalg/__init__.py"}) == (ops, ops)
    assert graded(good.replace(b"phi: checks=240", b"phi: checks=239"), 0) == (ops, ops)


def test_generator_is_deterministic_in_the_seed():
    a, b = workloads.cold_queries(0), workloads.cold_queries(0)
    assert a == b
    streams = {tuple(q.argv for q in workloads.cold_queries(s)) for s in range(5)}
    assert len(streams) == 5
    for q in a:
        assert 1 <= checks.alpha(q.c1) <= 3 and 1 <= checks.alpha(q.c2) <= 3


def test_self_time_subtracts_time_covered_by_children():
    rows = [
        [0, 0, 100, -1, 0],
        [1, 10, 30, 0, 0],
        [1, 20, 40, 0, 0],   # overlaps its sibling: 10..40 covered once
        [2, 90, 120, 0, 0],  # runs past its parent: only 90..100 counts
        [3, 12, 18, 1, 0],
    ]
    assert spans.self_times(rows) == [100 - 30 - 10, 20 - 6, 20, 30, 6]


def test_tracer_records_layers_in_a_child_process(tmp_path):
    record = tmp_path / "rec.json"
    proc = subprocess.run(
        [sys.executable, str(run.CHILD), str(record), "7", "trace", "--",
         "verify", "all", "--family", "sym", "--level", "3"],
        cwd=ROOT, env=run.child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(record.read_text())
    trace = rec["trace"]
    names = {trace["names"][r[0]] for r in trace["spans"]}
    assert {"cli.main", "wreath.level_group", "wreath.first_mul",
            "center_algebra.s_constant", "partial_algebra.p_constant",
            "suites.audit", "correspondence.admissibility_audit"} <= names
    assert all(r[4] == 7 and r[1] <= r[2] for r in trace["spans"])
    assert trace["counters"]["suites.main-lemma.checks"] > 0
    assert rec["t_start"] <= rec["t_setup"] <= rec["t_end"]


def fake_unit(mode: str, trace: dict | None = None) -> run.Unit:
    inv = workloads.invocations("verify-sym6", 0)[0]
    record = {"import_s": 0.01, "pool_cpu_s": 0.0, "t_setup": 1.0}
    if trace is not None:
        record["trace"] = trace
    proc = run.Proc(inv, 0, 2.0, 0.1, 1.5, 4096, b"", record, ops=10, failed=0)
    return run.Unit(mode, [proc])


def test_printed_metrics_are_the_declared_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in workloads.WORKLOADS.values()}
    e2e = run.end_to_end([fake_unit("run")], [fake_unit("setup")])
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    trace = {"names": ["cli.main"], "spans": [[0, 0, 5, -1, 0]], "counters": {}}
    layers = run.per_layer([fake_unit("run"), fake_unit("trace", trace)])
    assert set(layers) == {m["name"] for m in spec["per_layer"]}
    assert all(v != 0 for v in e2e.values())
