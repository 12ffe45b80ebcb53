"""Command-line interface: output formats, flags, exit codes."""

import hashlib
import importlib
import json
import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from classalg import cli
from classalg.cli import _json_doc, main
from classalg.errors import BudgetExceeded, ClassAlgError, clip, clip_int
from classalg.wreath import _level_group_cached

Z3_FILE = {
    "order": 3,
    "mult": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
    "names": ["e", "g", "g2"],
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classes_table(capsys):
    code, out, _ = run(capsys, "classes", "--family", "sym", "--level", "3")
    assert code == 0
    assert "classes  family=sym  level=3" in out
    lines = [ln.split() for ln in out.splitlines()[2:]]
    assert ["omega", "0:[]", "0", "1"] in lines
    assert ["omega", "3:[3]", "3", "2"] in lines
    assert ["center", "[2]", "3", "3"] in lines
    # 7 omega rows and 3 center rows
    assert sum(1 for ln in lines if ln and ln[0] == "omega") == 7
    assert sum(1 for ln in lines if ln and ln[0] == "center") == 3


def test_classes_json(capsys):
    code, out, _ = run(
        capsys, "classes", "--family", "wreath:cyclic2", "--level", "2",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["command"] == "classes"
    assert doc["family"] == "wreath:cyclic2"
    assert len(doc["omega"]) == 8
    sizes = {row["omega"]: row["size"] for row in doc["omega"]}
    assert sizes["1:[(1,1)]"] == 2
    assert sizes["2:[(2,1)]"] == 2
    assert {row["c"]: row["size"] for row in doc["center"]} == {
        "[]": 1, "[(1,1)]": 2, "[(1,1),(1,1)]": 1, "[(2,0)]": 2, "[(2,1)]": 2,
    }


def test_classes_csv(capsys):
    code, out, _ = run(
        capsys, "classes", "--family", "sym", "--level", "2", "--format", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,label,l,size"
    assert "omega,2:[2],2,1" in lines


# sha256 of `classes --format csv` at levels tier-1 reaches nowhere else:
# the csv lists every label of every level in id order
CLASSES_CSV_SHA256 = {
    ("sym", "30", 10**33): "4bac7856866f79671c8c3fa38ca4aba6ace1efa25e75df234c67d44bd54c4cfb",
    ("wreath:cyclic2", "12", 10**13):
        "8705cd0fe857c42c84fae8e129e56683db46aaf940dd669e61090e358315be54",
    ("wreath:sym3", "8", 10**13):
        "305576e6d3c916b7ff64ad90f579ec22d60db92fda6abd8064b8848d5fdcb1c4",
}


@pytest.mark.parametrize(
    "family,level,budget", list(CLASSES_CSV_SHA256),
    ids=[f"{f}-{l}" for f, l, _ in CLASSES_CSV_SHA256],
)
def test_classes_csv_digest(capsys, family, level, budget):
    code, out, _ = run(
        capsys, "classes", "--family", family, "--level", level,
        "--budget-elements", str(budget), "--format", "csv",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CLASSES_CSV_SHA256[(family, level, budget)]


# sha256 of `sconst` expansions whose level is past what a reader of every
# target answers in the timeout (the [2] x [2] one took 29 s that way): a
# column reads only the targets on at most alpha(c1) + alpha(c2) points
SCONST_EXPANSION_SHA256 = {
    ("sym", "30", "[2]", "[2]", 10**36):
        "d47500de574b7d86128ce8f72eb34b366c649d1dfe0ee6edc0abfcf5146549b0",
    ("wreath:cyclic2", "12", "[(2,0)]", "[(1,1)]", 10**31):
        "cd58de658ab6056c29cd72571b6e6694e255aad7a3c61a3a1f7d516d886506c0",
}


@pytest.mark.parametrize(
    "family,l,c1,c2,budget", list(SCONST_EXPANSION_SHA256),
    ids=[f"{f}-{l}" for f, l, *_ in SCONST_EXPANSION_SHA256],
)
def test_sconst_expansion_digest(family, l, c1, c2, budget):
    proc = child("-m", "classalg", "sconst", "--family", family, "--l", l, "--c1", c1,
                 "--c2", c2, "--budget-elements", str(budget), timeout=10)
    assert (proc.returncode, proc.stderr) == (0, "")
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == SCONST_EXPANSION_SHA256[(family, l, c1, c2, budget)]


CLASS_EQUATION_AT_50 = """\
from classalg.center_algebra import center_product
from classalg.finite_group import TRIVIAL
from classalg.partial_algebra import basis_vector
from classalg.wreath import ClassLabel, class_size, element_budget
c1, c2 = ClassLabel(((2, 0),)), ClassLabel(((3, 0),))
with element_budget(10**70):
    v = center_product(basis_vector(c1, 50), basis_vector(c2, 50), TRIVIAL)
print(len(v.terms))
print(sum(x * class_size(c, 50, TRIVIAL) for c, x in v.terms))
print(class_size(c1, 50, TRIVIAL) * class_size(c2, 50, TRIVIAL))
"""


def test_center_product_at_level_50_satisfies_the_class_equation():
    """[2] x [3] at level 50, whose 204,226 labels stay in the child: the
    terms, weighed by their class sizes, count every pair of factors."""
    proc = child("-c", CLASS_EQUATION_AT_50, timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    terms, weighed, pairs = map(int, proc.stdout.split())
    assert terms > 0 and weighed == pairs


def test_pconst_expansion(capsys):
    code, out, _ = run(
        capsys, "pconst", "--family", "sym", "--level", "4",
        "--omega1", "2:[2]", "--omega2", "2:[2]", "--format", "csv",
    )
    assert code == 0
    assert out.strip().splitlines() == [
        "omega1,omega2,omega,P",
        "2:[2],2:[2],2:[],1",
        "2:[2],2:[2],3:[3],3",
        '2:[2],2:[2],"4:[2,2]",2',
    ]


def test_pconst_single_target(capsys):
    code, out, _ = run(
        capsys, "pconst", "--family", "sym", "--level", "4",
        "--omega1", "2:[2]", "--omega2", "2:[2]", "--omega", "3:[3]",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [
        {"omega1": "2:[2]", "omega2": "2:[2]", "omega": "3:[3]", "P": 3}
    ]


def test_sconst(capsys):
    code, out, _ = run(
        capsys, "sconst", "--family", "sym", "--l", "3",
        "--c1", "[2]", "--c2", "[2]", "--format", "csv",
    )
    assert code == 0
    assert out.strip().splitlines() == [
        "c1,c2,c,l,S",
        "[2],[2],[],3,3",
        "[2],[2],[3],3,3",
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("sconst", "--family", "sym", "--l", "9", "--c1", "[2]", "--c2", "[3]"),
        ("pconst", "--family", "sym", "--level", "7",
         "--omega1", "4:[3]", "--omega2", "3:[2]"),
        ("sconst", "--family", "wreath:sym3", "--l", "3",
         "--c1", "[(2,1)]", "--c2", "[(1,2)]"),
        ("classes", "--family", "sym", "--level", "9"),
    ],
)
def test_constant_queries_build_no_level_group(capsys, argv):
    """S and P are counted over class members built from their labels, and
    class sizes come in closed form; a query never enumerates a whole
    level."""
    _level_group_cached.cache_clear()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out
    assert _level_group_cached.cache_info().currsize == 0


def test_xi_with_oracle(capsys):
    code, out, _ = run(
        capsys, "xi", "--lprime", "3", "--class", "[2]", "--l", "4", "--oracle",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row == {
        "lprime": 3, "c": "[2]", "l": 4, "xi": 2, "oracle": 2, "agree": True,
    }


def test_xi_oracle_bounded_by_windows(capsys):
    """The recount enumerates C(l, l') windows, not level l: C(30, 2) = 435
    windows fit the default budget though |S_30| does not."""
    code, out, _ = run(
        capsys, "xi", "--lprime", "2", "--class", "[]", "--l", "30", "--oracle",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["xi"] == row["oracle"] == 435 and row["agree"] is True


def test_xi_oracle_disagreement_exits_1(capsys, monkeypatch):
    """A recount that differs from the closed form is reported with agree
    false, and the command exits 1."""
    import classalg.oracles as oracles

    monkeypatch.setattr(oracles, "xi_count_oracle", lambda *args: 3)
    code, out, _ = run(
        capsys, "xi", "--lprime", "3", "--class", "[2]", "--l", "4", "--oracle",
        "--format", "json",
    )
    assert code == 1
    row = json.loads(out)["rows"][0]
    assert row["xi"] == 2 and row["oracle"] == 3 and row["agree"] is False


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "classes.json"
    code, out, _ = run(
        capsys, "classes", "--family", "sym", "--level", "2",
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc["command"] == "classes"


def test_group_file(tmp_path, capsys):
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(Z3_FILE))
    code, out, _ = run(
        capsys, "classes", "--family", "wreath", "--group-file", str(path),
        "--level", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "wreath:file"
    # 3 classes of the base group appear as decorated fixed points
    assert {r["omega"] for r in doc["omega"] if r["l"] == 1} == {
        "1:[]", "1:[(1,1)]", "1:[(1,2)]",
    }


def test_group_file_invalid(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"order": 2, "mult": [[0, 1], [1, 2]]}))
    code, _, err = run(
        capsys, "classes", "--family", "wreath", "--group-file", str(path),
        "--level", "2",
    )
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "--family", "nosuch", "--level", "2"),
        ("pconst", "--family", "sym", "--level", "3", "--omega1", "1:[2]", "--omega2", "1:[]"),
        ("sconst", "--family", "sym", "--l", "2", "--c1", "[oops]", "--c2", "[]"),
        ("verify", "main-lemma", "--family", "dtype", "--level", "3"),
        ("classes", "--family", "wreath", "--level", "2"),
        # negative levels
        ("verify", "all", "--family", "sym", "--level", "-1"),
        ("classes", "--family", "sym", "--level", "-2"),
        ("sconst", "--family", "sym", "--l", "-1", "--c1", "[]", "--c2", "[]"),
        ("xi", "--lprime", "-1", "--class", "[]", "--l", "-2"),
        ("pconst", "--family", "sym", "--level", "-1", "--omega1", "0:[]", "--omega2", "0:[]"),
        # labels that do not fit the level
        ("pconst", "--family", "sym", "--level", "2", "--omega1", "2:[2]", "--omega2", "2:[2]", "--omega", "9:[]"),
        ("pconst", "--family", "sym", "--level", "2", "--omega1", "3:[]", "--omega2", "1:[]"),
        ("pconst", "--family", "sym", "--level", "2", "--omega1", "1:[]", "--omega2", "3:[3]"),
        ("sconst", "--family", "sym", "--l", "2", "--c1", "[3]", "--c2", "[]"),
        ("sconst", "--family", "sym", "--l", "2", "--c1", "[]", "--c2", "[2,2]"),
        ("sconst", "--family", "sym", "--l", "2", "--c1", "[2]", "--c2", "[2]", "--c", "[3]"),
        # --jobs and --budget-elements bounds
        ("verify", "all", "--family", "sym", "--level", "2", "--jobs", "0"),
        ("verify", "all", "--family", "sym", "--level", "2", "--jobs", "-3"),
        ("classes", "--family", "sym", "--level", "2", "--budget-elements", "-5"),
        # an --out path that cannot be written
        ("classes", "--family", "sym", "--level", "2", "--out", "/nonexistent/dir/x"),
        # wreath and wreath:file share one rule
        ("classes", "--family", "wreath:file", "--level", "2"),
        # empty label text is malformed, not absent
        ("sconst", "--family", "sym", "--l", "2", "--c1", "", "--c2", "[]"),
        ("sconst", "--family", "sym", "--l", "2", "--c1", "[]", "--c2", "[]", "--c", ""),
        ("pconst", "--family", "sym", "--level", "2", "--omega1", "1:[]", "--omega2", ""),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "error:" in err
    assert err.startswith("error:") and err.count("\n") == 1
    assert out == ""


def test_fitting_label_with_zero_constant_prints_zero(capsys):
    code, out, _ = run(
        capsys, "pconst", "--family", "sym", "--level", "2",
        "--omega1", "2:[2]", "--omega2", "2:[2]", "--omega", "1:[]",
        "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1] == "2:[2],2:[2],1:[],0"
    code, out, _ = run(
        capsys, "sconst", "--family", "sym", "--l", "2",
        "--c1", "[2]", "--c2", "[2]", "--c", "[2]", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[1] == "[2],[2],[2],2,0"


def test_budget_exit_3(capsys):
    code, _, err = run(capsys, "classes", "--family", "sym", "--level", "12")
    assert code == 3
    assert "error:" in err
    code, _, err = run(
        capsys, "classes", "--family", "sym", "--level", "3",
        "--budget-elements", "5",
    )
    assert code == 3
    assert err == "error: level 3 over base of order 1 has 6 elements, budget is 5\n"
    # the flag holds for one command: the next in-process call is back on
    # the default budget of 10^7 elements
    code, _, err = run(capsys, "classes", "--family", "sym", "--level", "3")
    assert code == 0 and err == ""
    # the subset recount is bounded by the C(26, 10) windows it counts
    code, out, err = run(
        capsys, "xi", "--lprime", "10", "--class", "[]", "--l", "26",
        "--oracle", "--budget-elements", "100",
    )
    assert code == 3
    assert err.startswith("error:") and out == ""


def test_verify_all_text(capsys):
    code, out, _ = run(
        capsys, "verify", "all", "--family", "sym", "--level", "3"
    )
    assert code == 0
    assert "main-lemma: checks=343 failures=0 ok" in out
    assert "audit:" in out and "-> PASS (expected PASS)" in out
    assert out.strip().endswith("RESULT: OK")


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify", "invert", "--family", "sym", "--level", "3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["ok"] is True
    (suite,) = doc["suites"]
    assert suite["suite"] == "invert"
    assert suite["failures"] == 0
    assert all(r["ok"] for r in suite["records"])
    assert suite["checks"] == len(suite["records"])


HEADED_RUNS = [
    (["classes", "--family", "sym", "--level", "3"], {"level": 3}, ["omega", "center"]),
    (["pconst", "--family", "sym", "--level", "3", "--omega1", "1:[]",
      "--omega2", "2:[2]"], {"level": 3}, ["rows"]),
    (["sconst", "--family", "wreath:cyclic2", "--l", "3", "--c1", "[(1,1)]",
      "--c2", "[(1,1)]"], {"l": 3}, ["rows"]),
    (["xi", "--family", "sym", "--lprime", "2", "--class", "[2]", "--l", "4"], {},
     ["rows"]),
    (["verify", "invert", "--family", "sym", "--level", "2"], {"level": 2},
     ["skipped", "suites", "ok"]),
]


@pytest.mark.parametrize("argv, fields, lists", HEADED_RUNS,
                         ids=[argv[0] for argv, _, _ in HEADED_RUNS])
def test_every_command_has_one_header_and_title(capsys, argv, fields, lists):
    """JSON opens with schema, command and family, then the command's own
    fields; the table's title line names the same, and xi, with no fields,
    has none."""
    command, family = argv[0], argv[argv.index("--family") + 1]
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["schema", "command", "family", *fields, *lists]
    assert (doc["schema"], doc["command"], doc["family"]) == (1, command, family)
    assert {k: doc[k] for k in fields} == fields
    code, out, _ = run(capsys, *argv)
    assert code == 0
    first = out.splitlines()[0]
    if fields:
        title = "".join(f"  {k}={v}" for k, v in fields.items())
        assert first == f"{command}  family={family}{title}"
    else:
        assert first.split() == ["lprime", "c", "l", "xi"]


def test_verify_dtype_audit_expected_failure(capsys):
    code, out, _ = run(
        capsys, "verify", "audit", "--family", "dtype", "--level", "3"
    )
    assert code == 0
    assert "fusion=VIOLATION -> FAIL (expected FAIL)" in out
    assert "witness: window {1,2}:" in out


@pytest.mark.parametrize("level", ["0", "1", "2"])
def test_verify_dtype_audit_passes_below_three_points(capsys, level):
    code, out, _ = run(
        capsys, "verify", "audit", "--family", "dtype", "--level", level
    )
    assert code == 0
    assert "fusion=ok -> PASS (expected PASS)" in out
    assert out.strip().endswith("RESULT: OK")


# sha256 of the table stdout of `verify all --family dtype`, whose JSON
# VERIFY_JSON_SHA256 pins
DTYPE_TABLE_SHA256 = {
    3: "287a8c45c323747023fec736b3a8e575a89312646d2f7950752020813237ec1c",
    4: "fc198401d5c812e2ec9f87a0e42f830535aa0d939e406014ec2109aa6ac6fc78",
}


@pytest.mark.parametrize("level", list(DTYPE_TABLE_SHA256))
def test_verify_dtype_all_skips_class_suites(capsys, level):
    code, out, _ = run(
        capsys, "verify", "all", "--family", "dtype", "--level", str(level)
    )
    assert code == 0
    assert "skipped" in out and "main-lemma" in out
    assert hashlib.sha256(out.encode()).hexdigest() == DTYPE_TABLE_SHA256[level]


@pytest.mark.parametrize("argv", [
    ("classes", "--level", "2"),
    ("pconst", "--level", "2", "--omega1", "1:[]", "--omega2", "1:[]"),
    ("sconst", "--l", "2", "--c1", "[(2,0)]", "--c2", "[(2,0)]"),
    ("xi", "--lprime", "1", "--class", "[]", "--l", "2"),
    ("verify", "main-lemma", "--level", "2"),
], ids=["classes", "pconst", "sconst", "xi", "verify-main-lemma"])
def test_dtype_answers_only_the_audit(capsys, argv):
    """dtype has no class machinery: every command but the audit is a usage
    error, with the same message, not an answer for cyclic2 wr S_n."""
    code, out, err = run(capsys, *argv, "--family", "dtype")
    assert (code, out) == (2, "")
    assert err == (f"error: family dtype has no class machinery for {argv[0]}; "
                   "only verify audit (or verify all) applies\n")


@pytest.mark.parametrize("family", ["sym", "dtype", "wreath:cyclic2"])
def test_group_file_needs_family_wreath(tmp_path, capsys, family):
    """A group file that the family would ignore is a usage error."""
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(Z3_FILE))
    code, out, err = run(
        capsys, "sconst", "--family", family, "--group-file", str(path),
        "--l", "2", "--c1", "[]", "--c2", "[]",
    )
    assert (code, out) == (2, "")
    assert err == f"error: --group-file needs --family wreath, got {family!r}\n"
    code, out, _ = run(
        capsys, "sconst", "--family", "wreath:file", "--group-file", str(path),
        "--l", "2", "--c1", "[]", "--c2", "[]",
    )
    assert code == 0 and "family=wreath:file" in out


@pytest.fixture
def corrupt_product_rows(monkeypatch):
    """Every P that the identity checks count off by one, and S untouched:
    the product_rows that correspondence reads get 1 added at each level
    that can be nonzero, max(l1, l2)..min(n, l1 + l2)."""
    import classalg.correspondence as corr

    real = corr.product_rows

    def broken(w1, w2, n, F):
        live = range(max(w1.l, w2.l), min(n, w1.l + w2.l) + 1)
        return tuple(tuple(v + (l in live) for v in row)
                     for l, row in enumerate(real(w1, w2, n, F)))

    monkeypatch.setattr(corr, "product_rows", broken)


@pytest.fixture
def corrupt_center_row(monkeypatch):
    """Every S off by one, and P untouched: the center_row that
    correspondence reads gets 1 added to every entry."""
    import classalg.correspondence as corr

    real = corr.center_row

    def broken(c1, c2, l, F):
        return tuple(v + 1 for v in real(c1, c2, l, F))

    monkeypatch.setattr(corr, "center_row", broken)


@pytest.fixture
def corrupt_product_column(monkeypatch):
    """Every cell of every P column off by one, zero cells included, which
    moves S with P, since S is read as a column too: both the
    partial_algebra binding, which product_rows reads, and the
    center_algebra one, which center_row reads, are patched."""
    import classalg.center_algebra as ca
    import classalg.partial_algebra as pa

    real = pa.product_column

    def broken(w1, w2, l, F):
        return tuple(v + 1 for v in real(w1, w2, l, F))

    monkeypatch.setattr(pa, "product_column", broken)
    monkeypatch.setattr(ca, "product_column", broken)


def test_verify_failure_exits_1(capsys, corrupt_product_rows):
    code, out, _ = run(
        capsys, "verify", "main-lemma", "--family", "sym", "--level", "2",
        "--jobs", "1",
    )
    assert code == 1
    assert "FAILED" in out
    assert "FAIL " in out


def test_verify_failure_rendering(capsys, corrupt_product_rows):
    """Table output shows the counts, the first five failing records in
    record order and how many more failed; JSON counts every failure."""
    argv = ("verify", "main-lemma", "--family", "sym", "--level", "2")
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert out == (
        "verify  family=sym  level=2\n"
        "main-lemma: checks=64 failures=34 FAILED\n"
        "  FAIL l1=0 c1=[] l2=0 c2=[] l=0 c=[] lhs=1 rhs=2\n"
        "  FAIL l1=0 c1=[] l2=0 c2=[] l=1 c=[] lhs=1 rhs=2\n"
        "  FAIL l1=0 c1=[] l2=0 c2=[] l=2 c=[] lhs=1 rhs=2\n"
        "  FAIL l1=0 c1=[] l2=1 c2=[] l=1 c=[] lhs=1 rhs=2\n"
        "  FAIL l1=0 c1=[] l2=1 c2=[] l=2 c=[] lhs=2 rhs=4\n"
        "  ... and 29 more\n"
        "RESULT: FAILED\n"
    )
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 1
    (suite,) = json.loads(out)["suites"]
    assert suite["failures"] == 34
    assert suite["failures"] == sum(not r["ok"] for r in suite["records"])


@pytest.mark.parametrize("suite", ["main-lemma", "invert", "phi"])
def test_verify_corrupted_p_row_exits_1(capsys, corrupt_product_rows, suite):
    """Every P off by one: the counted P no longer matches the S side in
    main-lemma, invert or phi."""
    code, out, _ = run(capsys, "verify", suite, "--family", "sym", "--level", "2")
    assert code == 1
    assert f"{suite}: checks=" in out and "FAILED" in out
    assert "  FAIL " in out


@pytest.mark.parametrize("suite", ["main-lemma", "invert", "phi"])
def test_verify_corrupted_s_row_exits_1(capsys, corrupt_center_row, suite):
    """Every S off by one: the S side no longer matches the counted P."""
    code, out, _ = run(capsys, "verify", suite, "--family", "sym", "--level", "2")
    assert code == 1
    assert f"{suite}: checks=" in out and "FAILED" in out
    assert "  FAIL " in out


@pytest.mark.parametrize("suite, failures", [
    ("main-lemma", 13), ("invert", 2), ("phi", 4),
])
def test_verify_corrupted_row_kernel_exits_1(capsys, corrupt_product_column, suite,
                                            failures):
    """Every P column cell off by one, S with it: the checks that read
    different P cells on their two sides still fail."""
    code, out, _ = run(capsys, "verify", suite, "--family", "sym", "--level", "2")
    assert code == 1
    assert f"{suite}: checks=" in out and f"failures={failures} FAILED" in out
    assert "  FAIL " in out


def test_verify_audit_unexpected_pass_exits_1(capsys, monkeypatch):
    import classalg.suites as suites_mod
    from classalg.correspondence import AuditReport

    real = suites_mod.admissibility_audit

    def always_pass(spec, N):
        rep = real(spec, N)
        return AuditReport(
            **{
                **rep._asdict(),
                "fusion_ok": True,
                "witness": None,
            }
        )

    monkeypatch.setattr(suites_mod, "admissibility_audit", always_pass)
    code, out, _ = run(
        capsys, "verify", "audit", "--family", "dtype", "--level", "3"
    )
    assert code == 1
    assert "RESULT: FAILED" in out


def test_jobs_flag_gives_identical_output(capsys):
    outs = []
    for jobs in ("1", "2"):
        code, out, _ = run(
            capsys, "verify", "all", "--family", "sym", "--level", "3",
            "--jobs", jobs, "--format", "json",
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_seed_changes_preflight_only(capsys):
    _, out1, _ = run(
        capsys, "verify", "all", "--family", "sym", "--level", "2", "--seed", "7"
    )
    assert "preflight: seed=7" in out1
    assert "RESULT: OK" in out1


# sha256 of the stdout of `verify all --format json`, pinned from the
# implementation that multiplied GroupElement objects
VERIFY_JSON_SHA256 = {
    ("sym", 0): "0055d5ddccf6b482ab10565c4b67ec27577a09a982f4ec915b6ff49e291178d8",
    ("sym", 1): "49efc81bb733ad4adf724a88e2eef6295242733ac523fdb4f9e95c375121bc5e",
    ("sym", 2): "afa3a0de818467ef952830c5901545c09177d5d088f725c58418d30557382627",
    ("sym", 3): "e75a6d3cb32dd5eb0e452771b530e512ae8051ca0a1b52681cfa7b01e74fa2f6",
    ("sym", 4): "6e194201d4873b445d597908aa48fa9435070a83bc049325a051d9d85e504c72",
    ("sym", 5): "c0473c8516b84a31e21fc771ff1fdc5928067c42b026f2753bad9eadb9927ae6",
    ("wreath:cyclic2", 2): "7cb4b9eb1599b76efec914608b5b8133cadb8633231a3fe298631b8310f34290",
    ("wreath:cyclic2", 3): "a9d9aee971902902b799f740a632098a1ea6fda92d0fde1c15dd7c9b2eee7579",
    ("wreath:sym3", 2): "9c1f50b01113424fdcf1378d93e1f124ae9443baa8238cc1b2c1192785881b1f",
    ("dtype", 3): "4d1747f9a848aa585ee8acc8bfdd8423ac49bf455306c4ba6eac345fc0ad2c05",
    ("dtype", 4): "dc1ec34a3bff308d85dec3f1305e3b7fcdcd8af9eb2e7c4c1b215cb33291c110",
}


@pytest.mark.parametrize(
    "family,level", list(VERIFY_JSON_SHA256),
    ids=[f"{f}-{l}" for f, l in VERIFY_JSON_SHA256],
)
def test_verify_all_json_digest(capsys, family, level):
    code, out, _ = run(
        capsys, "verify", "all", "--family", family, "--level", str(level),
        "--format", "json",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == VERIFY_JSON_SHA256[(family, level)]


# sha256 of the table stdout of the benchmark's two verify runs, as
# bench/workloads.py pins them at seed 0
BENCH_VERIFY_SHA256 = {
    ("sym", "6", "1"): "aeb03f0d39f6c6ddfbddcd2eec98ce8382c844160ee3c66f690ef67ad0095655",
    ("wreath:cyclic2", "4", "2"):
        "d5528b43cd98ebea784b274be6daf40fddc0bf66cba03bc364a115e0cedd4ae4",
}


@pytest.mark.parametrize("family,level,jobs", list(BENCH_VERIFY_SHA256))
def test_verify_all_matches_bench_pin(capsys, family, level, jobs):
    code, out, _ = run(
        capsys, "verify", "all", "--family", family, "--level", level,
        "--jobs", jobs, "--seed", "0",
    )
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == BENCH_VERIFY_SHA256[(family, level, jobs)]


@pytest.mark.parametrize("family,level", [("sym", 4), ("wreath:cyclic2", 3)])
def test_verify_json_out_matches_pin(tmp_path, capsys, family, level):
    target = tmp_path / "verify.json"
    code, out, _ = run(
        capsys, "verify", "all", "--family", family, "--level", str(level),
        "--format", "json", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == VERIFY_JSON_SHA256[(family, level)]


def test_verify_out_unwritable_exits_2(capsys):
    code, out, err = run(
        capsys, "verify", "main-lemma", "--family", "sym", "--level", "2",
        "--out", "/nonexistent/dir/x",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write") and "Traceback" not in err


def test_verify_over_budget_writes_no_out_file(tmp_path, capsys):
    target = tmp_path / "verify.txt"
    code, out, err = run(
        capsys, "verify", "all", "--family", "sym", "--level", "4",
        "--budget-elements", "10", "--out", str(target),
    )
    assert code == 3
    assert out == "" and err.startswith("error:")
    assert not target.exists()


def test_verify_all_and_main_lemma_report_the_same_budget_level(capsys):
    """The preflight checks the budget at its levels before its first
    constant, as each sweep does, so both name the first level over it."""
    for suite in ("all", "main-lemma"):
        code, out, err = run(
            capsys, "verify", suite, "--level", "3", "--budget-elements", "1",
        )
        assert (code, out, err) == (
            3, "", "error: level 2 over base of order 1 has 2 elements, budget is 1\n"
        )


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=20,
)


@given(_JSON_VALUES)
def test_json_doc_matches_json_dumps(value):
    payload = {"value": value, "lazy": iter([value, {"k": value}])}
    expected = json.dumps(
        {"value": value, "lazy": [value, {"k": value}]}, indent=2
    )
    assert "".join(_json_doc(payload)) == expected + "\n"


SRC = str(Path(__file__).resolve().parents[1] / "src")


def child(*argv, timeout=None):
    """Run python with this checkout's package on the path, without site."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-S", *argv], capture_output=True,
                          text=True, env=env, timeout=timeout)


def test_cli_import_loads_no_command_specific_module():
    """json, csv, the suites and the oracles load only in the commands that
    use them, and dataclasses (with inspect) not at all.  The constants and
    main-lemma never load the GroupElement reference in classalg.oracles:
    only the preflight and xi --oracle do."""
    unused = ["dataclasses", "inspect", "json", "csv", "classalg.suites",
              "classalg.oracles"]
    proc = child("-c", "import sys, classalg.cli; "
                 f"print([m for m in {unused!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    runs = [["sconst", "--l", "4", "--c1", "[2]", "--c2", "[2]"],
            ["pconst", "--level", "3", "--omega1", "1:[]", "--omega2", "2:[2]"],
            ["verify", "main-lemma", "--level", "3"]]
    proc = child("-c", "import sys; from classalg.cli import main; "
                 f"codes = [main(a) for a in {runs!r}]; "
                 "print(codes, 'classalg.oracles' in sys.modules, file=sys.stderr)")
    assert proc.stderr == "[0, 0, 0] False\n"


def test_package_exports_resolve_to_their_submodules():
    import classalg

    # the production API: no oracle, and no name that only tests called
    assert len(classalg.__all__) == len(set(classalg.__all__)) == 51
    assert "project" in classalg.__all__
    unexported = {"partial_element", "conjugacy_classes", "center_basis_vector",
                  "MainLemmaRecord", "InversionRecord", "verify_main_lemma",
                  "verify_inversion", "phi"}
    oracles = importlib.import_module("classalg.oracles")
    unexported |= {name for name, value in vars(oracles).items()
                   if getattr(value, "__module__", None) == oracles.__name__}
    assert not unexported & set(classalg.__all__)
    # the benchmark's spans of these three names time the kernels the suites call
    correspondence = importlib.import_module("classalg.correspondence")
    assert correspondence.verify_main_lemma is correspondence.identity_rows
    assert correspondence.verify_inversion is correspondence.inversion_rows
    assert correspondence.phi is correspondence.phi_rows
    for name in classalg.__all__:
        home = importlib.import_module(f"classalg.{classalg._HOME[name]}")
        assert getattr(classalg, name) is getattr(home, name)
        assert name in dir(classalg)
    with pytest.raises(AttributeError):
        classalg.no_such_name


HUGE = "99999999999999999999"
OVER_AT_11 = "error: level 11 over base of order 1 has 39916800 elements, budget is 10000000\n"


GOOGOL4 = str(10**400)
E18 = str(10**18)


@pytest.mark.parametrize("argv,code,stderr,stdout", [
    (["sconst", "--l", "1000000000", "--c1", "[2]", "--c2", "[2]"], 3, OVER_AT_11, ""),
    (["sconst", "--l", "2000", "--c1", "[2]", "--c2", "[2]"], 3, OVER_AT_11, ""),
    (["verify", "audit", "--level", HUGE], 3, OVER_AT_11, ""),
    (["verify", "all", "--level", HUGE], 3, OVER_AT_11, ""),
    (["classes", "--level", "45"], 3, OVER_AT_11, ""),
    (["classes", "--level", HUGE], 3, OVER_AT_11, ""),
    (["pconst", "--level", HUGE, "--omega1", "1:[]", "--omega2", "1:[]",
      "--format", "csv"], 0, "",
     "omega1,omega2,omega,P\n1:[],1:[],1:[],1\n1:[],1:[],2:[],2\n"),
    (["pconst", "--level", HUGE, "--omega1", f"{HUGE}:[]", "--omega2", "0:[]"],
     3, OVER_AT_11, ""),
    (["xi", "--lprime", "10000", "--class", "[]", "--l", "20000"], 2,
     "error: xi(10000, []; 20000) has more than 4300 digits and cannot be "
     "printed\n", ""),
    (["xi", "--lprime", "50000000", "--class", "[]", "--l", "100000000",
      "--format", "json"], 2,
     "error: xi(50000000, []; 100000000) has more than 4300 digits and "
     "cannot be printed\n", ""),
    (["xi", "--lprime", "1", "--class", "[]", "--l", GOOGOL4, "--format",
      "csv"], 0, "", f"lprime,c,l,xi\n1,[],{GOOGOL4},{GOOGOL4}\n"),
    (["xi", "--lprime", "0", "--class", "[]", "--l", GOOGOL4, "--format",
      "csv"], 0, "", f"lprime,c,l,xi\n0,[],{GOOGOL4},1\n"),
    # 3226 digits, printed
    (["xi", "--lprime", "200", "--class", "[]", "--l", E18, "--format", "csv"],
     0, "", f"lprime,c,l,xi\n200,[],{E18},{comb(10**18, 200)}\n"),
    # 4786 digits
    (["xi", "--lprime", "300", "--class", "[]", "--l", E18], 2,
     f"error: xi(300, []; {E18}) has more than 4300 digits and cannot be "
     "printed\n", ""),
    # xi is 7400, but the oracle would count C(14400, 7001) windows, a
    # count of more than 4300 digits
    (["xi", "--lprime", "7001", "--class", "[7000]", "--l", "14400",
      "--oracle"], 3,
     "error: the set of windows of size 7001 in {1..14400} has more than "
     "10000000 elements, budget is 10000000\n", ""),
    # C(2000000, 1000001) has more than 600000 digits: it is never computed
    (["xi", "--lprime", "1000001", "--class", "[1000000]", "--l", "2000000",
      "--oracle"], 3,
     "error: the set of windows of size 1000001 in {1..2000000} has more "
     "than 10000000 elements, budget is 10000000\n", ""),
], ids=["sconst-1e9", "sconst-2000", "audit-huge", "all-huge", "classes-45",
        "classes-huge", "pconst-huge", "pconst-huge-window", "xi-20000", "xi-1e8", "xi-1e400",
        "xi-1e400-empty", "xi-1e18-printed", "xi-1e18-too-long",
        "xi-oracle-too-long", "xi-oracle-huge-binomial"])
def test_huge_levels_answer_at_once(argv, code, stderr, stdout):
    """The budget is decided without the order of a huge level, and
    names the first level over it; pconst reads no level above
    l1 + l2, where every product is zero, and lists no labels of a level
    before its budget check, and xi sizes a binomial too long
    to print (more than Python's 4300-digit default) without computing it,
    while one just short of that prints at any level; a window count over
    the budget and too long to print is given as more than the budget."""
    proc = child("-m", "classalg", *argv, timeout=2)
    assert (proc.returncode, proc.stderr, proc.stdout) == (code, stderr, stdout)


LIBRARY_CALL = """\
from classalg.center_algebra import center_row
from classalg.correspondence import identity_rows, inversion_rows, phi_rows
from classalg.errors import BudgetExceeded
from classalg.finite_group import TRIVIAL
from classalg.partial_algebra import (
    OmegaLabel, basis_vector, ik_product, product_rows, truncation_basis, vector_rows,
)
from classalg.wreath import ClassLabel, class_members, labels_with_alpha_up_to
e = ClassLabel(())
try:
    {call}
except BudgetExceeded as exc:
    print(exc)
"""


@pytest.mark.parametrize("call", [
    "identity_rows(OmegaLabel(1, e), OmegaLabel(1, e), 10**6, TRIVIAL)",
    "inversion_rows(OmegaLabel(10**6, e), OmegaLabel(0, e), TRIVIAL)",
    "product_rows(OmegaLabel(1, e), OmegaLabel(1, e), 40, TRIVIAL)",
    "ik_product(*[basis_vector(OmegaLabel(1, e), 40)] * 2, TRIVIAL)",
    "product_rows(OmegaLabel(60, e), OmegaLabel(0, e), 50, TRIVIAL)",
    "identity_rows(OmegaLabel(60, e), OmegaLabel(0, e), 50, TRIVIAL)",
    "phi_rows(vector_rows(basis_vector(OmegaLabel(1, e), 40), TRIVIAL), TRIVIAL)",
    "center_row(e, e, 10**6, TRIVIAL)",
    "truncation_basis(10**6, TRIVIAL)",
    "labels_with_alpha_up_to(200, TRIVIAL)",
    "class_members(ClassLabel(((2, 0),)), TRIVIAL, 10**4)",
], ids=["main-lemma-1e6", "inversion-1e6", "product-rows-40", "ik-product-40",
        "product-rows-below-windows", "main-lemma-below-windows", "phi-40",
        "center-row-1e6", "basis-1e6", "labels-200", "class-members-1e4"])
def test_huge_level_library_calls_raise_at_once(call):
    """A library call at any level past the budget raises BudgetExceeded at
    once, naming the first level over the budget."""
    proc = child("-c", LIBRARY_CALL.format(call=call), timeout=2)
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", OVER_AT_11[7:])


# the default family is sym
ONE_LEVEL_OVER = [
    *[(["verify", suite, "--level", "12"], OVER_AT_11)
      for suite in ("all", "main-lemma", "invert", "phi", "tower", "audit")],
    (["classes", "--level", "12"], OVER_AT_11),
    (["sconst", "--l", "12", "--c1", "[2]", "--c2", "[2]", "--c", "[2]"], OVER_AT_11),
    (["sconst", "--l", "12", "--c1", "[2]", "--c2", "[2]"], OVER_AT_11),
    (["pconst", "--level", "12", "--omega1", "6:[]", "--omega2", "6:[]", "--omega", "12:[]"],
     OVER_AT_11),
    (["pconst", "--level", "12", "--omega1", "6:[]", "--omega2", "6:[]"], OVER_AT_11),
    (["verify", "audit", "--level", "9", "--family", "wreath:cyclic2"],
     "error: level 8 over base of order 2 has 10321920 elements, budget is 10000000\n"),
    (["sconst", "--l", "12", "--c1", "[2]", "--c2", "[2]", "--budget-elements", "100000000"],
     "error: level 12 over base of order 1 has 479001600 elements, budget is 100000000\n"),
]


@pytest.mark.parametrize("argv,stderr", ONE_LEVEL_OVER, ids=[
    "verify-all", "verify-main-lemma", "verify-invert", "verify-phi", "verify-tower",
    "verify-audit", "classes", "sconst-one", "sconst-expand", "pconst-one",
    "pconst-expand", "wreath-cyclic2-9", "budget-1e8"])
def test_one_level_over_the_budget_gives_one_line_everywhere(argv, stderr):
    """Every entry point at a level past the budget exits 3 with the one
    line that names the first level over it and that level's order."""
    proc = child("-m", "classalg", *argv, timeout=10)
    assert (proc.returncode, proc.stderr, proc.stdout) == (3, stderr, "")


def test_budget_message_clips_its_numbers():
    """A budget of 4000 digits lets levels run to 1464, whose order has
    about 4000 digits too; the message quotes both clipped, and the levels
    up to it are multiplied out once."""
    proc = child("-m", "classalg", "classes", "--level", "2000",
                 "--budget-elements", "9" * 4000, timeout=10)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and len(proc.stderr.encode()) < 300
    assert proc.stderr.startswith("error: level 1464 over base of order 1 has 3364")


class _UnnamedError(ClassAlgError):
    """An error type that the CLI does not name."""


@pytest.mark.parametrize("error,code", [(_UnnamedError, 2), (BudgetExceeded, 3)])
def test_every_classalg_error_has_an_exit_code(capsys, monkeypatch, error, code):
    """Any ClassAlgError raised inside a command is a usage error, except a
    budget one."""
    def fail(*_):
        raise error("raised inside a command")

    monkeypatch.setattr(cli, "truncation_basis", fail)
    assert run(capsys, "classes", "--level", "2") == (
        code, "", "error: raised inside a command\n")


def assert_one_error_line(proc):
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


LONG = "9" * 5000


@pytest.mark.parametrize("argv,stderr", [
    (["sconst", "--l", "3", "--c1", f"[{LONG}]", "--c2", "[]"],
     "error: class label has an integer of 5000 digits, too long to convert\n"),
    (["pconst", "--level", "3", "--omega1", f"{LONG}:[]", "--omega2", "1:[]"],
     "error: window size has an integer of 5000 digits, too long to convert\n"),
    (["sconst", "--family", "wreath:cyclic2", "--l", "3", "--c1",
      f"[({LONG},1)]", "--c2", "[]"],
     "error: class label has an integer of 5000 digits, too long to convert\n"),
    (["xi", "--lprime", "1", "--class", f"[{LONG}]", "--l", "2"],
     "error: class label has an integer of 5000 digits, too long to convert\n"),
    (["classes", "--family", f"wreath:cyclic({LONG})", "--level", "2"],
     "error: builtin group parameter has an integer of 5000 digits, too long "
     "to convert\n"),
], ids=["sconst", "pconst", "sconst-wreath", "xi", "builtin"])
def test_integer_too_long_to_convert_exits_2(argv, stderr):
    """A digit run longer than Python converts (4300 digits by default) is
    a usage error whose message does not repeat it."""
    proc = child("-m", "classalg", *argv, timeout=10)
    assert_one_error_line(proc)
    assert proc.stderr == stderr


@pytest.mark.parametrize("content,message", [
    (b'\xff\xfe{"order": 1, "mult": [[0]]}', "cannot read group file"),
    (b'{"order": 1, "mult": [[' + b"9" * 5000 + b']]}', "cannot read group file"),
    (b'{"order": 1, "mult": ' + b"[" * 100000 + b"]" * 100000 + b"}",
     "cannot read group file"),
    (b'{"order": true, "mult": [[0]]}', "order must be a positive integer, got True"),
], ids=["not-utf8", "long-entry", "deep-mult", "bool-order"])
def test_malformed_group_file_exits_2(tmp_path, content, message):
    path = tmp_path / "group.json"
    path.write_bytes(content)
    proc = child("-m", "classalg", "classes", "--family", "wreath",
                 "--group-file", str(path), "--level", "2", timeout=10)
    assert_one_error_line(proc)
    assert proc.stderr.startswith(f"error: {message}")


HUGE_TEXT = "x" * 100000
NINES, NINES_4300 = "9" * 4000, "9" * 4300


@pytest.mark.parametrize("argv", [
    ["sconst", "--l", "3", "--c1", f"[{HUGE_TEXT}]", "--c2", "[]"],
    ["sconst", "--l", "3", "--c1", HUGE_TEXT, "--c2", "[]"],
    ["pconst", "--level", "3", "--omega1", HUGE_TEXT, "--omega2", "1:[]"],
    ["pconst", "--level", "3", "--omega1", "1:[" + "2," * 50000 + "2]",
     "--omega2", "1:[]"],
    ["classes", "--family", HUGE_TEXT, "--level", "2"],
    ["sconst", "--family", f"wreath:cyclic({HUGE_TEXT})", "--l", "2",
     "--c1", "[]", "--c2", "[]"],
    ["classes", "--family", "sym" + " " * 100000, "--group-file", "{z3}",
     "--level", "2"],
    ["classes", "--family", "wreath", "--group-file", HUGE_TEXT, "--level", "2"],
    ["classes", "--level", "2", "--out", f"/nonexistent/{HUGE_TEXT}"],
    ["sconst", "--l", "3", "--c1", f"[{NINES}]", "--c2", "[]"],
    ["sconst", "--family", "wreath:cyclic2", "--l", "3", "--c1", f"[(1,{NINES})]",
     "--c2", "[]"],
    ["pconst", "--level", "3", "--omega1", f"1:[{NINES}]", "--omega2", "1:[]"],
    ["pconst", "--level", "3", "--omega1", f"{NINES}:[]", "--omega2", "1:[]"],
    # alpha has 4301 digits, more than str() converts
    ["pconst", "--level", "3", "--omega1", f"1:[{NINES_4300},{NINES_4300}]",
     "--omega2", "1:[]"],
    ["classes", "--level", f"-{NINES}"],
], ids=["class-label", "class-label-bracket", "omega-label", "omega-window",
        "family", "builtin", "group-file-family", "group-file", "out",
        "class-fit", "class-index", "omega-alpha", "omega-fit", "omega-alpha-past-str",
        "negative-level"])
def test_error_quotes_a_bounded_part_of_user_text(tmp_path, argv):
    """An error about an argument of 100000 characters is one short line:
    the message quotes only the argument's first characters."""
    path = tmp_path / "z3.json"
    path.write_text(json.dumps(Z3_FILE))
    argv = [str(path) if a == "{z3}" else a for a in argv]
    proc = child("-m", "classalg", *argv, timeout=10)
    assert_one_error_line(proc)
    assert len(proc.stderr.encode()) < 300, proc.stderr[:300]


@pytest.mark.parametrize("n", [
    0, -5, 10**80 - 1, 10**80, -(10**85) + 3, int("7" * 4300),
])
def test_clip_int_is_clip_of_str(n):
    assert clip_int(n) == clip(str(n))


@pytest.mark.parametrize("sign", ["", "-"])
def test_clip_int_past_str_limit(sign):
    """The leading digits of an integer too long for str()."""
    n = int(sign + "12345678" * 500) * 10**3200
    assert clip_int(n) == clip(sign + "12345678" * 11)


@pytest.mark.parametrize("argv,quoted", [
    (["verify", HUGE_TEXT, "--level", "2"], "invalid choice: 'x"),
    (["classes", "--level", "2", "--format", HUGE_TEXT], "invalid choice: 'x"),
    (["classes", "--level", "9" * 100000], "invalid int value: '9"),
    ([HUGE_TEXT], "invalid choice: 'x"),
    (["verify", "all", "--level", "2", HUGE_TEXT], "unrecognized arguments: x"),
    (["xi", f"--oracle={HUGE_TEXT}", "--lprime", "1", "--class", "[]", "--l", "2"],
     "ignored explicit argument 'x"),
], ids=["suite", "format", "level", "command", "unrecognized", "explicit"])
def test_argparse_error_quotes_a_bounded_part(capsys, argv, quoted):
    """argparse's own errors quote the first 80 characters of the value,
    after the usage text, and exit 2."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith("usage: classalg") and len(err.encode()) < 1000
    value = quoted[-1] * 80 + "..."
    assert f"{quoted[:-1]}{value}" in err and quoted[-1] * 81 not in err


@pytest.mark.parametrize("argv,line", [
    (["verify", "foo", "--level", "2"],
     "classalg verify: error: argument suite: invalid choice: 'foo' (choose from "
     "'main-lemma', 'invert', 'phi', 'tower', 'audit', 'all')"),
    (["classes", "--level", "2", "--format", "it's"],
     "classalg classes: error: argument --format: invalid choice: \"it's\" "
     "(choose from 'table', 'json', 'csv')"),
    (["classes", "--level", "2", "a b"],
     "classalg: error: unrecognized arguments: a b"),
], ids=["suite", "quote", "unrecognized"])
def test_argparse_error_quotes_short_values_whole(capsys, argv, line):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(line + "\n")


def test_closed_stdout_exits_2():
    """A reader that stops early fails the write, as an unwritable --out
    does, and the flush at exit stays quiet."""
    # about 420 kB of JSON, more than a pipe holds
    proc = subprocess.Popen(
        [sys.executable, "-S", "-m", "classalg", "verify", "all", "--level", "4",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.stdout.read(100).startswith("{")
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (2, "error: cannot write stdout: Broken pipe\n")
