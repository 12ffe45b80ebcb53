"""Command-line interface.

Subcommands: classes (list class labels and sizes, in closed form),
pconst / sconst / xi (structure-constant tables), verify (exhaustive
identity sweeps and the family audit).  Exit codes: 0 success or expected
outcome, 1 identity or audit failure, 2 usage or configuration error,
3 element budget exceeded.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import sys
from collections.abc import Iterable, Iterator
from itertools import islice
from math import comb, log10

from .center_algebra import center_product, s_constant
from .correspondence import FamilySpec, parse_family, xi_closed_form
from .errors import BudgetExceeded, ClassAlgError, InvalidLabel, ParseError, clip, clip_int
from .finite_group import FiniteGroup, load_group_file
from .partial_algebra import (
    OmegaLabel, basis_vector, ik_product, p_constant, truncation_basis,
)
from .wreath import (
    ClassLabel, check_levels, class_size, element_budget, labels_with_alpha_up_to,
)

VERIFY_CHOICES = ("main-lemma", "invert", "phi", "tower", "audit", "all")


def _family_from_args(args: argparse.Namespace) -> FamilySpec:
    """--family with --group-file; a group file serves only wreath, dtype
    only the audit."""
    group = load_group_file(args.group_file) if args.group_file else None
    spec = parse_family(args.family, group)
    if group is not None and spec.name != "wreath:file":
        raise ParseError(f"--group-file needs --family wreath, got {clip(args.family)!r}")
    if spec.kind == "d_type" and getattr(args, "suite", None) not in ("audit", "all"):
        raise ParseError(
            f"family dtype has no class machinery for {args.command}; "
            "only verify audit (or verify all) applies"
        )
    return spec


def _emit(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    """Write the chunks to --out, or to stdout, as they come.  A failed write
    (a closed pipe, a full disk) is a ParseError."""
    out = args.out
    try:
        if out:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if not out:
            # what is left in the buffer is flushed at exit, now to nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ParseError(
            f"cannot write {clip(out or 'stdout')}: {exc.strerror or exc}"
        ) from None


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    return "".join("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
                   for row in [headers, *rows])


def _csv(headers: list[str], rows: list[list[str]]) -> str:
    import csv

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([headers, *rows])
    return buf.getvalue()


def _json_chunks(value, dumps, pad: str = "\n") -> Iterator[str]:
    """json.dumps(value, indent=2) in pieces, for dicts with string keys;
    dumps is json.dumps, which writes the scalars and keys.  Containers are
    opened here, any other iterable is written as a list, and suite records
    (classalg.suites.Records, the values with `fields`) are written one at
    a time, never held whole."""
    if isinstance(value, (str, int, float, type(None))):
        yield dumps(value)
        return
    inner = pad + "  "
    if hasattr(value, "fields"):
        yield from _record_chunks(value, dumps, inner)
        return
    if isinstance(value, dict):
        opener, closer, items = "{", "}", value.items()
    else:
        opener, closer, items = "[", "]", ((None, v) for v in value)
    written = False
    for key, item in items:
        yield ("," if written else opener) + inner
        if key is not None:
            yield dumps(key) + ": "
        yield from _json_chunks(item, dumps, inner)
        written = True
    yield pad + closer if written else opener + closer


def _record_chunks(records, dumps, inner: str) -> Iterator[str]:
    """The records as a list of dicts, each filled into one template for
    their fields; labels, lists and verdicts are encoded by _json_chunks."""
    item = inner + "  "
    fields = "".join(f",{item}{dumps(k)}: %s" for k in records.fields)
    template = inner + "{" + fields[1:] + inner + "}"
    opener = "["
    for row in records.rows(lambda v: "".join(_json_chunks(v, dumps, item))):
        yield opener + template % row
        opener = ","
    yield "[]" if opener == "[" else inner[:-2] + "]"


def _json_doc(payload: dict) -> Iterator[str]:
    import json

    yield from _json_chunks(payload, json.dumps)
    yield "\n"


def _render(
    args: argparse.Namespace, spec: FamilySpec, fields: dict,
    headers: list[str], rows: list[list], lists: dict | None = None,
) -> None:
    """Emit one command's result.  rows hold typed values, one per header.
    JSON gets the header fields and `lists` (default: the rows as dicts
    under "rows"); table and csv get the rows as text, and the table is
    titled with the header fields when there are any."""
    if args.format == "json":
        if lists is None:
            lists = {"rows": [dict(zip(headers, row)) for row in rows]}
        payload = {"schema": 1, "command": args.command, "family": spec.name}
        _emit(args, _json_doc({**payload, **fields, **lists}))
        return
    cells = [[str(v) for v in row] for row in rows]
    if args.format == "csv":
        _emit(args, [_csv(headers, cells)])
        return
    title = "".join(f"  {k}={v}" for k, v in fields.items())
    if title:
        title = f"{args.command}  family={spec.name}{title}\n"
    _emit(args, [title, _table(headers, cells)])


def cmd_classes(args: argparse.Namespace) -> int:
    spec = _family_from_args(args)
    F = spec.base
    N = args.level
    check_levels(F, N)
    # a class of windows of size l at level N: choose the window, then an
    # element of F wr S_l on it
    omega = [
        {"omega": w.display(F), "l": w.l, "c": w.c.display(F),
         "size": comb(N, w.l) * class_size(w.c, w.l, F)}
        for w in truncation_basis(N, F)
    ]
    center = [
        {"c": c.display(F), "l": N, "size": class_size(c, N, F)}
        for c in labels_with_alpha_up_to(N, F)
    ]
    rows = [["omega", r["omega"], r["l"], r["size"]] for r in omega]
    rows += [["center", r["c"], N, r["size"]] for r in center]
    _render(args, spec, {"level": N}, ["kind", "label", "l", "size"], rows,
            {"omega": omega, "center": center})
    return 0


def cmd_pconst(args: argparse.Namespace) -> int:
    spec = _family_from_args(args)
    F = spec.base
    N = args.level
    labels = {
        flag: OmegaLabel.parse(text, F)
        for flag, text in (("--omega1", args.omega1), ("--omega2", args.omega2),
                           ("--omega", args.omega))
        if text is not None
    }
    for flag, w in labels.items():
        if w.l > N:
            raise InvalidLabel(f"{flag} {clip(w.display(F))} has a window "
                               f"larger than --level {clip_int(N)}")
    w1, w2 = labels["--omega1"], labels["--omega2"]
    if "--omega" in labels:
        w = labels["--omega"]
        found = [(w, p_constant(w1, w2, w, F))]
    else:
        # the terms above level l1 + l2 are zero
        top = min(N, w1.l + w2.l)
        found = ik_product(basis_vector(w1, top), basis_vector(w2, top), F).terms
    rows = [[w1.display(F), w2.display(F), w.display(F), v] for w, v in found]
    _render(args, spec, {"level": N}, ["omega1", "omega2", "omega", "P"], rows)
    return 0


def cmd_sconst(args: argparse.Namespace) -> int:
    spec = _family_from_args(args)
    F = spec.base
    l = args.l
    labels = {
        flag: ClassLabel.parse(text, F)
        for flag, text in (("--c1", args.c1), ("--c2", args.c2), ("--c", args.c))
        if text is not None
    }
    for flag, c in labels.items():
        if c.alpha > l:
            raise InvalidLabel(f"{flag} {clip(c.display(F))} needs more "
                               f"than --l {clip_int(l)} points")
    c1, c2 = labels["--c1"], labels["--c2"]
    if "--c" in labels:
        c = labels["--c"]
        found = [(c, s_constant(c1, c2, c, l, F))]
    else:
        found = center_product(basis_vector(c1, l), basis_vector(c2, l), F).terms
    rows = [[c1.display(F), c2.display(F), c.display(F), l, v] for c, v in found]
    _render(args, spec, {"l": l}, ["c1", "c2", "c", "l", "S"], rows)
    return 0


def _printable_xi(lp: int, c: ClassLabel, l: int, F: FiniteGroup) -> int:
    """xi(lp, c; l) = C(n, k), or ParseError if it has more digits than Python
    prints (no limit before 3.10.7).  As C(n, k) >= (n/k)**k for 0 < k <= n/2,
    a long answer is refused uncomputed; one that passes has fewer than about
    limit + k/2 < 11000 digits, so it is computed and compared exactly."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    n, k = l - c.alpha, min(lp - c.alpha, l - lp)
    too_long = limit and k > 0 and (
        k > 4 * limit or k * (log10(n) - log10(k)) > limit + 1)
    value = 0 if too_long else xi_closed_form(lp, c, l)
    if too_long or (limit and value >= 10**limit):
        raise ParseError(f"xi({lp}, {c.display(F)}; {l}) has more than "
                         f"{limit} digits and cannot be printed")
    return value


def cmd_xi(args: argparse.Namespace) -> int:
    spec = _family_from_args(args)
    F = spec.base
    c = ClassLabel.parse(args.cls, F)
    value = _printable_xi(args.lprime, c, args.l, F)
    row: dict = {"lprime": args.lprime, "c": c.display(F), "l": args.l, "xi": value}
    if args.oracle:
        from .oracles import xi_count_oracle

        oracle = xi_count_oracle(args.lprime, c, args.l, F)
        row["oracle"] = oracle
        row["agree"] = oracle == value
    _render(args, spec, {}, list(row), [list(row.values())])
    if args.oracle and not row["agree"]:
        return 1
    return 0


def _render_verify_text(result: dict) -> str:
    lines = [f"verify  family={result['family']}  level={result['level']}"]
    for s in result["suites"]:
        if s["suite"] == "audit":
            def mark(flag: bool) -> str:
                return "ok" if flag else "VIOLATION"

            verdict = "PASS" if s["passed"] else "FAIL"
            expected = "FAIL" if s["expected_violation"] else "PASS"
            lines.append(
                f"audit: unit={mark(s['unit_ok'])} closure={mark(s['closure_ok'])} "
                f"fusion={mark(s['fusion_ok'])} -> {verdict} (expected {expected})"
            )
            if s["witness"]:
                lines.append(f"  witness: {s['witness']}")
            for note in s["notes"]:
                lines.append(f"  note: {note}")
        elif s["suite"] == "preflight":
            lines.append(
                f"preflight: seed={s['seed']} level={s['level']} "
                f"checks={s['checks']} {'ok' if s['ok'] else 'FAILED'}"
            )
        else:
            lines.append(
                f"{s['suite']}: checks={s['checks']} failures={s['failures']} "
                f"{'ok' if s['ok'] else 'FAILED'}"
            )
            # the records are rendered only to show the first failures
            failed = (r for r in s["records"] if not r["ok"]) if s["failures"] else ()
            for r in islice(failed, 5):
                fields = " ".join(f"{k}={r[k]}" for k in r if k != "ok")
                lines.append(f"  FAIL {fields}")
            if s["failures"] > 5:
                lines.append(f"  ... and {s['failures'] - 5} more")
    if result["skipped"]:
        lines.append(
            "skipped (family admits no class machinery): "
            + ", ".join(result["skipped"])
        )
    lines.append("RESULT: " + ("OK" if result["ok"] else "FAILED"))
    return "\n".join(lines) + "\n"


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _family_from_args(args)
    from .suites import SUITE_NAMES, run_suites

    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    result = run_suites(names, spec, args.level, seed=args.seed)
    if args.format == "json":
        _emit(args, _json_doc(result))
    else:
        _emit(args, [_render_verify_text(result)])
    return 0 if result["ok"] else 1


class _Parser(argparse.ArgumentParser):
    """argparse's parser; what its own errors quote is clipped (errors.clip)."""

    def error(self, message: str):
        head, sep, extras = message.partition("unrecognized arguments: ")
        super().error(head + sep + clip(extras) if sep else re.sub(
            r"'(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\"",
            lambda m: m[0][0] + clip(m[0][1:-1]) + m[0][0], message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="classalg",
        description=(
            "Exact structure constants and identity checks for algebras of "
            "conjugacy classes of partial symmetries."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--family",
        default="sym",
        help="sym | wreath:<builtin> | wreath (with --group-file) | dtype",
    )
    common.add_argument(
        "--group-file", help="JSON file with keys order, mult, names (optional)"
    )
    common.add_argument(
        "--budget-elements",
        type=int,
        default=None,
        help="largest group enumeration allowed (default 10^7 elements)",
    )
    common.add_argument("--out", help="write output to this file instead of stdout")

    def add_format(p: argparse.ArgumentParser, choices=("table", "json", "csv")):
        p.add_argument("--format", choices=choices, default="table")

    p_classes = sub.add_parser(
        "classes", parents=[common], help="list class labels and sizes at a level"
    )
    p_classes.add_argument("--level", type=int, required=True)
    add_format(p_classes)
    p_classes.set_defaults(func=cmd_classes)

    p_pconst = sub.add_parser(
        "pconst", parents=[common],
        help="structure constants of partial-element class sums",
    )
    p_pconst.add_argument("--level", type=int, required=True)
    p_pconst.add_argument("--omega1", required=True, help="label like '2:[2]'")
    p_pconst.add_argument("--omega2", required=True)
    p_pconst.add_argument("--omega", help="single target label (default: expand)")
    add_format(p_pconst)
    p_pconst.set_defaults(func=cmd_pconst)

    p_sconst = sub.add_parser(
        "sconst", parents=[common], help="structure constants of center class sums"
    )
    p_sconst.add_argument("--l", type=int, required=True)
    p_sconst.add_argument("--c1", required=True, help="class label like '[2]'")
    p_sconst.add_argument("--c2", required=True)
    p_sconst.add_argument("--c", help="single target class (default: expand)")
    add_format(p_sconst)
    p_sconst.set_defaults(func=cmd_sconst)

    p_xi = sub.add_parser(
        "xi", parents=[common], help="window-count coefficients xi(l', c; l)"
    )
    p_xi.add_argument("--lprime", type=int, required=True)
    p_xi.add_argument("--class", dest="cls", required=True)
    p_xi.add_argument("--l", type=int, required=True)
    p_xi.add_argument(
        "--oracle", action="store_true",
        help="also count by subset enumeration and compare",
    )
    add_format(p_xi)
    p_xi.set_defaults(func=cmd_xi)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run exhaustive identity sweeps"
    )
    p_verify.add_argument("suite", choices=VERIFY_CHOICES)
    p_verify.add_argument("--level", type=int, required=True)
    p_verify.add_argument(
        "--jobs", type=int, default=1,
        help="accepted for compatibility and ignored: verify runs in one process",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    add_format(p_verify, choices=("table", "json"))
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _check_bounds(args: argparse.Namespace) -> None:
    """Reject numeric options outside their range as usage errors."""
    for flag, low in (("level", 0), ("l", 0), ("lprime", 0), ("jobs", 1),
                      ("budget_elements", 0)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            name = "--" + flag.replace("_", "-")
            raise ParseError(f"{name} must be at least {low}, got {clip_int(value)}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_bounds(args)
        with element_budget(args.budget_elements):
            return args.func(args)
    except ClassAlgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, BudgetExceeded) else 2


if __name__ == "__main__":
    sys.exit(main())
