"""Independent answer checks for the benchmark's CLI outputs.

Nothing here asks classalg for a class size.  Sizes come from the closed
form |c(l)| = |F|^l l! / prod_{r,k} m_{r,k}! (r |F| / |K_k|)^{m_{r,k}},
where m_{r,k} counts the r-cycles whose cycle product lies in the F-class
K_k (fixed points with identity decoration included).  The class sizes of
the base groups are written out below; the self-tests compare them, and
the closed form, with the package's own enumeration.

The identities checked are the class equations of the two products:

    sum_c S(c1,c2,c;l) |c(l)| = |c1(l)| |c2(l)|
    sum_w P(w1,w2,w) C(N,l_w) |c_w(l_w)| = C(N,l1) |c1(l1)| C(N,l2) |c2(l2)|
"""

from __future__ import annotations

import re
from collections import Counter
from math import comb, factorial

# F-class sizes in the package's class order: the identity class first,
# then by least element index
BASE_CLASS_SIZES = {
    "trivial": (1,),
    "cyclic2": (1, 1),
    "sym3": (1, 3, 2),
}
FAMILY_BASE = {"sym": "trivial", "wreath:cyclic2": "cyclic2", "wreath:sym3": "sym3"}

Label = tuple  # ((cycle length, F-class), ...), canonically sorted


def canonical(pairs) -> Label:
    return tuple(sorted((p for p in pairs if tuple(p) != (1, 0)),
                        key=lambda p: (-p[0], p[1])))


def alpha(c: Label) -> int:
    return sum(r for r, _ in c)


def labels_alpha_between(lo: int, hi: int, nclasses: int) -> list[Label]:
    """Every label with lo <= alpha <= hi, ordered by (alpha, pairs)."""
    kinds = [(r, k) for r in range(1, hi + 1) for k in range(nclasses)
             if (r, k) != (1, 0)]
    out = []

    def rec(i: int, room: int, acc: list) -> None:
        if i == len(kinds):
            if alpha(tuple(acc)) >= lo:
                out.append(canonical(acc))
            return
        r, _ = kinds[i]
        for cnt in range(room // r + 1):
            rec(i + 1, room - cnt * r, acc + [kinds[i]] * cnt)

    rec(0, hi, [])
    return sorted(set(out), key=lambda c: (alpha(c), c))


def display(c: Label, base: str) -> str:
    if base == "trivial":
        return "[" + ",".join(str(r) for r, _ in c) + "]"
    return "[" + ",".join(f"({r},{k})" for r, k in c) + "]"


def parse_label(text: str) -> Label:
    inner = text.strip()[1:-1]
    if not inner:
        return ()
    if inner.startswith("("):
        pairs = [(int(a), int(b)) for a, b in re.findall(r"\((\d+),(\d+)\)", inner)]
    else:
        pairs = [(int(p), 0) for p in inner.split(",")]
    return canonical(pairs)


def parse_omega(text: str) -> tuple[int, Label]:
    l, c = text.split(":", 1)
    return int(l), parse_label(c)


def class_size(c: Label, l: int, base: str) -> int:
    """|c(l)| in F wr S_l from the centralizer order; 0 if c needs more points."""
    if alpha(c) > l:
        return 0
    sizes = BASE_CLASS_SIZES[base]
    order = sum(sizes)
    mult = Counter(c)
    mult[(1, 0)] += l - alpha(c)
    centralizer = 1
    for (r, k), m in mult.items():
        centralizer *= factorial(m) * (r * order // sizes[k]) ** m
    group = order**l * factorial(l)
    if group % centralizer:
        raise ArithmeticError(f"centralizer order {centralizer} does not divide {group}")
    return group // centralizer


def sconst_identity_holds(base: str, l: int, c1: Label, c2: Label,
                          rows: list[tuple[Label, int]]) -> bool:
    lhs = sum(s * class_size(c, l, base) for c, s in rows)
    return lhs == class_size(c1, l, base) * class_size(c2, l, base)


def pconst_identity_holds(base: str, N: int, w1: tuple[int, Label],
                          w2: tuple[int, Label],
                          rows: list[tuple[tuple[int, Label], int]]) -> bool:
    def size(w):
        return comb(N, w[0]) * class_size(w[1], w[0], base)

    lhs = sum(p * size(w) for w, p in rows)
    return lhs == size(w1) * size(w2)


def parse_table(text: str, command: str) -> list[list[str]]:
    """Data rows of a `sconst`/`pconst` table, after its two header lines."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith(command + " "):
        raise ValueError(f"not a {command} table")
    return [line.split() for line in lines[2:]]


def check_sconst(text: str, base: str, l: int, c1: Label, c2: Label) -> bool:
    rows = []
    for cells in parse_table(text, "sconst"):
        a, b, c, lv, s = cells
        if (parse_label(a), parse_label(b), int(lv)) != (c1, c2, l):
            return False
        rows.append((parse_label(c), int(s)))
    if len({c for c, _ in rows}) != len(rows):
        return False
    return sconst_identity_holds(base, l, c1, c2, rows)


def check_pconst(text: str, base: str, N: int, w1: tuple[int, Label],
                 w2: tuple[int, Label]) -> bool:
    rows = []
    for cells in parse_table(text, "pconst"):
        a, b, w, p = cells
        if (parse_omega(a), parse_omega(b)) != (w1, w2):
            return False
        rows.append((parse_omega(w), int(p)))
    if len({w for w, _ in rows}) != len(rows):
        return False
    return pconst_identity_holds(base, N, w1, w2, rows)


_SUITE_LINE = re.compile(
    r"^(preflight|main-lemma|invert|phi|tower): .*checks=(\d+)"
    r"(?: failures=(\d+))? (ok|FAILED)$"
)
_AUDIT_LINE = re.compile(r"^audit: .* -> (PASS|FAIL) \(expected (PASS|FAIL)\)$")


def parse_verify(text: str) -> tuple[dict[str, int], int, bool]:
    """Checks per suite (the audit counts as one), failed checks, and
    whether the run ended with RESULT: OK."""
    checks: dict[str, int] = {}
    failed = 0
    for line in text.splitlines():
        m = _SUITE_LINE.match(line)
        if m:
            checks[m.group(1)] = int(m.group(2))
            n = int(m.group(3) or 0)
            failed += n if m.group(4) == "ok" else max(1, n)
            continue
        m = _AUDIT_LINE.match(line)
        if m:
            checks["audit"] = 1
            failed += m.group(1) != m.group(2)
    return checks, failed, text.endswith("RESULT: OK\n")
