"""The benchmark's workloads and the seeded CLI arguments they generate.

Every workload is a list of CLI invocations, each run in its own process
(a "unit" of work).  The seed is the benchmark's argument; classalg sees
only the generated command lines.

- verify-sym6: one batch sweep on the 720-element S_6, whose product table
  serves thousands of constants; the audit orbit search and main-lemma
  P/S counting carry it, the level-group build is close to zero.
- verify-wreath-jobs2: a decorated base gives more labels on a smaller
  group (384 elements), and --jobs 2 runs the fork pool in `suites`, where
  each worker refills its own caches.
- cold-queries: six full-expansion queries, each a fresh process as a
  command-line user runs them.  Group construction, the lazy table and the
  object-product path (orders above 2048) do the work here, the counting
  loops little: the reverse of the verify workloads.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from checks import FAMILY_BASE, BASE_CLASS_SIZES, Label, display, labels_alpha_between

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Invocation:
    """One CLI process and what its answer is checked against."""

    argv: tuple[str, ...]
    kind: str  # verify | sconst | pconst
    base: str = ""
    level: int = 0
    c1: Label = ()
    c2: Label = ()
    l1: int = 0
    l2: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # checks each verify suite must report; a shortfall fails the run
    suite_checks: tuple[tuple[str, int], ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-sym6",
            "batch sweep on S_6 (720 elements): one product table serves "
            "thousands of P/S constants; audit and main-lemma counting dominate",
            (("preflight", 200), ("main-lemma", 27000), ("invert", 1110),
             ("phi", 199), ("tower", 900), ("audit", 1)),
        ),
        Workload(
            "verify-wreath-jobs2",
            "decorated base cyclic2 at level 4 (384 elements, more labels) run "
            "through the fork pool with --jobs 2",
            (("preflight", 200), ("main-lemma", 54872), ("invert", 2579),
             ("phi", 240), ("tower", 1444), ("audit", 1)),
        ),
        Workload(
            "cold-queries",
            "six single sconst/pconst expansions, each a fresh process: group "
            "build, lazy table and object products dominate, counting is small",
        ),
    )
}

# (command, family, level, l1, l2): l1/l2 only for pconst, where l1 + l2
# reaches the level so every window size up to it occurs
QUERY_KINDS = (
    ("sconst", "sym", 8, 0, 0),
    ("sconst", "sym", 9, 0, 0),
    ("pconst", "sym", 7, 4, 3),
    ("sconst", "wreath:cyclic2", 5, 0, 0),
    ("pconst", "wreath:cyclic2", 5, 3, 3),
    ("sconst", "wreath:sym3", 3, 0, 0),
)


def cold_queries(seed: int) -> list[Invocation]:
    """The seeded query stream: c1 and c2 are drawn from the labels with
    1 <= alpha <= 3, everything else is fixed."""
    rng = random.Random(seed)
    out = []
    for cmd, family, level, l1, l2 in QUERY_KINDS:
        base = FAMILY_BASE[family]
        pool = labels_alpha_between(1, 3, len(BASE_CLASS_SIZES[base]))
        c1, c2 = rng.choice(pool), rng.choice(pool)
        if cmd == "sconst":
            argv = ("sconst", "--family", family, "--l", str(level),
                    "--c1", display(c1, base), "--c2", display(c2, base))
        else:
            argv = ("pconst", "--family", family, "--level", str(level),
                    "--omega1", f"{l1}:{display(c1, base)}",
                    "--omega2", f"{l2}:{display(c2, base)}")
        out.append(Invocation(argv, cmd, base, level, c1, c2, l1, l2))
    return out


def pool_jobs() -> int:
    """Two workers, never more than the cores this process may use."""
    return min(2, len(os.sched_getaffinity(0)))


def invocations(workload: str, seed: int) -> list[Invocation]:
    if workload == "verify-sym6":
        return [Invocation(("verify", "all", "--family", "sym", "--level", "6",
                            "--jobs", "1", "--seed", str(seed)), "verify")]
    if workload == "verify-wreath-jobs2":
        return [Invocation(("verify", "all", "--family", "wreath:cyclic2",
                            "--level", "4", "--jobs", str(pool_jobs()),
                            "--seed", str(seed)), "verify")]
    if workload == "cold-queries":
        return cold_queries(seed)
    raise KeyError(workload)


# sha256 of each invocation's stdout at DEFAULT_SEED, in invocation order
PINNED_STDOUT: dict[str, tuple[str, ...]] = {
    "verify-sym6": (
        "aeb03f0d39f6c6ddfbddcd2eec98ce8382c844160ee3c66f690ef67ad0095655",
    ),
    "verify-wreath-jobs2": (
        "d5528b43cd98ebea784b274be6daf40fddc0bf66cba03bc364a115e0cedd4ae4",
    ),
    "cold-queries": (
        "724bafbf26463193d886e3bec00cd4679fe515eecfdd7c79c0061d92845c5096",
        "61ca90d8fb660b5b7ebea0aecf97c1b7cb80388d73880ed7510254584f3775e2",
        "488770a9000c804ce92843e826aecf715f7fb4f3b77b0d84ca9da30b43a7e542",
        "ba91b7b2518d93c7727da1f120aac99a3aac1a1f61515fecf21c973ead25b6c3",
        "ed32b58e1e829108395a30873eb126923ccb650db36521f90fbb367b7e388003",
        "038a6493c7dd0e6ff679434632f2b0181733b9f286db86916330a6b273ec70e4",
    ),
}
