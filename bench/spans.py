"""Span recording around classalg's public functions, installed from outside.

The tracer replaces a function at every module binding that refers to it
(for example ``level_group`` as imported into ``center_algebra``,
``partial_algebra`` and ``correspondence``), so the program itself is not
edited.  Each call becomes one span ``(name, start_ns, end_ns, parent,
op)``; spans stay in memory and are written out once, when the process
ends.  ``self_times`` turns spans into per-layer self time: a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
from functools import partial
import importlib
import resource
from array import array
from time import perf_counter_ns

MODULES = (
    "cli",
    "finite_group",
    "wreath",
    "center_algebra",
    "partial_algebra",
    "correspondence",
    "suites",
)

# (module, function, span name); the suites are looked up in `suites` by
# run_suites, everything else is imported into several modules
PLAIN_TARGETS = (
    ("finite_group", "builtin_group", "finite_group.builtin_group"),
    ("wreath", "labels_with_alpha_up_to", "wreath.labels_with_alpha_up_to"),
    ("center_algebra", "center_product", "center_algebra.center_product"),
    ("partial_algebra", "ik_product", "partial_algebra.ik_product"),
    ("correspondence", "verify_main_lemma", "correspondence.verify_main_lemma"),
    ("correspondence", "verify_inversion", "correspondence.verify_inversion"),
    ("correspondence", "phi", "correspondence.phi"),
)
CONSTANT_TARGETS = (
    ("center_algebra", "s_constant", "center_algebra.s_constant", 4),
    ("partial_algebra", "p_constant", "partial_algebra.p_constant", 3),
)
SUITE_TARGETS = (
    ("preflight_suite", "suites.preflight"),
    ("main_lemma_suite", "suites.main-lemma"),
    ("inversion_suite", "suites.invert"),
    ("phi_suite", "suites.phi"),
    ("tower_suite", "suites.tower"),
    ("audit_suite", "suites.audit"),
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self, op: int):
        self.op = op
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # five ints per span, in an array so the cyclic garbage collector
        # never has to walk them: name id, start, end, parent, op
        self.spans = array("q")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def call(self, nid: int, fn, *args, **kwargs):
        """Run fn as one span; the slot is taken first so children can
        point at it as their parent."""
        spans, stack = self.spans, self._stack
        idx = len(spans) // 5
        spans.extend((nid, 0, -1, stack[-1] if stack else -1, self.op))
        stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            spans[5 * idx + 1] = start
            spans[5 * idx + 2] = end

    def wrap(self, name: str, fn, after=None):
        """fn as a span named `name`; after(args, kwargs, result) runs
        outside the span."""
        nid, call = self.name_id(name), self.call
        if after is None:
            def wrapper(*args, **kwargs):
                return call(nid, fn, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = call(nid, fn, *args, **kwargs)
                after(args, kwargs, result)
                return result
        return functools.update_wrapper(wrapper, fn)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "spans": [
                row for i in range(0, len(self.spans), 5)
                if (row := self.spans[i:i + 5].tolist())[2] >= 0
            ],
            "counters": self.counters,
        }


def _rebind(modules: list, original, replacement) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _constant_after(tracer: Tracer, name: str, nlabels: int):
    """Count distinct argument tuples and nonzero answers of s/p_constant.
    The group enters the key by identity, which is what the process's own
    caches see, without hashing its multiplication table."""
    seen: set = set()

    def after(args, kwargs, result):
        F = args[nlabels] if len(args) > nlabels else kwargs["F"]
        key = args[:nlabels] + (id(F),)
        if key not in seen:
            seen.add(key)
            tracer.count(name + ".distinct")
        if result:
            tracer.count(name + ".nonzero")

    return after


def _level_group_wrapper(tracer: Tracer, cls, original):
    """Count builds and time the first `mul` of each new level group, which
    builds the flat table for orders up to 2048.

    The timed `mul` is put on the class, not on the instance, and the
    class gets its own method back as soon as no group awaits its first
    product: an instance attribute would turn the group's attribute
    storage into a plain dict and slow every later access to it.
    """
    nid = tracer.name_id("wreath.first_mul")
    method = cls.mul
    seen: set[int] = set()
    pending: set[int] = set()

    def first_mul(self, i, j):
        if id(self) not in pending:
            return method(self, i, j)
        pending.discard(id(self))
        if not pending:
            cls.mul = method
        return tracer.call(nid, method, self, i, j)

    level_nid = tracer.name_id("wreath.level_group")

    def level_group(*args, **kwargs):
        rss0 = _maxrss_kb()
        G = tracer.call(level_nid, original, *args, **kwargs)
        if id(G) not in seen:
            seen.add(id(G))
            tracer.count("wreath.level_group.builds")
            tracer.count("wreath.level_group.elements", G.order)
            tracer.count("wreath.level_group.rss_delta_kb", _maxrss_kb() - rss0)
            pending.add(id(G))
            cls.mul = first_mul
        return G

    return functools.update_wrapper(level_group, original)


def install(op: int) -> Tracer:
    """Wrap the layer functions at every binding in the classalg modules."""
    tracer = Tracer(op)
    mods = [importlib.import_module("classalg." + m) for m in MODULES]
    mods.append(importlib.import_module("classalg"))
    home = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}

    def replace(module: str, attr: str, make) -> None:
        original = getattr(home[module], attr)
        _rebind(mods, original, make(original))

    def add_result(key: str, measure):
        return lambda args, kwargs, result: tracer.count(key, measure(result))

    for module, attr, name in PLAIN_TARGETS:
        replace(module, attr, partial(tracer.wrap, name))
    for module, attr, name, nlabels in CONSTANT_TARGETS:
        after = _constant_after(tracer, name, nlabels)
        replace(module, attr, partial(tracer.wrap, name, after=after))
    level_group = partial(_level_group_wrapper, tracer, home["wreath"].LevelGroup)
    replace("wreath", "level_group", level_group)
    name = "correspondence.admissibility_audit"
    after = add_result(name + ".pairs", lambda rep: rep.pairs_checked)
    replace("correspondence", "admissibility_audit", partial(tracer.wrap, name, after=after))
    for attr, name in SUITE_TARGETS:
        # the audit suite reports one verdict and no check count
        after = add_result(name + ".checks", lambda rep: rep.get("checks", 1))
        replace("suites", attr, partial(tracer.wrap, name, after=after))
    return tracer


def self_times(spans: list) -> list[int]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to its own interval."""
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children.setdefault(span[3], []).append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0
        cur_lo = cur_hi = None
        for lo, hi in sorted(
            (max(start, spans[c][1]), min(end, spans[c][2]))
            for c in children.get(i, ())
        ):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end - start - covered)
    return out
