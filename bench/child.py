"""One classalg CLI invocation, timed from inside for the benchmark.

    python3 bench/child.py RECORD OP MODE -- <classalg arguments>

MODE is `run` (plain), `trace` (layer spans, see spans.py) or `setup`
(stop once set up).  Set-up ends when `classalg.cli` is imported and the
family and its base group are parsed; that instant is read from the
system-wide monotonic clock, so the parent can split its own spawn-to-exit
wall time at it.  The CLI then runs through `classalg.cli.main`, and a JSON
record of the timings (and spans) is written to RECORD on the way out.
"""

import time

T_START = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu_of_children() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    record_path, op, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    argv = sys.argv[sys.argv.index("--") + 1:]
    record: dict = {"t_start": T_START, "rc": None}
    tracer = None
    try:
        t = time.perf_counter()
        import classalg
        import classalg.cli as cli
        record["import_s"] = time.perf_counter() - t
        record["package"] = classalg.__file__
        if mode == "trace":
            import spans
            tracer = spans.install(op)
        cli.parse_family(argv[argv.index("--family") + 1])
        record["t_setup"] = time.monotonic()
        if mode == "setup":
            record["rc"] = 0
            return 0
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.call(tracer.name_id("cli.main"), cli.main, argv)
        sys.stdout.flush()
        record["rc"] = rc
        return rc
    finally:
        record["t_end"] = time.monotonic()
        record["pool_cpu_s"] = _cpu_of_children()
        if tracer is not None:
            record["trace"] = tracer.dump()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
