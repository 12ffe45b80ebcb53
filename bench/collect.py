"""Repeat bench/run.py over seeds and summarise the spread of each metric.

    python3 bench/collect.py --seeds 1-10 [--workloads a,b] [--seconds S]
                             [--trace-seed N] [--out FILE]

Runs are interleaved (seed outer, workload inner), so a drift in machine
speed lands on every workload alike.  For each end-to-end metric it prints
the median, the quartiles (statistics.quantiles, n=4) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound in BENCHMARK.json.  With --trace-seed it adds one traced run
per workload, and --out writes everything as one JSON data point.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def bench_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def environment(summary: list[str]) -> dict:
    line = next(ln for ln in summary if ln.startswith("# environment "))
    return json.loads(line.split(" ", 2)[2])


def ungated(summary: list[str]) -> dict[str, float]:
    """The metrics run.py prints but leaves out of its JSON result."""
    out = {}
    for line in summary:
        m = re.match(r"# (\S+) = (\S+) \S+ \(not gated\)$", line)
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int)
    ap.add_argument("--out")
    args = ap.parse_args()
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    extra: dict[str, list[dict]] = {w: [] for w in workloads}
    summary: list[str] = []
    for seed in seed_list(args.seeds):
        for w in workloads:
            result, summary = bench_run(w, seed, args.seconds, 0)
            runs[w].append(result)
            extra[w].append(ungated(summary))
            print(f"{w} seed={seed} attempted={result['attempted']} "
                  f"failed={result['failed']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    point: dict = {"environment": environment(summary), "seeds": args.seeds,
                   "run_seconds": args.seconds, "workloads": {}}
    worst = 0.0
    for w in workloads:
        entry = {
            "attempted": sum(r["attempted"] for r in runs[w]),
            "failed": sum(r["failed"] for r in runs[w]),
            "end_to_end": {},
            "not_gated": {k: summarise([e[k] for e in extra[w]]) for k in extra[w][0]},
        }
        print(f"\n{w}: attempted={entry['attempted']} failed={entry['failed']}")
        for name in bounds:
            s = summarise([r["metrics"][name]["value"] for r in runs[w]])
            entry["end_to_end"][name] = s
            ratio = s["spread"] / bounds[name]
            if name != "setup_s":
                worst = max(worst, ratio)
            print(f"  {name:14s} median={s['median']:.5g} q1={s['q1']:.5g} "
                  f"q3={s['q3']:.5g} spread={s['spread']:.4f} "
                  f"bound={bounds[name]} spread/bound={ratio:.2f}")
        for name, s in entry["not_gated"].items():
            print(f"  {name:14s} median={s['median']:.5g} q1={s['q1']:.5g} "
                  f"q3={s['q3']:.5g} spread={s['spread']:.4f} (not gated)")
        if args.trace_seed is not None:
            traced, _ = bench_run(w, args.trace_seed, args.seconds, 1)
            entry["per_layer_seed"] = args.trace_seed
            entry["per_layer_attempted"] = traced["attempted"]
            entry["per_layer_failed"] = traced["failed"]
            print(f"  traced run seed={args.trace_seed}: attempted={traced['attempted']} "
                  f"failed={traced['failed']}")
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][w] = entry
    print(f"\nlargest spread/bound (setup_s aside): {worst:.2f}")
    if args.out:
        Path(args.out).write_text(json.dumps(point, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
