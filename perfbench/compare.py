#!/usr/bin/env python3
"""Run the benchmark over several seeds, summarize the spread of its
metrics, and check a set of runs against a baseline set.

    python3 perfbench/compare.py run --workload W --seeds 1-10 [--trace 1] --out runs.jsonl
    python3 perfbench/compare.py spread runs.jsonl
    python3 perfbench/compare.py check base.jsonl new.jsonl

`run` executes the command named in BENCHMARK.json from the repository
root and appends one line per run: {"workload", "seed", "trace", "result"}.
`spread` prints, per workload and metric, the median, the quartiles and
the spread (q3 - q1) / median, and flags every end-to-end metric whose
spread exceeds its bound. `check` flags every
end-to-end metric whose median in the new set is worse than in the base
set by more than its bound. Both exit 1 when anything is flagged.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_spec(path=ROOT / "BENCHMARK.json"):
    with open(path) as f:
        return json.load(f)


def load_runs(paths):
    """Map (workload, trace) -> list of result objects."""
    runs = {}
    for p in paths:
        with open(p) as f:
            for line in f:
                if line.strip():
                    r = json.loads(line)
                    runs.setdefault((r["workload"], r["trace"]), []).append(r["result"])
    return runs


def summary(values):
    """(median, q1, q3, spread) as statistics.quantiles(n=4) gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r["metrics"]]


def spreads(runs, spec):
    """Rows (workload, metric, median, q1, q3, spread, flagged)."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    rows = []
    for (workload, trace), results in sorted(runs.items()):
        names = sorted({n for r in results for n in r["metrics"]})
        for name in names:
            vs = values(results, name)
            if len(vs) < 2:
                continue
            med, q1, q3, sp = summary(vs)
            flagged = trace == 0 and name in bounds and sp > bounds[name]
            rows.append((workload, name, med, q1, q3, sp, flagged))
    return rows


def regressions(base, new, spec):
    """End-to-end metrics whose new median is worse than the base median
    by more than their bound, or that the new set lacks: list of
    (workload, metric, base, new, worse)."""
    out = []
    for m in spec["end_to_end"]:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        for key, base_results in sorted(base.items()):
            workload, trace = key
            if trace != 0 or key not in new:
                continue
            bv, nv = values(base_results, name), values(new[key], name)
            if not bv:
                continue
            if not nv:
                out.append((workload, name, statistics.median(bv), float("nan"), float("inf")))
                continue
            b, n = statistics.median(bv), statistics.median(nv)
            worse = (n - b) / b if lower else (b - n) / b
            if worse > bound:
                out.append((workload, name, b, n, worse))
    return out


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def cmd_run(args, spec):
    for seed in parse_seeds(args.seeds):
        argv = spec["command"] + [
            "--workload", args.workload,
            "--seed", str(seed),
            "--seconds", str(args.seconds or spec["run_seconds"]),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"{args.workload} seed {seed}: exit {proc.returncode}")
        result = json.loads(lines[-1])
        with open(args.out, "a") as f:
            f.write(json.dumps({"workload": args.workload, "seed": seed,
                                "trace": args.trace, "result": result}) + "\n")
        print(f"{args.workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)


def cmd_spread(args, spec):
    flagged = False
    for workload, name, med, q1, q3, sp, bad in spreads(load_runs(args.files), spec):
        flagged |= bad
        mark = "  OVER BOUND" if bad else ""
        print(f"{workload:18} {name:36} median {med:14.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {sp:7.3f}{mark}")
    return 1 if flagged else 0


def cmd_check(args, spec):
    found = regressions(load_runs([args.base]), load_runs([args.new]), spec)
    for workload, name, b, n, worse in found:
        print(f"REGRESSION {workload} {name}: {b:.6g} -> {n:.6g} ({worse:+.1%} worse)")
    if not found:
        print("no end-to-end metric worse than its bound")
    return 1 if found else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--workload", required=True)
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--seconds", type=int)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("files", nargs="+")
    c = sub.add_parser("check")
    c.add_argument("base")
    c.add_argument("new")
    args = ap.parse_args()
    spec = load_spec()
    if args.cmd == "run":
        cmd_run(args, spec)
        return 0
    return {"spread": cmd_spread, "check": cmd_check}[args.cmd](args, spec)


if __name__ == "__main__":
    sys.exit(main())
