#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize every metric.

    python3 renbench/collect.py [--workloads A,B] [--seeds 1-10] [--trace 0|1]
                                [--out FILE] [--against FILE]

Run from the repository root. For each workload and seed it runs
renbench/run.py with BENCHMARK.json's run_seconds, prints one line per run,
and reports per metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median. End-to-end spreads are compared
with their bounds. --against names the summary of an earlier set of runs;
each end-to-end median must then be no worse than that set's by more than
the metric's bound. The summary is written as JSON to --out, or to
standard output.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values, unit):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"unit": unit, "n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10", type=seed_range)
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--out")
    p.add_argument("--against")
    args = p.parse_args()
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    summary, ok = {}, True
    for workload in args.workloads.split(","):
        values, units, failed = {}, {}, 0
        for seed in args.seeds:
            t0 = time.time()
            run = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                 "--trace", args.trace],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {run.returncode}, no result",
                      file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                ok = False
            failed += result["failed"]
            shown = []
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
                if name in e2e:
                    shown.append(f"{name}={m['value']:.6g}")
            print(f"{workload} seed {seed}: {time.time() - t0:.1f} s, correct="
                  f"{result['correct']}, attempted={result['attempted']}, "
                  f"failed={result['failed']} {' '.join(shown)}", file=sys.stderr)
        summary[workload] = {"failed": failed}
        for name, vals in values.items():
            s = summarize(vals, units[name])
            summary[workload][name] = s
            if name not in e2e or s["spread"] is None:
                continue
            bound = e2e[name]["bound"]
            verdict = "ok" if s["spread"] <= bound else "OVER BOUND"
            ok = ok and s["spread"] <= bound
            line = (f"  {workload} {name}: median {s['median']:.6g}, spread "
                    f"{s['spread']:.4f} (bound {bound}) {verdict}")
            before = earlier.get(workload, {}).get(name)
            if before:
                change = s["median"] / before["median"] - 1
                worse = change if e2e[name]["better"] == "lower" else -change
                ok = ok and worse <= bound
                line += (f"; median {change:+.4f} against the earlier set "
                         f"{'ok' if worse <= bound else 'WORSE THAN BOUND'}")
            print(line, file=sys.stderr)
    text = json.dumps(summary, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
