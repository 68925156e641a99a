#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

From the repository root:

    python3 bench/spread.py --seeds 1-10 --seconds 20 --out set1.json fig2-serv wide-dist

For every workload and metric it prints the median over the seeds, the
quartiles (statistics.quantiles(values, n=4)) and the inter-quartile
spread as a share of the median, and it fails if any run was not correct.
--out keeps every run's result line, for comparing two sets or commits.
"""

import argparse
import json
import statistics
import subprocess
import sys

WORKLOADS = ["fig2-serv", "wide-dist", "durable-dist", "resume-local"]


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="seed range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--out", help="write every result line and the summary as JSON here")
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()

    results, summary = {}, {}
    for w in args.workloads:
        results[w] = {}
        for s in seeds(args.seeds):
            res = run(w, s, args.seconds, args.trace)
            if not res["correct"] or res["failed"]:
                raise SystemExit(f"{w} seed {s}: not correct: {res}")
            results[w][s] = res
            print(f"{w} seed {s}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), flush=True)
        summary[w] = {}
        names = next(iter(results[w].values()))["metrics"]
        for name, first in sorted(names.items()):
            values = [r["metrics"][name]["value"] for r in results[w].values()]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "unit": first["unit"]}
    print(f"\n{'workload':<14} {'metric':<26} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for w, metrics in summary.items():
        for name, m in metrics.items():
            print(f"{w:<14} {name:<26} {m['median']:>12.6g} {m['q1']:>12.6g} {m['q3']:>12.6g} {100 * m['spread']:>7.2f}%")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace,
                       "summary": summary, "runs": results}, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
