#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 e2ebench/spread.py --seeds 1-10 [--workloads sessions,recommend]
                               [--seconds N] [--trace 0|1] [--out FILE]

Run from the repository root. For every workload it runs the command in
BENCHMARK.json once per seed and prints, per metric, the median, the
quartiles (Python's statistics.quantiles, n=4), min, max, the run count
and the spread: the interquartile distance as a share of the median,
next to the metric's bound and a third of it. --out writes the same
numbers as a JSON record with the core count, git sha and features.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values), "max": max(values),
            "n": len(values), "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    record = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for w in workloads:
        values = {}
        for seed in seeds_of(args.seeds):
            rec, result = run_once(bench["command"], w, seed, seconds, args.trace)
            for k in ("nproc", "git_sha", "features"):
                record[k] = rec[k]
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"{w} seed {seed}: {rec['passes']} passes, {result['attempted']} requests, "
                  f"{result['failed']} failed, digest {rec['digest']}", flush=True)
        record["workloads"][w] = {}
        print(f"{w:<12} {'metric':<32} {'median':>14} {'q1':>12} {'q3':>12} {'spread':>8} {'bound/3':>8}")
        for name, (unit, vals) in values.items():
            s = summarize(vals)
            s["unit"] = unit
            record["workloads"][w][name] = s
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- wide"
            print(f"{'':<12} {name:<32} {s['median']:>14.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
                  f"{s['spread']:>8.4f} {bound / 3 if bound else float('nan'):>8.4f}{flag}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(record, f, indent=1, sort_keys=True)
            f.write("\n")


if __name__ == "__main__":
    main()
