#!/usr/bin/env python3
"""Run-to-run spread of the benchmark.

Runs the command from BENCHMARK.json once per seed for each workload and
reports, for every metric, the median and the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median, marked against a third of the metric's bound.

    python3 secbench/spread.py --workloads dlrm-serve --seeds 1-5 [--trace 0]
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for name in names:
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = bench["command"] + ["--workload", name, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
                ok = False
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"] or res["failed"]:
                print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
                ok = False
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print(f"{name} seed {seed}: " + " ".join(f"{k}={m['value']:.5g}" for k, m in sorted(res["metrics"].items())), flush=True)
        for k, xs in sorted(values.items()):
            med = statistics.median(xs)
            if len(xs) >= 2:
                q1, _, q3 = statistics.quantiles(xs, n=4)
            else:
                q1 = q3 = med
            rel = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(k)
            flag = ""
            if bound is not None and k != "setup_s" and args.trace == "0":
                flag = "ok" if rel < bound / 3 else ("WITHIN-BOUND" if rel <= bound else "OVER")
                ok = ok and rel <= bound
            print(f"  {name:14s} {k:28s} median={med:<12.6g} iqr/median={rel:.4f} bound={bound} {flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
