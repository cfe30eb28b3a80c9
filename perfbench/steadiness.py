#!/usr/bin/env python3
"""Repeat every workload and report how steady each metric is.

    python3 perfbench/steadiness.py [--runs 10] [--seed-base 1]
                                    [--workloads a,b] [--traced 1]

Runs perfbench/run.py --runs times per workload, each with its own seed,
and reports the median and interquartile spread (IQR / median, with the
quartiles of statistics.quantiles(n=4)) of every end-to-end metric next
to its bound in BENCHMARK.json. --traced extra runs per workload with
--trace 1 give the tracing overhead: 1 - traced / untraced median
throughput. Writes perfbench/out/steadiness.json and prints a Markdown
table stamped with the commit, core count and CPU model.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    if res.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {res.returncode}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def stamp():
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.strip()
    except OSError:
        sha = ""
    model = "unknown"
    try:
        for line in open("/proc/cpuinfo"):
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"sha": sha or "unknown", "cores": os.cpu_count(), "cpu": model,
            "date": datetime.date.today().isoformat()}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--traced", type=int, default=1)
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"stamp": stamp(), "runs": args.runs, "seconds": args.seconds,
              "workloads": {}}
    rows = []
    for wl in args.workloads.split(","):
        results = [run_once(wl, args.seed_base + i, args.seconds, 0)
                   for i in range(args.runs)]
        shares = {r["failed"] / r["attempted"] for r in results}
        entry = {"failed_share": sorted(shares), "metrics": {}}
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in results]
            med, q1, q3, sp = spread(vals)
            unit = results[0]["metrics"][name]["unit"]
            entry["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                      "spread": sp, "bound": bound,
                                      "unit": unit, "values": vals}
            rows.append((wl, name, med, unit, sp, bound))
        if args.traced > 0:
            traced = [run_once(wl, args.seed_base + args.runs + i,
                               args.seconds, 1)["metrics"]
                      ["trace.throughput_rps"]["value"]
                      for i in range(args.traced)]
            untraced = entry["metrics"]["throughput_rps"]["median"]
            entry["trace_overhead"] = 1 - statistics.median(traced) / untraced
        report["workloads"][wl] = entry
        print(f"{wl}: done", file=sys.stderr, flush=True)

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steadiness.json").write_text(json.dumps(report, indent=1) + "\n")
    s = report["stamp"]
    print(f"{args.runs} runs x {args.seconds} s per workload, commit {s['sha']},"
          f" {s['cores']} cores, {s['cpu']}, {s['date']}\n")
    print("| workload | metric | median | IQR/median | bound |")
    print("|---|---|---|---|---|")
    for wl, name, med, unit, sp, bound in rows:
        print(f"| {wl} | {name} | {med:.4g} {unit} | {sp:.3f} | {bound} |")
    for wl, entry in report["workloads"].items():
        extra = ""
        if "trace_overhead" in entry:
            extra = f", tracing overhead {entry['trace_overhead']:+.1%}"
        print(f"\n{wl}: failed share {entry['failed_share']}{extra}", end="")
    print()


if __name__ == "__main__":
    main()
