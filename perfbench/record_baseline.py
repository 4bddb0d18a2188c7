#!/usr/bin/env python3
"""Record a benchmark baseline: every workload, interleaved, one seed per round.

Usage, from the repository root:

    python3 perfbench/record_baseline.py [--rounds 10] [--out FILE]

Round r runs every workload of BENCHMARK.json once with seed
SEED0 + r, in order, then the next round starts, so a slow spell of the
host spreads over all workloads instead of landing on one. For each
workload and end-to-end metric the file holds the median, the quartiles
(statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median; one
traced run per workload gives the per-layer values.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED0 = 1000


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=900)
    if p.returncode != 0:
        sys.exit("record_baseline: %s exited %d" % (cmd, p.returncode))
    return json.loads(p.stdout.splitlines()[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rounds", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(HERE, "baseline.json"))
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    values = {w: {} for w in workloads}
    failed = {w: 0 for w in workloads}
    for r in range(a.rounds):
        for w in workloads:
            res = run(spec, w, SEED0 + r, 0)
            failed[w] += res["failed"]
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print("round %d %s: %s" % (r, w, {
                k: round(v["value"], 4) for k, v in res["metrics"].items()}),
                file=sys.stderr, flush=True)

    out = {
        "host": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                 "recorded": time.strftime("%Y-%m-%d")},
        "rounds": a.rounds,
        "run_seconds": spec["run_seconds"],
        "seeds": [SEED0, SEED0 + a.rounds - 1],
        "end_to_end": {},
        "per_layer": {},
    }
    for w in workloads:
        rows = {"failed_passes": failed[w]}
        for name, v in values[w].items():
            q1, med, q3 = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            rows[name] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "values": v}
        out["end_to_end"][w] = rows
        traced = run(spec, w, SEED0, 1)
        out["per_layer"][w] = {k: m["value"]
                               for k, m in traced["metrics"].items()}
    with open(a.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    for w in workloads:
        print(w, {k: round(v["spread"], 3)
                  for k, v in out["end_to_end"][w].items()
                  if isinstance(v, dict)})


if __name__ == "__main__":
    main()
