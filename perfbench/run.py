#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

A run builds the library and the benchmark binary from source into
.bench_build/perfbench (incrementally after the first time), then runs
one workload. With --trace 0 it first starts SETUP_SAMPLES fresh
processes that only set up (generate inputs, run the warm-up pass),
half before and half after the timed process; setup_s is the median of
their set-up times and that of the timed process, so work moved into
one-time initialisation shows. With
--trace 1 the binary replays the pass layer by layer and writes a
Chrome trace-event file under .bench_build/traces/.

The last line of standard output is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Any build or run failure exits non-zero without printing it.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "hlbench")
TRACES = os.path.join(ROOT, ".bench_build", "traces")

SETUP_SAMPLES = 20
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "evaluator.hh")):
        fail("library sources not found under %s" % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=850).returncode
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if rc != 0:
            fail("build step %s exited %d" % (" ".join(cmd[:2]), rc))


def run_binary(args, timeout, env=None):
    """Run hlbench; return (exit code, stdout lines)."""
    try:
        p = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                           stderr=sys.stderr, text=True, timeout=timeout,
                           env=env)
    except subprocess.TimeoutExpired:
        fail("hlbench %s timed out after %ss" % (" ".join(args), timeout))
    return p.returncode, p.stdout.splitlines()


def last_json(lines):
    if not lines:
        fail("hlbench printed nothing")
    return json.loads(lines[-1])


def bench_args(a):
    return ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds)]


def run(a):
    build()
    timeout = 4 * a.seconds + 60
    setup = []

    def sample_setup(n):
        for _ in range(n):
            rc, lines = run_binary(bench_args(a) + ["--setup-only"], 60)
            if rc != 0:
                fail("set-up run exited %d" % rc, rc)
            setup.append(last_json(lines)["setup_s"])

    # Half the set-up samples before the timed process and half after,
    # so a slow spell of the host during one of them weighs less.
    if a.trace == 0:
        sample_setup(SETUP_SAMPLES // 2)
    extra = ["--trace", str(a.trace)]
    if a.trace == 1:
        os.makedirs(TRACES, exist_ok=True)
        extra += ["--trace-out", os.path.join(
            TRACES, "%s-seed%d.json" % (a.workload, a.seed))]
    rc, lines = run_binary(bench_args(a) + extra, timeout)
    if rc != 0:
        fail("hlbench exited %d" % rc, rc)
    result = last_json(lines)
    if a.trace == 0:
        sample_setup(SETUP_SAMPLES - SETUP_SAMPLES // 2)
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)


# ------------------------------------------------------------ self-test

def check(cond, msg):
    if not cond:
        fail("selftest: " + msg)


def selftest():
    """Checks the benchmark's own contract; exits non-zero on a failure."""
    build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)["per_layer"]
    workloads = [w["name"] for w in spec["workloads"]]
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    names = workloads + list(e2e) + list(per_layer)
    for n in names:
        check(NAME_RE.match(n), "bad name %r" % n)
    check(len(names) == len(set(names)), "a name is used twice")
    check(set(layers) == set(per_layer),
          "layers.json and BENCHMARK.json list different per-layer metrics")
    for n, doc in layers.items():
        check(doc.get("moves") and doc.get("on"),
              "layers.json: %s lacks what it moves and where" % n)

    def result(w, trace, *extra):
        rc, lines = run_binary(["--workload", w, "--seed", "11",
                                "--seconds", "3", "--trace", str(trace)]
                               + list(extra), 120)
        check(rc == 0, "%s exited %d" % (w, rc))
        info = json.loads(lines[-2])["info"]
        return info, last_json(lines)

    for w in workloads:
        info, r = result(w, 0)
        check(sorted(r) == ["attempted", "correct", "failed", "metrics"],
              "%s: result keys %s" % (w, sorted(r)))
        got = {k: v["unit"] for k, v in r["metrics"].items()}
        check(got == e2e, "%s: end-to-end metrics %s" % (w, got))
        check(r["correct"] and r["failed"] == 0 and r["attempted"] > 100,
              "%s: untouched run reports %s" % (w, r))
        digest = info["output_digest"]

        tinfo, t = result(w, 1)
        got = {k: v["unit"] for k, v in t["metrics"].items()}
        check(got == per_layer, "%s: per-layer metrics differ" % w)
        check(t["correct"], "%s: traced run failed a check" % w)
        check(tinfo["output_digest"] == digest,
              "%s: traced and untraced outputs differ" % w)

        info1, r1 = result(w, 0, "--threads", "1")
        check(info1["output_digest"] == digest and r1["correct"],
              "%s: output differs at pool size 1" % w)

        _, bad = result(w, 0, "--corrupt-pass", "2")
        check(bad["failed"] == 1 and not bad["correct"],
              "%s: a corrupted pass was not counted: %s" % (w, bad))
        _, bad0 = result(w, 0, "--corrupt-pass", "0")
        check(bad0["failed"] == bad0["attempted"],
              "%s: a corrupted first pass did not fail every pass" % w)
        print("selftest: %s ok (digest %s)" % (w, digest))

    for env_knob in ("HIGHLIGHT_CACHE_FILE", "HIGHLIGHT_FAILPOINTS"):
        env = dict(os.environ, **{env_knob: "x"})
        rc, lines = run_binary(["--workload", workloads[0], "--seed", "1",
                                "--seconds", "1", "--trace", "0"], 60, env)
        check(rc != 0 and not lines, "%s did not refuse to run" % env_knob)
    rc, lines = run_binary(["--workload", "no_such_workload", "--seed", "1",
                            "--seconds", "1", "--trace", "0"], 60)
    check(rc != 0 and not lines, "an unknown workload did not fail")
    print("selftest: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if a.selftest:
        selftest()
        return
    if a.workload is None or a.seed is None or a.seconds is None or \
            a.trace is None:
        p.error("--workload, --seed, --seconds and --trace are required")
    if a.seconds < 1 or a.seed < 0:
        p.error("--seconds must be >= 1 and --seed >= 0")
    run(a)


if __name__ == "__main__":
    main()
