#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at tiny sizes, both modes.

    python3 perfbench/smoke_test.py

Builds the binary (as run.py does), runs classify, insert and query with
--smoke at --trace 0 and --trace 1, and fails unless each run
  * ends with a JSON result whose `correct` is true and `failed` is 0,
  * prints every metric BENCHMARK.json names for that mode, by name, with
    its unit, and nothing else in the result,
  * prints `failed_frac 0`.
Exits 0 when every run passes, 1 otherwise.
"""

import json
import os
import subprocess
import sys

import run

WORKLOADS = ["classify", "insert", "query"]


def check(binary, spec, workload, trace):
    """Returns a list of problems with one smoke run."""
    cmd = [binary, "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ["exit status %d" % proc.returncode]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return ["last line is not JSON: %r" % lines[-1][:200]]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(result))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("correct=%s failed=%s" %
                        (result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted=%r" % result.get("attempted"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    got = result.get("metrics", {})
    names = [m["name"] for m in wanted]
    if sorted(got) != sorted(names):
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s"
                        % (sorted(set(names) - set(got)),
                           sorted(set(got) - set(names))))
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        if entry.get("unit") != m["unit"]:
            problems.append("%s unit %r, BENCHMARK.json says %r" %
                            (m["name"], entry.get("unit"), m["unit"]))
        if not isinstance(entry.get("value"), (int, float)):
            problems.append("%s value %r" % (m["name"], entry.get("value")))
        if not any(line.split()[:1] == [m["name"]] for line in lines[:-1]):
            problems.append("%s not printed by name" % m["name"])
    failed_frac = [line.split() for line in lines if line.startswith("failed_frac")]
    if not failed_frac or float(failed_frac[0][1]) != 0:
        problems.append("failed_frac line %s" % failed_frac)
    return problems


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    if binary is None:
        print("smoke: build failed")
        return 1
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems = check(binary, spec, workload, trace)
            status = "ok" if not problems else "FAIL"
            print("%-8s trace=%d %s" % (workload, trace, status))
            for p in problems:
                print("    " + p)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
