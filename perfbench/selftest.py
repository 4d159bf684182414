#!/usr/bin/env python3
"""Quick self-test of the end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json for a few ops (--ops) and checks that:
  * the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics;
  * an untraced run prints every end_to_end metric and a traced run every
    per_layer metric, each with the unit BENCHMARK.json gives it;
  * the output checks pass (correct, failed == 0);
  * a deliberately corrupted op result (--corrupt-op) is counted as failed
    and shows in pass_frac / fail_frac.
Exits 0 when every check holds, 1 otherwise.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUICK_OPS = 4


def run(workload, trace, extra=()):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--ops", str(QUICK_OPS), *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(command),
                                                    proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError("result keys %s" % sorted(result))
    return result


def check_metrics(result, specs, where):
    errors = []
    for spec in specs:
        metric = result["metrics"].get(spec["name"])
        if metric is None:
            errors.append("%s: metric %s missing" % (where, spec["name"]))
        elif metric.get("unit") != spec["unit"]:
            errors.append("%s: metric %s has unit %r, expected %r"
                          % (where, spec["name"], metric.get("unit"), spec["unit"]))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, specs in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = "%s trace=%d" % (workload, trace)
            result = run(workload, trace)
            errors += check_metrics(result, specs, where)
            if not result["correct"] or result["failed"] != 0:
                errors.append("%s: output checks failed: %s" % (where, result))
            corrupted = run(workload, trace, ("--corrupt-op", "1"))
            frac = corrupted["metrics"]["pass_frac" if trace == 0 else "fail_frac"]
            if (corrupted["correct"] or corrupted["failed"] != 1 or
                    frac["value"] in (0.0, 1.0)):
                errors.append("%s: corrupted op not counted: %s" % (where, corrupted))
            print("%-24s ok=%s corrupted_failed=%d" % (where, not errors, corrupted["failed"]))
    for error in errors:
        print("FAIL " + error)
    print("selftest: %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
