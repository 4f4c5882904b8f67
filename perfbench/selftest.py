#!/usr/bin/env python3
"""Self-test of the serving benchmark (see perfbench/README.md).

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at SF 0.01 for a few seconds, untraced
and traced, through perfbench/run.py, and checks that

  * each run exits 0 with a well-formed result line, nothing failed and
    every answer was right (fail_frac = 0);
  * the untraced result holds exactly the end_to_end metrics and the traced
    result exactly the per_layer metrics, each with the unit
    BENCHMARK.json names;
  * a deliberately wrong expected answer fails the run;
  * a set SGXBENCH_* variable makes the benchmark refuse to run.

Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SMALL = ["--sf", "0.01", "--setups", "1"]


def run(workload, trace, seconds=2, extra=(), env=None):
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", str(seconds),
           "--trace", str(trace)] + SMALL + list(extra)
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True, env=env,
                       timeout=900)
    result = None
    lines = r.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        pass
    return r.returncode, result, r.stderr


def check(cond, what):
    if not cond:
        print("selftest FAILED: " + what)
        sys.exit(1)
    print("ok: " + what)


def check_metrics(result, declared, label):
    metrics = result["metrics"]
    for m in declared:
        got = metrics.get(m["name"])
        check(got is not None and got["unit"] == m["unit"] and
              isinstance(got["value"], (int, float)),
              "%s prints %s in %s" % (label, m["name"], m["unit"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            label = "%s trace=%d" % (w, trace)
            rc, result, err = run(w, trace)
            check(rc == 0 and result is not None,
                  label + " exits 0 with a result" +
                  ("" if rc == 0 else ": " + err[-2000:]))
            check(result["correct"] is True and result["failed"] == 0 and
                  result["attempted"] >= 1,
                  label + " has fail_frac = 0")
            declared = spec["per_layer" if trace else "end_to_end"]
            check_metrics(result, declared, label)
            check(len(result["metrics"]) == len(declared),
                  label + " prints no undeclared metric")

    rc, result, _ = run("resident", 0, seconds=1, extra=["--wrong-answer"])
    check(rc != 0 and result is not None and result["correct"] is False and
          result["failed"] > 0,
          "a wrong expected answer fails the run")

    env = dict(os.environ, SGXBENCH_PIPELINE="1")
    rc, result, _ = run("resident", 0, seconds=1, env=env)
    check(rc != 0 and result is None,
          "a set SGXBENCH_* variable makes the run refuse")
    print("selftest passed")


if __name__ == "__main__":
    main()
