#!/usr/bin/env python3
"""Entry point of the serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload resident --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. Builds the repository's libraries
and the benchmark binary (perfbench_serve) from source into .bench_build/
(or $CARGO_TARGET_DIR when set), then runs one workload. The binary's last
line of standard output is the JSON result; this script prints it
unchanged and exits with the binary's exit code. Extra arguments (--sf,
--setups, --wrong-answer) are passed through to the binary.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TARGET = "perfbench_serve"


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build():
    """Configures and builds perfbench_serve; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources next to perfbench/ (expected src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    out = os.path.join(build_dir(), "perfbench")
    configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.isfile(
            os.path.join(out, "Makefile")):
        configure += ["-G", "Ninja"]
    jobs = str(os.cpu_count() or 1)
    for cmd in (configure,
                ["cmake", "--build", out, "--target", TARGET, "-j", jobs]):
        r = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-8000:])
            fail("build failed: " + " ".join(cmd))
    return os.path.join(out, TARGET)


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                           text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return r.stdout.strip() if r.returncode == 0 else "none"


def print_trace_overhead(results_dir, workload, seed, traced):
    """Prints traced.<m> against <m> of the untraced run of the same
    workload and seed, when that run's result was kept."""
    path = os.path.join(results_dir, "%s-%s-untraced.json" % (workload, seed))
    if not os.path.isfile(path):
        print("# trace overhead: no untraced result for this workload and "
              "seed in %s" % results_dir)
        return
    with open(path) as f:
        base = json.load(f)["metrics"]
    print("# trace overhead (traced - untraced) / untraced, same seed:")
    for name, m in base.items():
        t = traced.get("traced." + name)
        if t is None or m["value"] == 0:
            continue
        print("#   %-22s %12.4f -> %12.4f %-5s %+7.2f%%" % (
            name, m["value"], t["value"], m["unit"],
            100.0 * (t["value"] - m["value"]) / m["value"]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["resident", "paged", "htap"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args, extra = ap.parse_known_args()

    binary = build()
    results_dir = os.path.join(build_dir(), "results")
    os.makedirs(results_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--git-sha", git_sha()] + extra
    if args.trace:
        cmd += ["--spans", os.path.join(
            results_dir, "%s-%d-spans.json" % (args.workload, args.seed))]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if result is None:
        sys.stdout.write(out)
        fail("%s exited with %d and no result" % (TARGET, proc.returncode))

    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if not args.trace and not extra and proc.returncode == 0:
        with open(os.path.join(results_dir, "%s-%d-untraced.json" % (
                args.workload, args.seed)), "w") as f:
            json.dump(result, f)
    if args.trace:
        print_trace_overhead(results_dir, args.workload, args.seed,
                             result["metrics"])
    print(lines[-1])
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
