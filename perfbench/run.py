#!/usr/bin/env python3
"""Build the repository from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The build goes to .bench_build/ and
the run's scratch files (server roots, sockets, results, spans) to
.bench_run/.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  See README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_run"
WORKLOADS = ("recognize-corpus", "embed-fleet", "service-mix")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_revision():
    """The git commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def build():
    for need in ("dune-project", "lib", os.path.join("bin", "dune"), os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("not a pathmark checkout: %s is missing" % need)
    env = dict(os.environ, DUNE_BUILD_DIR=BUILD_DIR, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ROOT, "--profile", "release",
           "./perfbench/pmbench.exe", "./bin/pathmark_cli.exe"]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    except (OSError, subprocess.SubprocessError) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed with exit code %d" % done.returncode)
    exe = os.path.join(ROOT, BUILD_DIR, "default")
    return os.path.join(exe, "perfbench", "pmbench.exe"), os.path.join(exe, "bin", "pathmark_cli.exe")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    pmbench, cli = build()
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    cmd = [pmbench, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cli", cli, "--workdir", WORK_DIR,
           "--nproc", str(len(os.sched_getaffinity(0))), "--commit", source_revision()]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines:
        sys.stdout.write(out)
        fail("benchmark exited with code %d" % proc.returncode)
    result = json.loads(lines[-1])
    missing = set(expected_metrics(args.trace == 1)) - set(result["metrics"])
    if missing:
        sys.stdout.write(out)
        fail("metrics missing from the result: %s" % ", ".join(sorted(missing)))
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
