#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: cotrain-squirrel, blocks-100k, serve-sampled, serve-lookup (see
perfbench/README.md). The build goes to .bench_build/ (or $CARGO_TARGET_DIR
when set). The last line of standard output is the result object; the lines
before it stamp the build and the machine. Unknown flags exit with code 2, a
failed build or wrong output with code 1.

An untraced run also times the workload's set-up in SETUP_PROCESSES - 1
fresh processes (perfbench --setup-only 1) after the measuring one, and
reports setup_s as the median over all of them: the set-up's speed differs
more between processes than between repeats in one process.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["cotrain-squirrel", "blocks-100k", "serve-sampled", "serve-lookup"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run is set-up plus about two --seconds of measuring (serving phases and
# repeated training units both scale with it) plus one last training unit
# and the traced re-drive; the fixed part covers the slowest of those.
RUN_TIMEOUT_FIXED_S = 120
RUN_TIMEOUT_PER_SECOND = 3
SETUP_PROCESSES = 5


def repo_root():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(root, build_dir):
    """Configures (once) and builds the perfbench target; logs to stderr."""
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
            return False
    return True


def git_sha(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "none"
    return done.stdout.strip() or "none"


def run_binary(cmd, root, deadline):
    """Runs cmd until the deadline; returns it and its last line parsed."""
    done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        last = json.loads(lines[-1])
    except ValueError:
        last = None
    return done, lines, last if isinstance(last, dict) else None


def main():
    parser = argparse.ArgumentParser(allow_abbrev=False, description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()  # unknown or malformed flags exit with code 2
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = repo_root()
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(root, build_dir):
        return 1
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp-dir", tmp_dir]
    timeout_s = RUN_TIMEOUT_FIXED_S + RUN_TIMEOUT_PER_SECOND * args.seconds
    deadline = time.monotonic() + timeout_s
    try:
        done, lines, result = run_binary(cmd, root, deadline)
        if result is None or set(result) != RESULT_KEYS:
            sys.stderr.write(done.stdout)
            sys.stderr.write("perfbench: no result line (exit code %d)\n" % done.returncode)
            return 1
        if args.trace == 0 and result["correct"]:
            setup_s = [result["metrics"]["setup_s"]["value"]]
            for _ in range(SETUP_PROCESSES - 1):
                probe, _, last = run_binary(cmd + ["--setup-only", "1"], root, deadline)
                if probe.returncode != 0 or last is None or last.get("correct") is not True:
                    sys.stderr.write(probe.stdout)
                    sys.stderr.write("perfbench: set-up-only run failed\n")
                    return 1
                setup_s.append(last["setup_s"])
            result["metrics"]["setup_s"]["value"] = statistics.median(setup_s)
            lines[-1] = json.dumps(result)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % timeout_s)
        return 1
    print("# git %s" % git_sha(root))
    print("\n".join(lines))
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
