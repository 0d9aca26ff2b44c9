#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads: ingest, cold_grep, served_grep, append_under_query (see
perfbench/README.md). The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics. The exit code is 0 for
a run whose answers were all correct, 1 for a wrong answer and 2 for any
other failure (missing sources, build error, crash, timeout).

Build output goes to .bench_build/perfbench, scratch archives to
.bench_work/, and traced runs' span files to .bench_out/, all under the
repository root.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ingest", "cold_grep", "served_grep", "append_under_query"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no loggrep sources next to perfbench/ (expected src/CMakeLists.txt)")
    build_dir = os.path.join(ROOT, ".bench_build", "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as err:
            fail("cannot run %s: %s" % (step[0], err))
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    binary = os.path.join(build_dir, "perfbench")
    if not os.access(binary, os.X_OK):
        fail("build produced no perfbench binary")
    return binary


def run_one(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, result line, parsed result,
    parsed environment stamp)."""
    workdir = os.path.join(ROOT, ".bench_work", "%s-%d" % (workload, os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--workdir", workdir]
    if trace:
        cmd += ["--trace-out",
                os.path.join(out_dir, "trace-%s-seed%d.json" % (workload, seed))]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: %s did not finish within %d s" % (workload, RUN_TIMEOUT_S),
              file=sys.stderr)
        return 2, None, None, None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if echo:
        # Report lines first; the result line is printed by the caller.
        print("\n".join(lines[:-1] if result is not None else lines), flush=True)
    if proc.returncode != 0 and result is None:
        print("perfbench: %s exited with %d" % (workload, proc.returncode),
              file=sys.stderr)
        return 2, None, None, None
    stamp = None
    for line in lines:
        if line.startswith("env: "):
            try:
                stamp = json.loads(line[len("env: "):])
            except ValueError:
                pass
    return proc.returncode, lines[-1], result, stamp


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in workloads:
        code, line, result, _ = run_one(binary, workload, args.seed, args.seconds,
                                        args.trace)
        if result is None:
            sys.exit(2)
        worst = max(worst, code)
        if len(workloads) == 1:
            print(line, flush=True)
            sys.exit(code)
        print("result %s: %s" % (workload, line), flush=True)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined), flush=True)
    sys.exit(worst)


if __name__ == "__main__":
    main()
