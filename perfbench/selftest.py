#!/usr/bin/env python3
"""Determinism self-test of the benchmark's inputs.

  python3 perfbench/selftest.py

Builds perfbench, then digests every seeded input (all workload corpora, the
cold_grep query sequence and the served_grep request sequence) plus the
compression ratio of one ingest pass over the ingest corpus:
  * the same seed twice must give identical digests and an identical ratio;
  * a different seed must give a different corpus and request sequence.
Exits 0 when all checks pass, 1 otherwise.
"""

import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (perfbench/run.py: build)


def digest(binary, seed):
    workdir = os.path.join(run.ROOT, ".bench_work", "selftest-%d-%d" % (os.getpid(), seed))
    try:
        out = subprocess.run([binary, "--digest", "--seed", str(seed), "--workdir", workdir],
                             stdout=subprocess.PIPE, text=True, check=True).stdout
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(out.strip().split("\n")[-1])


def main():
    binary = run.build()
    first = digest(binary, 1)
    again = digest(binary, 1)
    other = digest(binary, 2)
    checks = [
        ("same seed, same corpus", first["corpus"] == again["corpus"]),
        ("same seed, same request sequence", first["queries"] == again["queries"]),
        ("same seed, same compression_ratio",
         first["compression_ratio"] == again["compression_ratio"]),
        ("other seed, other corpus", first["corpus"] != other["corpus"]),
        ("other seed, other request sequence", first["queries"] != other["queries"]),
    ]
    print("seed 1: %s\nseed 1: %s\nseed 2: %s" % (
        json.dumps(first), json.dumps(again), json.dumps(other)))
    failed = [name for name, ok in checks if not ok]
    for name, ok in checks:
        print("%s: %s" % ("PASS" if ok else "FAIL", name))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
