#!/usr/bin/env python3
"""Determinism self-test of the benchmark.

    python3 perfbench/selftest.py [--workload NAME ...]

For each workload, runs the benchmark binary three times with a short fixed
request count and tracing on: twice with one seed and once with another.
Passes when every count-derived metric is bit-identical between the two
same-seed runs, every run verified its values, and the other seed
changed the address stream. Exits non-zero on any failure.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402  (the benchmark's build step)

WORKLOADS = ["path-uniform", "ring-zipf"]
# Exact counts: ratios of counters that only the request stream decides.
COUNT_METRICS = ["bw_amp", "space_amp", "journal.bytes_per_req",
                 "journal.replayed_records", "mem.allocated_mb",
                 "checkpoint.snapshot_mb"]
COUNT_PREFIXES = ("core.", "oram.")
TIMED_UNITS = ("us", "s", "MB/s", "%")


def is_count(name, unit):
    if name in COUNT_METRICS:
        return True
    return name.startswith(COUNT_PREFIXES) and unit not in TIMED_UNITS


def drive(binary, workload, seed, requests):
    scratch = os.path.join(run.ROOT, ".bench_run",
                           "selftest-%s-%d" % (workload, os.getpid()))
    try:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", str(seed),
             "--seconds", "1", "--trace", "1", "--dir", scratch,
             "--requests", str(requests)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=run.RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        raise SystemExit("%s seed %d: binary exit %d"
                         % (workload, seed, proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    args = ap.parse_args()
    binary = run.build()
    failures = 0
    for wl in args.workload or WORKLOADS:
        a = drive(binary, wl, 7, 12288)
        b = drive(binary, wl, 7, 12288)
        c = drive(binary, wl, 8, 12288)
        checked = 0
        for name, m in sorted(a["metrics"].items()):
            if not is_count(name, m["unit"]):
                continue
            checked += 1
            if m["value"] != b["metrics"][name]["value"]:
                failures += 1
                print("FAIL %s: %s differs under one seed: %r vs %r"
                      % (wl, name, m["value"], b["metrics"][name]["value"]))
        if a["info"]["stream_digest"] == c["info"]["stream_digest"]:
            failures += 1
            print("FAIL %s: seeds 7 and 8 gave the same address stream" % wl)
        for r in (a, b, c):
            if not r["correct"] or r["failed"]:
                failures += 1
                print("FAIL %s: run not correct (%d failed)"
                      % (wl, r["failed"]))
        print("%s: %d count metrics identical under one seed; streams %s "
              "and %s" % (wl, checked, a["info"]["stream_digest"],
                          c["info"]["stream_digest"]))
    print("selftest %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
