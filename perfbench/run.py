#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload path-uniform --seed 1 \
        --seconds 4 --trace 0

Builds the froram library and the benchmark binary from the checkout's
sources (CMake, Release) into $CARGO_TARGET_DIR or .bench_build, runs the
binary in a scratch directory under .bench_run, and prints as its last
line one JSON object {"correct", "attempted", "failed", "metrics"}:
the end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer
metrics with --trace 1. Exits non-zero, without a result line, when the
build or the run fails; exits 1 after the result line when a returned
value was wrong.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run(cmd, timeout):
    """Run cmd with its output on stderr; kill and reap it on timeout."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if run(["cmake", "-S", HERE, "-B", build_dir,
            "-DCMAKE_BUILD_TYPE=Release"], 300) != 0:
        raise RuntimeError("cmake configure failed")
    if run(["cmake", "--build", build_dir, "-j", jobs], 800) != 0:
        raise RuntimeError("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit("unknown workload " + args.workload)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    run_root = os.path.join(ROOT, ".bench_run")
    scratch = os.path.join(run_root, "%s-%d" % (args.workload, os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", scratch]
    if args.trace:
        cmd += ["--spans", os.path.join(
            run_root, "spans-%s-seed%d.jsonl" % (args.workload, args.seed))]
    os.makedirs(run_root, exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit("benchmark binary failed (exit %d)"
                         % proc.returncode)
    raw = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise SystemExit("binary did not report %s in %s"
                             % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    for name, got in sorted(raw["metrics"].items()):
        log("%-28s %16.6f %s" % (name, got["value"], got["unit"]))
    if args.trace and "trace.overhead_pct" in raw["metrics"]:
        log("tracing overhead (traced vs untraced blocks): %.2f%%"
            % raw["metrics"]["trace.overhead_pct"]["value"])
    result = {"correct": bool(raw["correct"]),
              "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
