#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload generate --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --selftest

The harness (perfbench/*.cc) is compiled with the library sources under
src/ in Release mode into .bench_build/perfbench on first use. A run's
scratch files live in .bench_build/work-<pid> and are removed when it ends.
The last line of stdout is the result object of the run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the harness; False on any failure."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


def run_binary(args, workdir):
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run([BINARY] + args + ["--workdir", workdir],
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                              text=True)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, proc.stdout


def result_of(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def selftest():
    """Tiny run of every workload, traced and untraced: every metric named in
    BENCHMARK.json prints with its unit and every check passes. Then the
    negative cases must fail the output checks."""
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "metric_map.json")) as f:
        metric_map = json.load(f)
    failures = []
    mapped = set(metric_map["end_to_end"]) | set(metric_map["per_layer"])
    for kind in ("end_to_end", "per_layer"):
        for metric in bench[kind]:
            if metric["name"] not in mapped:
                failures.append(f"{metric['name']} missing from metric_map.json")
    for workload in bench["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, out = run_binary(
                ["--workload", workload["name"], "--seed", "3", "--seconds",
                 "1", "--trace", str(trace), "--tiny"],
                os.path.join(".bench_build", f"work-{os.getpid()}"))
            result = result_of(out) if code == 0 else None
            tag = f"{workload['name']} trace={trace}"
            if result is None:
                failures.append(f"{tag}: exit {code}, no result")
                continue
            if not result["correct"] or result["failed"]:
                failures.append(f"{tag}: {result['failed']} failed checks")
            for metric in bench[kind]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    failures.append(f"{tag}: {metric['name']} missing or "
                                    f"wrong unit ({got})")
            log(f"selftest {tag}: {len(result['metrics'])} metrics")
    code, _ = run_binary(["--negative-tests"],
                         os.path.join(".bench_build", f"work-{os.getpid()}"))
    if code != 0:
        failures.append("negative cases were not rejected by the checks")
    for failure in failures:
        log(f"selftest FAILED: {failure}")
    if not failures:
        log("selftest ok")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.selftest:
        return selftest()
    code, out = run_binary(
        ["--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        os.path.join(".bench_build", f"work-{os.getpid()}"))
    if code != 0:
        log(f"harness exited with {code}")
        return code or 1
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
