#!/usr/bin/env python3
"""Builds and runs the ETA2 end-to-end benchmark (see README.md here).

    python3 perfbench/run.py --workload campaign-synthetic --seed 1 \
        --seconds 40 --trace 0

Run it from the repository root. The first run configures and builds
perfbench/CMakeLists.txt (the library straight from src/ plus the
benchmark binary) into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only re-check the build. Serve campaigns are written
under .bench_run/ and removed when the run ends.

Standard output ends with one JSON line {"correct", "attempted", "failed",
"metrics"}: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1. The line before it is the metadata
header. When a correctness gate fails, nothing is printed on standard
output and the exit code is nonzero.
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
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (src/CMakeLists.txt)", 2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed", 2)
    return os.path.join(out, "eta2_perfbench")


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    """Returns an error string when `line` is not a well-formed result."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "last line is not JSON"
    if set(result) != RESULT_KEYS:
        return f"result keys {sorted(result)}"
    if result["correct"] is not True:
        return "result not marked correct"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number >= 1"
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        return "failed must be a whole number >= 0"
    expected = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        return f"metrics differ from BENCHMARK.json: missing {missing}, " \
               f"extra {extra}, or units differ"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Self-test knobs (selftest.py): tiny inputs, deliberately broken gates.
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--perturb", default="none")
    args = parser.parse_args()

    binary = build()
    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", str(args.trace),
               "--scale", args.scale,
               "--perturb", args.perturb,
               "--workdir", os.path.join(ROOT, ".bench_run"),
               "--git-commit", git_commit(),
               "--command", " ".join(["python3"] + sys.argv)]
    # A fixed mmap threshold stops glibc from raising it as large blocks are
    # freed, so peak RSS tracks live memory instead of the order in which
    # the parallel lanes' arenas happened to free large blocks.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark failed (exit {proc.returncode})")
    error = check_result(lines[-1], args.trace == 1)
    if error:
        fail(error)
    print("\n".join(lines))


if __name__ == "__main__":
    main()
