#!/usr/bin/env python3
"""Self-test of the benchmark itself (seconds, not minutes).

    python3 perfbench/selftest.py

Checks, at a tiny problem size:
  * BENCHMARK.json is well formed (names, units, bounds, setup_s);
  * every workload runs in both modes and prints the metadata header and a
    result line with exactly the metrics BENCHMARK.json names;
  * the exact-repeat counters and the result digests come out identical
    across two runs of one seed, and across the untraced and traced runs;
  * each correctness gate fires on a deliberately perturbed run: nonzero
    exit and no result on standard output;
  * a directory holding only BENCHMARK.json and perfbench/ fails cleanly.
Exits 0 when every check passes.
"""
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
META_KEYS = {"git_commit", "build_type", "eta2_checks", "sanitizer", "nproc",
             "online_cpus", "hardware_concurrency", "parallel_lanes",
             "workload", "seed", "campaign", "serve", "serve_dir_fs",
             "campaign_digests", "backlog_digest", "command"}
REPEAT_COUNTERS = ("alloc.pairs", "alloc.gain_evals", "truth.mle_iterations",
                   "core.collect_calls", "text.embed_calls",
                   "clustering.domains", "io.wal_bytes_per_step")
PERTURBATIONS = ("trace-digest", "repeat-counter", "simulate-error")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, seed, trace, perturb="none", cwd=ROOT, timeout=180):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny", "--perturb", perturb]
    return subprocess.run(argv, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "names are valid and unique")
    metrics = spec["end_to_end"] + spec["per_layer"]
    check(all(UNIT.match(m["unit"]) for m in metrics), "units are valid")
    check(all(set(m) == {"name", "unit", "better", "bound"} and
              0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
          "end-to-end metrics carry a bound <= 0.25")
    check(all(set(m) == {"name", "unit", "better"}
              for m in spec["per_layer"]), "per-layer metrics carry no bound")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s" and
          setup[0]["better"] == "lower" and
          setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is present, in s, lower-is-better, with the largest bound")
    check(2 <= len(spec["workloads"]) <= 8 and
          1 <= spec["run_seconds"] <= 60, "workload count and run_seconds")


def parse_output(proc, spec, trace, label):
    """Returns (meta, result) or None after recording the failure."""
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        check(False, f"{label}: runs (exit {proc.returncode}) "
                     f"{proc.stderr.strip()[-300:]}")
        return None
    meta = json.loads(lines[-2]).get("meta", {})
    result = json.loads(lines[-1])
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    values_ok = all(isinstance(v["value"], (int, float)) and
                    math.isfinite(v["value"])
                    for v in result["metrics"].values())
    check(set(result) == {"correct", "attempted", "failed", "metrics"} and
          result["correct"] is True and result["attempted"] >= 1 and
          got == wanted and values_ok, f"{label}: result schema")
    check(META_KEYS <= set(meta) and meta["sanitizer"] is False,
          f"{label}: metadata header")
    return meta, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)

    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for trace, seed in ((0, 3), (1, 3), (1, 3), (1, 4)):
            label = f"{workload} trace={trace} seed={seed}"
            parsed = parse_output(run(workload, seed, trace), spec, trace,
                                  label)
            if parsed:
                runs.setdefault((trace, seed), []).append(parsed)
        traced = runs.get((1, 3), [])
        if len(traced) == 2:
            same = all(traced[0][1]["metrics"][c] == traced[1][1]["metrics"][c]
                       for c in REPEAT_COUNTERS)
            check(same, f"{workload}: exact-repeat counters repeat per seed")
        digests = [(m["campaign_digests"], m["backlog_digest"])
                   for key in ((0, 3), (1, 3)) for m, _ in runs.get(key, [])]
        check(len(digests) == 3 and len(set(map(str, digests))) == 1,
              f"{workload}: untraced and traced digests are identical")
        other = runs.get((1, 4), [])
        check(len(other) == 1 and len(traced) >= 1 and
              other[0][0]["campaign_digests"] !=
              traced[0][0]["campaign_digests"],
              f"{workload}: another seed gives other inputs")
        for perturb in PERTURBATIONS:
            proc = run(workload, 3, 1, perturb)
            check(proc.returncode != 0 and not proc.stdout.strip(),
                  f"{workload}: gate fires on --perturb {perturb}")

    bare = os.path.join(ROOT, ".bench_run", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(spec["workloads"][0]["name"], 1, 0, cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "bare benchmark directory fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
