#!/usr/bin/env python3
"""Runs one workload of the Raven end-to-end benchmark.

    python3 perfbench/run.py --workload point_serve --seed 1 \
        --seconds 20 --trace 0

Run from the repository root. The first run configures and builds the
benchmark binary (perfbench/raven_perfbench.cc, linked against the engine
built from src/) into .bench_build/; later runs reuse that build. The
binary generates every input
from --seed, checks every answer against a dop-1 reference, and reports its
metrics; this wrapper prints them by name with their units, stores the full
record (fingerprint included) under .bench_build/results/, and prints as its
last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its per-layer
metrics (from the traced replay) for --trace 1.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "raven_perfbench")
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures and builds the benchmark binary; raises on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError(
            "the engine sources (CMakeLists.txt, src/) are not here")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"],
        ["cmake", "--build", BUILD_DIR, "--target", "raven_perfbench",
         "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def run_binary(workload, seed, seconds, trace, extra=()):
    """Runs the benchmark binary once and returns its result record."""
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [
        BINARY,
        f"--workload={workload}",
        f"--seed={seed}",
        f"--seconds={seconds}",
        f"--trace={1 if trace else 0}",
        f"--work-dir={os.path.relpath(WORK_DIR, ROOT)}",
        *extra,
    ]
    done = subprocess.run(
        cmd, stdout=subprocess.PIPE, stderr=sys.stderr, cwd=ROOT,
        timeout=RUN_TIMEOUT_S, text=True,
    )
    if done.returncode != 0:
        raise RuntimeError(f"raven_perfbench exited with {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("raven_perfbench printed no result")
    return json.loads(lines[-1])


def git_sha():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "none"
    return done.stdout.strip() if done.returncode == 0 else "none"


def source_hash():
    """SHA-256 over the engine and benchmark sources: identifies the build
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if "__pycache__" not in d
        )
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def print_report(record):
    fp = {k: record[k] for k in (
        "workload", "seed", "nproc", "compiler", "build_type", "git_sha",
        "source_hash", "tail_percentile", "offered_rate", "samples")}
    print(f"fingerprint {json.dumps(fp, sort_keys=True)}")
    print(f"requests attempted={record['attempted']} failed={record['failed']} "
          f"refused={record['refused']} wrong={record['wrong']} "
          f"error_frac={record['error_frac']:.6g}")
    for section in ("end_to_end", "per_layer"):
        for name, m in record[section].items():
            print(f"{section:10s} {name:40s} {m['value']:14.6g} {m['unit']:6s} "
                  f"(n={m['samples']})")
    for cls, c in sorted(record.get("classes", {}).items()):
        print(f"class      {cls:40s} n={c['n']} p50_ms={c['p50_ms']:.4g} "
              f"time_share={c['time_share']:.3f}")
    if record["offered_rate"] > 0:
        late = record["per_layer"]["loadgen.late_p99_ms"]["value"]
        verdict = ("valid" if record["loadgen_valid"]
                   else "INVALID (generator fell behind)")
        print(f"open loop  offered={record['offered_rate']:g}/s "
              f"loadgen.late_p99_ms={late:.4g} -> {verdict}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # raven_perfbench also runs workloads BENCHMARK.json does not gate
    # (batch_score); it rejects unknown names itself.
    try:
        spec = load_spec()
        build()
        record = run_binary(args.workload, args.seed, args.seconds, args.trace)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1

    record["git_sha"] = git_sha()
    record["source_hash"] = source_hash()
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(
        RESULTS_DIR, f"{args.workload}_s{args.seed}_t{args.trace}.json")
    with open(out, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    print_report(record)

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        got = record[section].get(m["name"])
        if got is None:
            log(f"error: raven_perfbench did not report {m['name']}")
            return 1
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    failed = record["failed"] + record["refused"] + record["wrong"]
    print(json.dumps({
        "correct": record["wrong"] == 0 and record["attempted"] > 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
