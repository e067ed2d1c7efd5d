#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload bootstrap_ja --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the product libraries from src/ plus
pae_perfbench) in Release mode under $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. Build
output goes to standard error, so the last line of standard output is
pae_perfbench's JSON result. Exits non-zero, without a result, when the
build fails, and non-zero when any output or reconciliation check fails.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(ROOT, base) if not os.path.isabs(base) else base
    return os.path.relpath(base, ROOT) if base.startswith(ROOT + os.sep) else base


def build(targets):
    build_dir = os.path.join(ROOT, build_base(), "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")  # compiler temporaries stay here
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # runs sharing a checkout build once
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target"]
                     + targets)
        for step in steps:
            if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, env=env).returncode != 0:
                return None
    return build_dir


def provenance():
    """Commit when the checkout is a git work tree, and a digest of the
    sources the benchmark builds either way."""
    commit = "none (not a git checkout)"
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return commit, source_digest()
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return commit, source_digest()


def source_digest():
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it exists."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if args.self_test:
        build_dir = build(["perfbench_test"])
        if build_dir is None:
            return 1
        return subprocess.run([os.path.join(build_dir, "perfbench_test")],
                              cwd=ROOT).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build_dir = build(["pae_perfbench"])
    if build_dir is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    commit, digest = provenance()
    print(f"provenance: commit={commit} source_sha256={digest}", flush=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = build_base()
    cmd = [os.path.join(build_dir, "pae_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(base, "runs", f"{tag}-{os.getpid()}"),
           "--trace-out", os.path.join(base, "traces", tag + ".jsonl")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print(f"perfbench: {tag} exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    result = json.loads(out.strip().splitlines()[-1])
    expected = expected_metrics(args.trace == 1)
    if expected is not None and set(result["metrics"]) != expected:
        print("perfbench: printed metrics do not match BENCHMARK.json",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
