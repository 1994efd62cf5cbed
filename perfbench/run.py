#!/usr/bin/env python3
"""Builds and runs the semis end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload twok-sharded --seed 1 --seconds 15 --trace 0

The first call configures and builds perfbench/ (and through it the
library in src/) in Release mode under $CARGO_TARGET_DIR, or .bench_build
when that is unset; later calls only rebuild what changed. Inputs, stores
and scratch files go under .bench_work/ and are removed after each run;
traced runs leave their Chrome trace and self-time table in
.bench_work/trace/. The last line of stdout is the JSON result.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("twok-sharded", "stream-update")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures (once) and builds the driver; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench_e2e", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "perfbench_e2e")


def source_id():
    """The git commit of this checkout, else a digest of src/."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return "git:" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("semis sources (src/) not found next to perfbench/")
    binary = build()
    workdir = os.path.join(ROOT, ".bench_work")
    shutil.rmtree(os.path.join(workdir, "run"), ignore_errors=True)
    shutil.rmtree(os.path.join(workdir, "tmp"), ignore_errors=True)

    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", workdir, "--source", source_id()],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines:
        print(line, flush=True)
    if proc.returncode != 0 or not lines:
        sys.exit(proc.returncode or 1)
    missing = expected_metrics(args.trace) - set(json.loads(lines[-1])["metrics"])
    if missing:
        fail("result lacks declared metrics: " + ", ".join(sorted(missing)))


if __name__ == "__main__":
    main()
