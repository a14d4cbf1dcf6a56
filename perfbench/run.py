#!/usr/bin/env python3
"""Builds and runs the RPQ serving benchmark.

    python3 perfbench/run.py --workload interactive|export|update \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first run in a checkout configures and builds the library and the
benchmark (Release) under .bench_build/perfbench; later runs rebuild only
what changed. Each run writes its full record (host, inputs, sample
counts, every metric) and, traced, its span log under .bench_results/.
The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_results")
SKIP_DIRS = {".git", ".bench_build", ".bench_results"}


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; returns the binary path or None."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        r = subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            return None
    r = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        return None
    return os.path.join(BUILD, "perfbench")


def commit():
    """The checkout's commit when it is a git work tree, else 'unknown'."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode == 0 and os.path.samefile(top.stdout.strip(), ROOT):
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return head.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the checkout's source files, which identifies the code
    measured when there is no commit to name it."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames
                             if d not in SKIP_DIRS and not d.startswith("build"))
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if not name.endswith((".h", ".cc", ".txt", ".py")):
                continue
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=["interactive", "export", "update"])
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the answer checks' planted-fault self-test")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds):
        ap.error("--workload, --seed and --seconds are required")

    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    if args.selftest:
        return subprocess.run([binary, "--selftest"]).returncode

    os.makedirs(RESULTS, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", RESULTS, "--commit", commit(),
           "--source-digest", source_digest()]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=170)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out")
        return 1
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0:
        log(f"perfbench: exited with code {r.returncode}")
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
