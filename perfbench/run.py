#!/usr/bin/env python3
"""Builds and runs the gqd serving benchmark.

Usage, from the root of a gqd source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the gqd libraries plus the benchmark program, Release)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), then runs
the benchmark program. Its last stdout line is the JSON result; build output
goes to stderr. Exits non-zero, printing no result, when the tree cannot be
built or the benchmark program fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(cmd, **kwargs):
    """Runs a build step with its output on stderr; True on success."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                            cwd=ROOT, **kwargs)
    return result.returncode == 0


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        log("error: no gqd source tree around perfbench/ to build")
        return None
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            log("error: configuring the benchmark failed")
            return None
    jobs = str(os.cpu_count() or 1)
    if not run_quiet(["cmake", "--build", build_dir, "-j", jobs]):
        log("error: building the benchmark failed")
        return None
    return os.path.join(build_dir, "gqd_perfbench")


def git_commit():
    """HEAD's commit, read from the tree's own .git (no git process, so
    nothing outside the tree is read); None when there is none."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def source_stamp():
    """The git commit when the tree is a repository, else a digest of the
    sources, so every result names the code it measured."""
    commit = git_commit()
    if commit:
        return commit
    digest = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--pins", os.path.join("perfbench", "expected", "pins.tsv"),
           "--out-dir", os.path.join(target, "perfbench-out"),
           "--commit", source_stamp()]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: the benchmark program timed out")
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
