#!/usr/bin/env python3
"""Build the benchmark driver from source and run one workload.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The driver and the library sources it
links are compiled with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); the first run builds, later runs only check that
the build is current. Build output goes to stderr. The driver's stdout is
passed through, so the last line is the result object. Flags other than
the four above (--nodes, --corrupt-reference) go to the driver
unchanged; see README.md.
"""
import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# What the driver compiles besides its own directory.
REQUIRED = ["src/core/engine.h", "src/serving/router.h", "tools/json_lines.h",
            "tools/net_util.h"]
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def git(*args):
    """stdout of a git command in ROOT, or None when it fails."""
    try:
        done = subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout if done.returncode == 0 else None


def source_id():
    """The git revision when there is one (with -dirty when the tree has
    uncommitted changes), else a digest of the sources."""
    sha = git("rev-parse", "--short", "HEAD")
    if sha and sha.strip():
        status = git("status", "--porcelain")
        return sha.strip() + ("-dirty" if status is None or status.strip() else "")
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(len(os.sched_getaffinity(0)))
    # One build at a time per build tree.
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                      env=env, timeout=850)
            except (OSError, subprocess.SubprocessError) as error:
                fail("build step %s failed: %s" % (step[:2], error))
            if done.returncode != 0:
                fail("build step %s exited with %d" % (step[:2], done.returncode))
    return os.path.join(build_dir, "perfbench_driver")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = parser.parse_known_args()

    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("not a source checkout (missing %s); run from the repository root"
             % ", ".join(missing))

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    driver = build(build_dir)

    command = [driver, "--workload", args.workload, "--seed", args.seed,
               "--seconds", args.seconds, "--trace", args.trace,
               "--git-sha", source_id()] + extra
    if args.trace == "1":
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-file", os.path.join(
            traces, "%s-seed%s.jsonl" % (args.workload, args.seed))]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stdout.write(done.stdout)
        fail("driver exited with %d" % done.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("driver printed no result object")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
