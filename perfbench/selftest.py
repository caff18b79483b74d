#!/usr/bin/env python3
"""Self-test of the benchmark on a tiny graph.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that
  * every workload in BENCHMARK.json runs, untraced and traced, with no
    failed or incorrect answer;
  * every metric BENCHMARK.json names is printed with its unit
    (end_to_end untraced, per_layer traced);
  * a deliberately corrupted reference answer is reported as a failure;
  * a workload whose thread budget exceeds nproc is refused;
  * a directory holding only BENCHMARK.json and the benchmark fails
    without printing a result.
Exits 0 when every check passes.
"""
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
TINY = ["--nodes", "300"]

failures = []


def check(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run(args, cwd=ROOT, preexec_fn=None):
    done = subprocess.run([sys.executable, "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=900,
                          preexec_fn=preexec_fn)
    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    if result is not None and "metrics" not in result:
        result = None
    return done, result


def expect_metrics(result, specs, label):
    metrics = result["metrics"]
    for spec in specs:
        got = metrics.get(spec["name"])
        check(got is not None and got.get("unit") == spec["unit"]
              and isinstance(got.get("value"), (int, float)),
              "%s prints %s [%s]" % (label, spec["name"], spec["unit"]))
    extra = set(metrics) - {spec["name"] for spec in specs}
    check(not extra, "%s prints no unlisted metric %s" % (label, sorted(extra)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for workload in [w["name"] for w in bench["workloads"]]:
        base = ["--workload", workload, "--seed", "7", "--seconds", "1"]
        for trace, specs in (("0", bench["end_to_end"]),
                             ("1", bench["per_layer"])):
            label = "%s --trace %s" % (workload, trace)
            done, result = run(base + ["--trace", trace] + TINY)
            check(done.returncode == 0 and result is not None,
                  label + " exits 0 with a result")
            if result is None:
                print(done.stderr[-2000:])
                continue
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  label + " answers correctly")
            expect_metrics(result, specs, label)

        done, result = run(base + ["--trace", "0", "--corrupt-reference"] + TINY)
        check(result is not None and result["correct"] is False
              and result["failed"] >= 1,
              workload + " reports a corrupted reference answer as failed")

    # Budget guard: with one CPU visible, every workload's budget is over.
    first_cpu = min(os.sched_getaffinity(0))
    done, result = run(["--workload", "deep", "--seed", "7", "--seconds", "1",
                        "--trace", "0"] + TINY,
                       preexec_fn=lambda: os.sched_setaffinity(0, {first_cpu}))
    check(done.returncode != 0 and result is None,
          "a budget above nproc is refused")

    # A directory with only the benchmark must fail without a result.
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    bare = os.path.join(ROOT, target, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    done, result = run(["--workload", "deep", "--seed", "7", "--seconds", "1",
                        "--trace", "0"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    check(done.returncode != 0 and result is None,
          "a directory without the sources fails without a result")

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
