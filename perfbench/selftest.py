#!/usr/bin/env python3
"""Self-test of the benchmark: contract, determinism and seeding.

    python3 perfbench/selftest.py

Run from the root of a checkout. Checks that
  - every run is correct, and its result line carries exactly the
    metrics BENCHMARK.json lists for its trace mode;
  - two runs with one seed give identical speedup.*, modeled_kcycles and
    converts_surviving, and identical plan.* and synth.* counters in the
    traced run; serve_mixed's output prices the same as suite_cold's;
  - serve_mixed draws the same conversions for one seed and different
    ones for another;
  - a directory holding only BENCHMARK.json and perfbench/ fails fast
    without printing a result.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join("perfbench", "run.py")
QUALITY = ("speedup.rtx4090", "speedup.gh200", "speedup.mi250",
           "modeled_kcycles", "converts_surviving")
SYNTH = ("synth.assignments_evaluated", "synth.chose_synthesized",
         "synth.converts_eliminated", "synth.modeled_kcycles")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def fail(message):
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def run(workload, seed, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        fail(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    report = next(json.loads(l)["report"] for l in lines
                  if l.startswith('{"report"'))
    if not result["correct"] or result["failed"] != 0:
        fail(f"{workload} seed {seed}: incorrect: {report['problems']}")
    listed = BENCH["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != [m["name"] for m in listed]:
        fail(f"{workload}: metrics differ from BENCHMARK.json")
    for m in listed:
        if result["metrics"][m["name"]]["unit"] != m["unit"]:
            fail(f"{workload}: unit of {m['name']} differs")
    print(f"selftest: {workload} seed {seed} trace {trace} ok")
    return result["metrics"], report


def same(a, b, names, what):
    for name in names:
        if a[name]["value"] != b[name]["value"]:
            fail(f"{what}: {name} {a[name]['value']} != {b[name]['value']}")


def main():
    a, _ = run("suite_cold", 7, 0)
    b, _ = run("suite_cold", 7, 0)
    same(a, b, QUALITY, "suite_cold repeated with seed 7")

    t1, _ = run("suite_cold", 7, 1)
    t2, _ = run("suite_cold", 7, 1)
    same(t1, t2, [n for n in t1 if n.startswith("plan.")] + list(SYNTH),
         "suite_cold traced, repeated with seed 7")

    s1, r1 = run("serve_mixed", 1, 0)
    _, r1again = run("serve_mixed", 1, 0)
    _, r2 = run("serve_mixed", 2, 0)
    same(a, s1, QUALITY, "serve_mixed against suite_cold")
    if r1["draw_digest"] != r1again["draw_digest"]:
        fail("serve_mixed drew different conversions for one seed")
    if r1["draw_digest"] == r2["draw_digest"]:
        fail("serve_mixed drew the same conversions for seeds 1 and 2")

    bare = os.path.join(ROOT, ".bench_build", "selftest_bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in BENCH["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        BENCH["command"] + ["--workload", "suite_cold", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        fail("a bare directory did not fail without a result")
    print("selftest: bare directory fails as it should")
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
