#!/usr/bin/env python3
"""Build and run the DAISY benchmark from the root of a checkout.

    python3 benchmark/run.py --workload registry|coldcode|serve_warm \
        --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --self-test

The benchmark is an OCaml executable (main.ml and friends in this
directory) built by dune from the checkout's sources into _build_bench/,
in the release profile.  Its last line of standard output is the
result object; everything human-readable goes to standard error.  A
checkout without the repository's libraries fails to build, and this
script then exits non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
REL = os.path.relpath(HERE, ROOT)
BUILD_DIR = "_build_bench"
EXE = os.path.join(ROOT, BUILD_DIR, "default", REL, "main.exe")
OUT_DIR = os.path.join(HERE, "_out")
WORKLOADS = ["registry", "coldcode", "serve_warm"]

# The whole invocation must end within 180 s; the first build in a fresh
# checkout may take up to 900 s.
BUILD_TIMEOUT = 880
RUN_DEADLINE = 175


def dune():
    if shutil.which("dune"):
        return ["dune"]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    sys.exit("run.py: dune not found")


def build():
    # no shared dune cache: the build reads and writes only the checkout
    cmd = dune() + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--profile", "release", "--cache", "disabled",
                    os.path.join(REL, "main.exe")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: build timed out")
    if proc.returncode != 0 or not os.path.exists(EXE):
        sys.exit("run.py: build failed")


def run_exe(args, timeout):
    """Run the benchmark executable; return its result object."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [EXE, "--out-dir", OUT_DIR] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1, timeout))
    except subprocess.TimeoutExpired:
        sys.exit("run.py: benchmark timed out")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("run.py: benchmark failed (exit %d)" % proc.returncode)
    return lines[-1], json.loads(lines[-1])


# --- self-test -----------------------------------------------------------

def self_test():
    """Run every workload at a tiny size and check the benchmark itself."""
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    tiny = {"registry": 8, "coldcode": 128, "serve_warm": 8}
    problems = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what, file=sys.stderr)
        if not ok:
            problems.append(what)

    results = {}
    for w in WORKLOADS:
        for trace, rep in [(0, 0), (0, 1), (1, 0)]:
            seed = 0 if w == "registry" else 7
            _, r = run_exe(["--workload", w, "--seed", str(seed),
                            "--trace", str(trace), "--runs", str(tiny[w])],
                           600)
            results[(w, trace, rep)] = r
            got = {k: v["unit"] for k, v in r["metrics"].items()}
            check(got == want[trace],
                  "%s trace %d: every metric printed with its unit" % (w, trace))
            check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
                  "%s trace %d: nothing failed" % (w, trace))
        a = results[(w, 0, 0)]["metrics"]
        b = results[(w, 0, 1)]["metrics"]
        for k in ["ilp_inf_geomean", "code_bytes"]:
            check(a[k]["value"] == b[k]["value"],
                  "%s: %s repeats exactly (%r)" % (w, k, a[k]["value"]))
        t = results[(w, 1, 0)]["metrics"]
        v = {k: x["value"] for k, x in t.items()}
        check(v["failed_frac"] == 0, "%s: failed_frac is 0" % w)
        check(v["trace.coverage"] >= 0.9,
              "%s: named layers' self times cover the traced wall within "
              "0.1 (%.3f)" % (w, v["trace.coverage"]))
        check(v["bench.unattributed_share"] <= 0.1,
              "%s: at most 0.1 of the traced wall is in no layer (%.3f)"
              % (w, v["bench.unattributed_share"]))
        # shares are of the traced wall
        split = v["translator.share"] + v["vliw.stage_share"]
        if w == "coldcode":
            check(split > 0.5, "coldcode: translator+vliw over half the "
                  "traced wall (%.3f)" % split)
        if w == "registry":
            check(split < 0.1, "registry: translator+vliw under a tenth of "
                  "the traced wall (%.3f)" % split)
        if w == "serve_warm":
            check(v["serve.pages_translated"] == 0
                  and v["serve.leaked_pins"] == 0,
                  "serve_warm: 0 pages translated, 0 pins leaked")
    _, t51 = run_exe(["--table-5-1"], 600)
    check(t51["images_equal"],
          "seed 0 reproduces the registry's input images byte for byte")
    got = results[("registry", 0, 0)]["metrics"]["ilp_inf_geomean"]["value"]
    check(got == t51["ilp_inf_geomean"],
          "registry seed 0 ILP equals the Table 5.1 runs (%r)" % got)
    if problems:
        sys.exit("self-test: %d check(s) failed" % len(problems))
    print("self-test: all checks passed", file=sys.stderr)


def main():
    start = time.monotonic()
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    build()
    if a.self_test:
        self_test()
        return
    if a.workload is None:
        ap.error("--workload is required")
    if not 1 <= a.seconds <= 60:
        ap.error("--seconds must be within 1..60")
    # a run that had to build first may take up to 900 s in all
    deadline = RUN_DEADLINE if time.monotonic() - start < 60 else 895
    line, _ = run_exe(["--workload", a.workload, "--seed", str(a.seed),
                       "--seconds", str(a.seconds), "--trace", str(a.trace)],
                      deadline - (time.monotonic() - start))
    print(line, flush=True)


if __name__ == "__main__":
    main()
