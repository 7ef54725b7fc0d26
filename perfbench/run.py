#!/usr/bin/env python3
"""Build the benchmark from source and make one run of one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload oram-remote --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload sort-local --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload dynamic-stream --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
The exit code is 0 only when every checked operation was correct.  The
full record of each run (and the spans of a traced run) is left under
`.perfbench/`.  See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
WORK = ".perfbench"
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
FDSERVED = os.path.join("_build", "default", "bin", "fdserved.exe")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_checked(argv, timeout):
    """Run argv in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"{' '.join(argv)} timed out after {timeout} s")
    return proc.returncode, out


def build(dune):
    argv = dune + ["build", "--root", ".", "./" + EXE, "./" + FDSERVED]
    proc = subprocess.run(argv, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if proc.returncode != 0:
        fail("build failed")


def check_metrics(result, spec, trace):
    """The printed metrics must be exactly BENCHMARK.json's, units included."""
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    if set(got) != set(wanted):
        fail(f"metric names differ from BENCHMARK.json: {sorted(set(got) ^ set(wanted))}")
    for name, m in got.items():
        if m.get("unit") != wanted[name]:
            fail(f"metric {name}: unit {m.get('unit')!r}, BENCHMARK.json says {wanted[name]!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for need in ("dune-project", "lib", os.path.join("bin", "fdserved.ml"), "BENCHMARK.json"):
        if not os.path.exists(need):
            fail(f"{need} not found: run from the root of a source checkout")
    if shutil.which("dune"):
        dune = ["dune"]
    elif shutil.which("opam"):
        dune = ["opam", "exec", "--", "dune"]
    else:
        fail("neither dune nor opam found on PATH")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    known = {"oram-remote", "sort-local", "dynamic-stream"}
    if args.workload not in known:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(known)}")
    registered = args.workload in {w["name"] for w in spec["workloads"]}

    build(dune)
    rc, out = run_checked([EXE, "--selftest"], RUN_TIMEOUT_S)
    sys.stderr.write(out)
    if rc != 0:
        fail("checker self-test failed", rc)

    # Client and daemon take turns (strict request/response), so one CPU
    # serves both; sharing it turns every round trip into a same-CPU
    # context switch instead of a cross-CPU wake-up, whose latency on a
    # shared virtual machine varies several-fold from minute to minute.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(WORK, exist_ok=True)
    rc, out = run_checked(
        [
            EXE,
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--fdserved", FDSERVED,
            "--work", WORK,
        ],
        RUN_TIMEOUT_S,
    )
    lines = out.strip().splitlines()
    if not lines:
        fail("the run printed no result", rc or 1)
    result = json.loads(lines[-1])
    if registered:
        check_metrics(result, spec, args.trace == 1)
    sys.stdout.write(out)
    sys.stdout.flush()
    if rc == 0 and not result["correct"]:
        rc = 1
    sys.exit(rc)


if __name__ == "__main__":
    main()
