#!/usr/bin/env python3
"""Tiny-window self-test of the benchmark itself.

    python3 nucabench/selftest.py

Runs every workload of BENCHMARK.json at the tiny scale, untraced and
traced, through run.py, and checks:
  - each run exits 0 and ends with the JSON result line, correct and with
    no failed operation;
  - an untraced run reports exactly the end-to-end metrics and a traced
    run exactly the per-layer metrics that BENCHMARK.json names;
  - the traced run's exact counters repeat under the same seed;
  - a forced output-check mismatch is counted as a failed operation and
    makes the run exit non-zero;
  - a REPRO_* environment override is refused before anything runs.
Exits 0 when every check passes.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# Deterministic simulated counts: equal on every run of one seed.
EXACT = ["workload.next_calls", "cpu.ticks", "cpu.ipc_hmean",
         "cache.l3_accesses_per_kinst", "nuca.miss_frac",
         "nuca.repartitions", "mem.fetches", "sched.skipped_frac",
         "sched.wake_heap_pops", "ckpt.bytes"]

failures = []


def bench(workload, trace, *extra, env=None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, result


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def main():
    e2e = sorted(m["name"] for m in SPEC["end_to_end"])
    layer = sorted(m["name"] for m in SPEC["per_layer"])
    for w in [w["name"] for w in SPEC["workloads"]]:
        for trace, names in ((0, e2e), (1, layer)):
            proc, r = bench(w, trace)
            label = "%s trace=%d" % (w, trace)
            expect(proc.returncode == 0 and r is not None and r["correct"]
                   and r["failed"] == 0 and r["attempted"] >= 1,
                   label + ": runs clean")
            if r is None:
                print(proc.stderr[-3000:], file=sys.stderr)
                continue
            expect(sorted(r["metrics"]) == names,
                   label + ": reports exactly the BENCHMARK.json metrics")
            if trace == 1:
                _, again = bench(w, 1)
                same = again is not None and all(
                    again["metrics"][k]["value"] == r["metrics"][k]["value"]
                    for k in EXACT)
                expect(same, label + ": exact counters repeat")

    proc, r = bench("compute_bound", 0, "--inject-mismatch")
    expect(proc.returncode != 0 and r is not None and not r["correct"]
           and r["failed"] >= 1,
           "forced mismatch is a failed operation and a non-zero exit")

    env = dict(os.environ, REPRO_FASTFWD="0")
    proc, r = bench("compute_bound", 0, env=env)
    expect(proc.returncode != 0 and r is None,
           "REPRO_* override is refused without a result")

    print("selftest: %s" % ("FAILED: " + "; ".join(failures)
                            if failures else "all checks passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
