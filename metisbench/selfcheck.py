#!/usr/bin/env python3
"""Tiny-size self-check of the Metis benchmark.

    python3 metisbench/selfcheck.py

Runs every workload at self-check size (--tiny, a few seconds), untraced and
traced, and checks that:
  * BENCHMARK.json keeps the benchmark contract's shape and limits;
  * each run prints its result as the last line, correct, with no failures;
  * the untraced run emits exactly the end-to-end metrics and the traced run
    exactly the per-layer metrics, each with its declared unit;
  * every output check ran: decisions, trees and rankings were compared,
    and the traced run checked that the distill stages add up;
  * the benchmark refuses to report when a knob that changes the program is set.
Exits non-zero on the first problem.
"""
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    print(f"selfcheck: FAIL: {msg}")
    sys.exit(1)


def check_spec(spec):
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys: {sorted(spec)}")
    names = []
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            fail(f"workload entry {w}")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            fail(f"end_to_end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail(f"per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            fail(f"unit/better of {m}")
        names.append(m["name"])
    if any(not NAME.match(n) for n in names) or len(names) != len(set(names)):
        fail("metric and workload names must be unique and well formed")
    if not any(m["name"] == "setup_s" and m["unit"] == "s"
               for m in spec["end_to_end"]):
        fail("setup_s missing")


def run(workload, trace, env=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "5", "--trace", str(trace),
           "--tiny"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          env=env, timeout=600)


def check_run(spec, workload, trace):
    proc = run(workload, trace)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} trace={trace} exited {proc.returncode}: "
             f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail(f"{workload} trace={trace} not correct: {proc.stdout[-3000:]}")
    declared = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{workload} trace={trace} metrics differ: missing "
             f"{sorted(set(want) - set(got))}, extra "
             f"{sorted(set(got) - set(want))}")
    for name, m in got.items():
        if m["unit"] != want[name] or not math.isfinite(m["value"]):
            fail(f"{workload} trace={trace} metric {name}: {m}")
    checks = json.loads(next(l for l in lines if l.startswith("checks: "))
                        [len("checks: "):])
    needed = ["decisions_compared", "trees_compared", "rankings_compared"]
    if trace:
        needed.append("stage_sums_checked")
    for key in needed:
        if checks[key] <= 0:
            fail(f"{workload} trace={trace}: check {key} never ran")
    print(f"selfcheck: {workload} trace={trace} ok "
          f"({len(got)} metrics, {result['attempted']} operations, {checks})")


def check_refusal():
    env = dict(os.environ, METIS_GEMM_BACKEND="naive")
    proc = run("decide", 0, env)
    if proc.returncode == 0 or proc.stdout.strip().endswith("}"):
        fail("benchmark reported with METIS_GEMM_BACKEND set")
    print("selfcheck: refuses to report with METIS_GEMM_BACKEND set")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_refusal()
    print("selfcheck: all checks passed")


if __name__ == "__main__":
    main()
