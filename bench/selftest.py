#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about ten seconds).

    python3 bench/selftest.py

Checks that every workload prints each end-to-end metric (--trace 0) and
each per-layer metric (--trace 1) named in BENCHMARK.json, with its unit;
that a corrupted expected digest is counted as a failed job; and that a
directory holding only BENCHMARK.json and bench/ makes the benchmark
exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

RUN = os.path.join(run.BENCH, "run.py")


def bench(*args, cwd=run.ROOT, script=RUN):
    cmd = [sys.executable, script, "--seed", "3", "--seconds", "1", "--size", "tiny", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main() -> int:
    spec = run.load_json("BENCHMARK.json")
    os.makedirs(run.OUT, exist_ok=True)
    problems = []

    for workload in ("sweeps", "tables", "session"):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", workload, "--trace", trace)
            result = last_json(proc) if proc.returncode == 0 else None
            label = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{label}: exit {proc.returncode}, no result\n{proc.stderr}")
                continue
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: keys {sorted(result)}")
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{label}: not correct: {result}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{label}: metrics/units differ: {set(want.items()) ^ set(got.items())}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v.get("value"), (int, float)) or isinstance(v["value"], bool)]
            if bad:
                problems.append(f"{label}: non-numeric values {bad}")
            print(f"{'ok' if not problems else 'FAIL'}: {label}", flush=True)

    expected = run.load_json("bench/expected.json")
    entry = expected["jobs"]["tiny"]["affine-monk"]
    entry["sha256"] = entry["sha256"][::-1]
    corrupt = os.path.join(run.OUT, "corrupt-expected.json")
    with open(corrupt, "w") as fh:
        json.dump(expected, fh)
    proc = bench("--workload", "sweeps", "--trace", "0",
                 "--expected", os.path.relpath(corrupt, run.ROOT))
    result = last_json(proc)
    if result is None or result["correct"] or result["failed"] < 1:
        problems.append(f"corrupted digest not counted as a failure: {result}")
    print(f"{'ok' if result and result['failed'] >= 1 else 'FAIL'}: corrupted digest counts as failed")

    bare = os.path.join(run.OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = bench("--workload", "tables", "--trace", "0", cwd=bare,
                 script=os.path.join(bare, "bench", "run.py"))
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"without sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"{'ok' if proc.returncode != 0 else 'FAIL'}: no sources, exit {proc.returncode}")

    for p in problems:
        print("FAIL:", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
