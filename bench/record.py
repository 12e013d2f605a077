#!/usr/bin/env python3
"""Record the benchmark's known answers from the current sources.

    python3 bench/record.py

Writes bench/expected.json (stdout digest and report fields of every
sweeps/tables job, full and tiny size) and bench/session_pool.json (the
2741 session queries with the digest of each answer).  The files in the
repository were recorded at the seed commit; they are the reference
later changes are checked against, so re-record only for an intended
output change and list it in CHANGES.md.

Each query is answered twice, in pool order and in reverse order under
another PYTHONHASHSEED, so a digest never depends on cache state or on
hash order.
"""

from __future__ import annotations

import json
import os
import sys

import run

POOL_DEGREES = {4: 9, 5: 8, 6: 7}  # n -> largest core degree
REPORT_FIELDS = {
    "affine-monk": ("match", "instances"),
    "rect-pieri": ("match", "instances", "reading_disagreements"),
    "gw": ("invariants", "equal"),
}


def pool_queries():
    """expand, pieri, strips and abc over every core of degree 1..D."""
    sys.path.insert(0, run.SRC)
    from kschur import cores_of_degree

    out = []
    for n, top in POOL_DEGREES.items():
        for d in range(1, top + 1):
            for core in cores_of_degree(n, d):
                base = f"--n {n} --core {','.join(map(str, core.parts))} --json"
                argvs = []
                for basis in ("dualk", "k"):
                    argvs += [f"expand --basis {basis} {base}", f"expand --basis {basis} {base} --t1"]
                argvs += [f"pieri {base} --m {m}" for m in range(1, n)]
                argvs += [f"strips {base} --kind horizontal --m {m}" for m in range(1, n)]
                argvs += [f"strips {base} --kind ribbon --r {r} --b {b}"
                          for r in range(2, n) for b in range(1, r)]
                argvs.append(f"abc {base}")
                out += [{"argv": a, "n": n, "deg": d} for a in argvs]
    return out


def answer(argvs, hash_seed: str):
    os.environ["PYTHONHASHSEED"] = hash_seed
    res = run.spawn([os.path.join(run.BENCH, "job.py"), "session"], json.dumps(argvs).encode())
    if res.rc != 0:
        raise SystemExit("error: session job failed")
    results = json.loads(res.stdout)["results"]
    bad = [a for a, r in zip(argvs, results) if r[0] != 0]
    if bad:
        raise SystemExit(f"error: pool queries exit non-zero: {bad[:5]}")
    return {a: r[2] for a, r in zip(argvs, results)}


def main() -> int:
    os.makedirs(run.OUT, exist_ok=True)
    jobs: dict = {}
    for size, workloads in run.JOBS.items():
        jobs[size] = {}
        for job in (j for js in workloads.values() for j in js):
            res, _ = run.run_job(job, "record", False)
            if res.rc != 0:
                raise SystemExit(f"error: job {job.name} ({size}) exited {res.rc}")
            entry = {"sha256": run.digest(res.stdout), "report": {}}
            if job.name in REPORT_FIELDS:
                report = json.loads(res.stdout)
                entry["report"] = {k: report[k] for k in REPORT_FIELDS[job.name]}
            jobs[size][job.name] = entry
            print(size, job.name, entry, flush=True)
    with open(os.path.join(run.BENCH, "expected.json"), "w") as fh:
        json.dump({"jobs": jobs}, fh, indent=1, sort_keys=True)
        fh.write("\n")

    queries = pool_queries()
    argvs = [q["argv"] for q in queries]
    forward = answer(argvs, "0")
    backward = answer(argvs[::-1], "1")
    if forward != backward:
        raise SystemExit("error: answers depend on query order or hash seed")
    for q in queries:
        q["sha"] = forward[q["argv"]]
    with open(os.path.join(run.BENCH, "session_pool.json"), "w") as fh:
        fh.write('{"queries": [\n')
        fh.write(",\n".join(json.dumps(q, sort_keys=True) for q in queries))
        fh.write("\n]}\n")
    print(f"{len(queries)} session queries recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
