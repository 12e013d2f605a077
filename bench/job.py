"""One benchmark job, run in a fresh interpreter by bench/run.py.

    python3 bench/job.py cli [--trace OUT] -- <kschur argv...>
    python3 bench/job.py gw --n 4 [--trace OUT]
    python3 bench/job.py session [--trace OUT] < queries.json

`cli` calls kschur.cli.main(argv) and leaves its stdout as the job's
stdout.  `gw` runs the quantum-Monk / Gromov-Witten cross-check through
the exported library functions and prints a one-line JSON report.
`session` reads a JSON list of argv strings on stdin, runs them one
after another through kschur.cli.main in this interpreter, and prints
one JSON line with each query's exit code, output digest and latency.

With --trace OUT the kschur entry points are wrapped by
bench/tracing.py; the per-layer summary goes to OUT and the spans to
OUT with the suffix .spans.  Tracing never changes the job's stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
from itertools import permutations, product

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def gw_cross_check(kschur, n: int) -> dict:
    """Every <s_r, w, w0 X>_d equals the quantum Monk coefficient of X q^d."""
    perms = list(permutations(range(1, n + 1)))
    dvecs = list(product(range(0, 2), repeat=n - 1))
    invariants = equal = nonzero = 0
    for r in range(1, n):
        sr = tuple(r + 1 if i == r else r if i == r + 1 else i for i in range(1, n + 1))
        for w in perms:
            coeff: dict = {}
            for term in kschur.quantum_monk(r, w):
                coeff[term] = coeff.get(term, 0) + 1
            for x in perms:
                w0x = tuple(n + 1 - v for v in x)
                for d in dvecs:
                    got = kschur.gw_invariant(sr, w, w0x, d)
                    invariants += 1
                    equal += got == coeff.get((x, d), 0)
                    nonzero += got != 0
    return {"n": n, "invariants": invariants, "equal": equal, "nonzero": nonzero}


def weight_counts(text: str) -> dict:
    """Number of ABCs per weight in an `abc --json` answer."""
    counts: dict = {}
    for entry in json.loads(text):
        key = ",".join(map(str, entry["weight"]))
        counts[key] = counts.get(key, 0) + 1
    return counts


def run_session(cli, queries, tracer):
    outputs, results = [], []
    cpu0, t0 = time.process_time(), time.perf_counter()
    for qid, query in enumerate(queries):
        if tracer is not None:
            tracer.query = qid
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(query.split())
        except Exception as exc:  # a query that raises is a failed query
            print(f"query {query!r} raised {exc!r}", file=sys.stderr)
            rc = -1
        results.append([rc, time.perf_counter() - start])
        outputs.append(buf.getvalue())
    wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    for query, text, res in zip(queries, outputs, results):
        res.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        res.append(weight_counts(text) if query.startswith("abc ") and res[0] == 0 else None)
    return {"wall_s": wall, "cpu_s": cpu, "results": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("cli", "gw", "session"))
    parser.add_argument("--trace", default=None, help="write the per-layer summary here")
    parser.add_argument("--n", type=int, default=4)
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_argv = argv[split + 1:]

    import kschur
    import kschur.cli

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(kschur)
    queries = json.load(sys.stdin) if args.mode == "session" else None

    if args.mode == "cli":
        rc = kschur.cli.main(cli_argv)
    elif args.mode == "gw":
        print(json.dumps(gw_cross_check(kschur, args.n), sort_keys=True))
        rc = 0
    else:
        print(json.dumps(run_session(kschur.cli, queries, tracer)))
        rc = 0
    sys.stdout.flush()

    if tracer is not None:
        post = time.perf_counter()
        summary = tracer.summary()
        tracer.write_spans(args.trace + ".spans")
        summary["post_s"] = time.perf_counter() - post
        with open(args.trace, "w") as fh:
            json.dump(summary, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
