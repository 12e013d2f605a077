#!/usr/bin/env python3
"""The kschur benchmark: three workloads, end-to-end and per-module metrics.

BENCHMARK.json lists sweeps and session, the runs that gate a change;
tables is run by hand (bench/README.md says why).

    python3 bench/run.py --workload {sweeps,tables,session} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout that holds `src/kschur`.  Every job runs
in a fresh interpreter (bench/job.py) with ASK_THREADS=1, one after
another: a closed loop with a single client.  Outputs are checked against
the digests and known answers in bench/expected.json and
bench/session_pool.json, recorded at the seed commit.

--trace 0 measures the end-to-end metrics with no tracing; their times
are scaled to a reference host speed by a probe loop timed before every
job (see probe() and bench/README.md).  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
of the first traced pass, plus the tracing overhead.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  The
metric names and units come from BENCHMARK.json; bench/README.md says
why each workload and metric was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

from tracing import MODULES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
OUT = os.path.join(ROOT, ".bench_out")
SRC = os.path.join(ROOT, "src")

SETUP_PER_PASS = 6  # set-up samples taken before each pass
PROBES_PER_JOB = 3  # probe() samples taken before each job
PROBE_REF_S = 0.020  # probe() on the machine that defined the benchmark, in a fast spell
SESSION_QUERIES = {"full": 500, "tiny": 20}


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple  # bench/job.py arguments


JOBS = {
    "full": {
        "sweeps": (
            Job("affine-monk", ("cli", "--", "verify", "affine-monk", "--n", "6", "--max-size", "10")),
            Job("rect-pieri", ("cli", "--", "verify", "rect-pieri", "--n", "6", "--max-size", "8")),
            Job("gw", ("gw", "--n", "4")),
        ),
        "tables": (
            Job("kf-table", ("cli", "--", "kf-table", "--n", "4", "--deg", "10", "--json")),
            Job("kf-table-weak", ("cli", "--", "kf-table", "--n", "5", "--deg", "10", "--weak", "--json")),
        ),
    },
    "tiny": {
        "sweeps": (
            Job("affine-monk", ("cli", "--", "verify", "affine-monk", "--n", "4", "--max-size", "4")),
            Job("rect-pieri", ("cli", "--", "verify", "rect-pieri", "--n", "4", "--max-size", "3")),
            Job("gw", ("gw", "--n", "3")),
        ),
        "tables": (
            Job("kf-table", ("cli", "--", "kf-table", "--n", "4", "--deg", "4", "--json")),
            Job("kf-table-weak", ("cli", "--", "kf-table", "--n", "4", "--deg", "4", "--weak", "--json")),
        ),
    },
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["ASK_THREADS"] = "1"
    return env


@dataclass
class Result:
    rc: int
    stdout: bytes
    wall_s: float
    cpu_s: float
    rss_mb: float


def spawn(args, stdin: bytes | None = None) -> Result:
    """Run one child interpreter to completion and take its own rusage."""
    cmd = [sys.executable, *args]
    with open(os.path.join(OUT, "stderr.txt"), "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err,
            stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
        )
        try:
            if stdin is not None:
                proc.stdin.write(stdin)
                proc.stdin.close()
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Result(proc.returncode, out, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def probe() -> float:
    """A fixed pure-Python loop that shares no code with kschur.

    It is timed before every job.  Its median over a run measures how fast
    the host ran Python during the run, and the end-to-end times are scaled
    by PROBE_REF_S over that median (bench/README.md, "Run environment
    and host speed").
    """
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += (i * 7) % 13
    return time.perf_counter() - start


def setup_times(count: int) -> list:
    """Interpreter start plus `import kschur.cli`, each in a fresh child."""
    times = []
    for _ in range(count):
        res = spawn(["-c", "import kschur.cli"])
        if res.rc != 0:
            raise SystemExit("error: `import kschur.cli` failed")
        times.append(res.wall_s)
    return times


def percentile(values, q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- known-answer checks -----------------------------------------------------


class Oracles:
    """Independent library routes for the known-answer checks, memoized."""

    def __init__(self):
        sys.path.insert(0, SRC)
        import kschur
        from kschur.cores import NCore
        from kschur.symfun import bounded_partitions_of

        self.k = kschur
        self.NCore = NCore
        self.bounded_partitions_of = bounded_partitions_of
        self.memo: dict = {}

    def kf_table(self, text: str) -> bool:
        """At t=1 the table equals kostka_number, or count_abc when weak."""
        key = ("kf", digest(text.encode()))
        if key not in self.memo:
            table = json.loads(text)
            n = table["n"]
            ok = bool(table["rows"])
            for row in table["rows"]:
                lam = tuple(row["lambda"])
                for entry in row["entries"]:
                    mu = tuple(entry["mu"])
                    want = (
                        self.k.count_abc(self.k.c_map(lam, n), mu) if n is not None
                        else self.k.kostka_number(lam, mu)
                    )
                    ok = ok and at_one(entry["coeff"]) == want
            self.memo[key] = ok
        return self.memo[key]

    def abc_counts(self, query: str, counts: dict) -> bool:
        """Each weight's ABC count equals count_affine_factorizations."""
        key = ("abc", query)
        if key not in self.memo:
            argv = query.split()
            n = int(argv[argv.index("--n") + 1])
            parts = tuple(int(p) for p in argv[argv.index("--core") + 1].split(","))
            core = self.NCore(n, parts)
            w = self.k.w_core(core)
            self.memo[key] = all(
                counts.get(",".join(map(str, weight)), 0)
                == self.k.count_affine_factorizations(w, weight)
                for weight in self.bounded_partitions_of(core.degree(), n)
            )
        return self.memo[key]


def at_one(coeff) -> int:
    if isinstance(coeff, int):
        return coeff
    if isinstance(coeff, dict):
        return sum(coeff["coeffs"])
    return sum(coeff)


def check_job(job: Job, res: Result, expected: dict, oracles: Oracles):
    """(ok, items): digest, exit code and the job's known answers."""
    want = expected.get(job.name)
    if res.rc != 0 or want is None or digest(res.stdout) != want["sha256"]:
        return False, 0
    text = res.stdout.decode()
    if "kf-table" in job.args:
        rows = json.loads(text)["rows"]
        return oracles.kf_table(text), sum(len(r["entries"]) for r in rows)
    report = json.loads(text)
    if any(report.get(k) != v for k, v in want["report"].items()):
        return False, 0
    if job.args[0] == "gw":
        return report["equal"] == report["invariants"] > 0, report["invariants"]
    return report["match"] is True, report["instances"]


# -- workloads ---------------------------------------------------------------


@dataclass
class Sample:
    key: str  # job name, or "session" for every draw
    wall_s: float
    cpu_s: float
    rss_mb: float
    items: int
    latencies_ms: list


def trace_path(workload: str, key: str) -> str:
    return os.path.join(OUT, "trace", f"{workload}-{key}.json")


def run_job(job: Job, workload: str, traced: bool) -> tuple[Result, dict | None]:
    args = [os.path.join(BENCH, "job.py"), job.args[0]]
    if traced:
        args += ["--trace", trace_path(workload, job.name)]
    res = spawn(args + list(job.args[1:]))
    return res, read_trace(workload, job.name, res) if traced else None


def read_trace(workload: str, key: str, res: Result) -> dict | None:
    try:
        with open(trace_path(workload, key)) as fh:
            summary = json.load(fh)
    except (OSError, ValueError):
        return None
    res.wall_s -= summary["post_s"]  # writing the spans is not the job's time
    return summary


class Run:
    def __init__(self, workload, size, seed, expected, pool):
        self.workload, self.size, self.seed = workload, size, seed
        self.expected, self.pool = expected, pool
        self.oracles = Oracles()
        self.attempted = self.failed = 0
        self.samples: list[Sample] = []
        self.traced: list[Sample] = []
        self.summaries: list[dict] = []
        self.setup_s: list[float] = []
        self.probe_s: list[float] = []

    def one_job(self, job: Job, traced: bool):
        res, summary = run_job(job, self.workload, traced)
        ok, items = check_job(job, res, self.expected["jobs"][self.size], self.oracles)
        self.attempted += 1
        if not ok or (traced and summary is None):
            self.failed += 1
            print(f"# FAILED job {job.name} (rc {res.rc})", flush=True)
            return
        sample = Sample(job.name, res.wall_s, res.cpu_s, res.rss_mb, items, [])
        (self.traced if traced else self.samples).append(sample)
        if summary is not None:
            self.summaries.append(summary)

    def draw(self, index: int) -> list:
        """A seeded draw, stratified: every draw holds the same number of
        queries of each command, n and degree, in a seeded order.

        The slowest queries (`abc` at the top degrees) are about 5 % of the
        pool, so with a plain random draw the p95 moves with how many of
        them the draw happens to take.
        """
        pool = self.pool
        if self.size == "tiny":
            pool = [q for q in pool if q["n"] == 4 and q["deg"] <= 4]
        want = SESSION_QUERIES[self.size]
        strata: dict = {}
        for q in pool:
            strata.setdefault((q["argv"].split()[0], q["n"], q["deg"]), []).append(q)
        share = {k: want * len(v) / len(pool) for k, v in strata.items()}
        quota = {k: int(s) for k, s in share.items()}
        # largest remainders take the queries that rounding down left over
        for k in sorted(share, key=lambda k: (quota[k] - share[k], k))[:want - sum(quota.values())]:
            quota[k] += 1
        rng = random.Random(self.seed * 1000 + index)
        picked = [q for k in sorted(strata) for q in rng.sample(strata[k], quota[k])]
        rng.shuffle(picked)
        return picked

    def session_draw(self, index: int, traced: bool):
        queries = self.draw(index)
        key = f"draw{index}"
        args = [os.path.join(BENCH, "job.py"), "session"]
        if traced:
            args += ["--trace", trace_path(self.workload, key)]
        res = spawn(args, json.dumps([q["argv"] for q in queries]).encode())
        summary = read_trace(self.workload, key, res) if traced else None
        try:
            report = json.loads(res.stdout)
        except ValueError:
            report = None
        if res.rc != 0 or report is None or (traced and summary is None):
            self.attempted += len(queries)
            self.failed += len(queries)
            print(f"# FAILED session draw {index} (rc {res.rc})", flush=True)
            return
        latencies = []
        for query, (rc, latency, sha, counts) in zip(queries, report["results"]):
            self.attempted += 1
            ok = rc == 0 and sha == query["sha"]
            if ok and counts is not None:
                ok = self.oracles.abc_counts(query["argv"], counts)
            if not ok:
                self.failed += 1
                print(f"# FAILED query {query['argv']!r} (rc {rc})", flush=True)
                continue
            latencies.append(latency * 1e3)
        sample = Sample("session", report["wall_s"], report["cpu_s"], res.rss_mb, len(latencies), latencies)
        (self.traced if traced else self.samples).append(sample)
        if summary is not None:
            self.summaries.append(summary)

    def measure(self, seconds: float, trace: bool):
        """Passes over the jobs until the next job would end over half its
        own time past `seconds`.

        A pass is every job once, or one session draw.  Stopping between
        jobs, not passes, fills the run with samples even when one pass is
        a fifth of it, so the per-job medians span the whole run.  Set-up
        is sampled before every pass, so that a slow spell of the machine
        weighs on it as on the jobs.  The first pass runs whole; with
        tracing, untraced and traced passes alternate and the first two
        run whole.
        """
        jobs = (None,) if self.workload == "session" else JOBS[self.size][self.workload]
        whole = 2 if trace else 1
        last: dict = {}  # job name -> its time in the latest pass
        start = time.perf_counter()
        for index in itertools.count():
            traced = trace and index % 2 == 1
            for i, job in enumerate(jobs):
                key = job.name if job else "session"
                if index >= whole and time.perf_counter() - start + last[key] / 2 > seconds:
                    return
                if i == 0:
                    self.setup_s += setup_times(SETUP_PER_PASS)
                self.probe_s += [probe() for _ in range(PROBES_PER_JOB)]
                t0 = time.perf_counter()
                if job is None:
                    self.session_draw(index // 2 if trace else index, traced)
                else:
                    self.one_job(job, traced)
                last[key] = time.perf_counter() - t0


def per_job(samples: list[Sample]) -> dict:
    """Median wall, CPU and RSS per job (or per draw), with its items."""
    by_key: dict = {}
    for s in samples:
        by_key.setdefault(s.key, []).append(s)
    return {
        key: (
            statistics.median(s.wall_s for s in group),
            statistics.median(s.cpu_s for s in group),
            statistics.median(s.rss_mb for s in group),
            statistics.median(s.items for s in group),
        )
        for key, group in by_key.items()
    }


def end_to_end(run: Run, scale: float) -> dict:
    """The end-to-end metrics, every time multiplied by `scale`."""
    jobs = per_job(run.samples)
    if not jobs:
        return {}
    wall = scale * sum(v[0] for v in jobs.values())
    # a request is a query in a session, else a job (its median time)
    latencies = [x for s in run.samples for x in s.latencies_ms] or [v[0] * 1e3 for v in jobs.values()]
    return {
        "wall_s": wall,
        "cpu_s": scale * sum(v[1] for v in jobs.values()),
        "setup_s": scale * statistics.median(run.setup_s),
        "peak_rss_mb": max(v[2] for v in jobs.values()),
        "items_per_s": sum(v[3] for v in jobs.values()) / wall,
        "query_p50_ms": scale * percentile(latencies, 50),
        "query_p95_ms": scale * percentile(latencies, 95),
    }


def per_layer(run: Run) -> dict:
    """Sum the first traced pass's job summaries into the per-layer metrics."""
    if not run.summaries:
        return {}
    n_jobs = 1 if run.workload == "session" else len(JOBS[run.size][run.workload])
    summaries = run.summaries[:n_jobs]
    calls: dict = {}
    self_s: dict = {}
    items: dict = {}
    caches: dict = {}
    for s in summaries:
        for src, dst in ((s["calls"], calls), (s["self_s"], self_s), (s["items"], items)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k, (hits, misses) in s["caches"].items():
            h, m = caches.get(k, (0, 0))
            caches[k] = (h + hits, m + misses)
    # a counter the library no longer has stays absent, never 0
    counters = {
        k: sum(s["counters"][k] for s in summaries)
        for k in summaries[0]["counters"]
        if all(k in s["counters"] for s in summaries)
    }
    kn1_entries = sum(s["kn1_entries"] for s in summaries)
    out: dict = {}
    for module in MODULES:
        out[f"{module}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
    for name in ("symfun.kn1", "symfun.kn", "symfun.kf_matrix", "symfun.inverse"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for k, v in caches.items():
        out[f"{k}.hit_ratio"] = v[0] / (v[0] + v[1]) if v[0] + v[1] else 0.0
    out.update(counters)
    # nonzero structure constants returned, through either entry point
    sc_items = items.get("schubert.sc", 0) + items.get("schubert.gw", 0)
    out["schubert.sc.items"] = sc_items
    out["symfun.kn1.entries"] = kn1_entries
    out["schubert.sc.useful_ratio"] = sc_items / kn1_entries if kn1_entries else 0.0
    untraced = sum(v[0] for v in per_job(run.samples).values())
    traced = sum(v[0] for v in per_job(run.traced).values())
    out["trace.overhead_ratio"] = traced / untraced if untraced else 0.0
    return {"calls": calls, "items": items, "named": out}


def layer_value(name: str, layer: dict):
    """Look a per-layer metric up; None when the library lacks it."""
    if name in layer["named"]:
        return layer["named"][name]
    base, _, stat = name.rpartition(".")
    if stat == "calls":
        return layer["calls"].get(base, 0)
    if stat == "items":
        return layer["items"].get(base, 0)
    return None


# -- main ----------------------------------------------------------------------


def load_json(name: str):
    with open(os.path.join(ROOT, name)) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="kschur benchmark")
    parser.add_argument("--workload", required=True, choices=("sweeps", "tables", "session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for bench/selftest.py")
    parser.add_argument("--expected", default="bench/expected.json",
                        help="job digests and known answers, relative to the root")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kschur", "cli.py")):
        print(f"error: no kschur sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_json("BENCHMARK.json")
    expected = load_json(args.expected)
    pool = load_json("bench/session_pool.json")["queries"] if args.workload == "session" else None
    os.makedirs(os.path.join(OUT, "trace"), exist_ok=True)

    # the build: byte-compile once so no timed import pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC], check=True,
                   stdout=subprocess.DEVNULL)
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "ASK_THREADS": child_env()["ASK_THREADS"],
    }
    print("# env " + json.dumps(env, sort_keys=True), flush=True)

    run = Run(args.workload, args.size, args.seed, expected, pool)
    run.measure(args.seconds, bool(args.trace))
    env["calibration_s"] = statistics.median(run.probe_s)
    scale = PROBE_REF_S / env["calibration_s"]

    if args.trace:
        layer = per_layer(run)
        wanted = spec["per_layer"]
        values = {m["name"]: layer_value(m["name"], layer) if layer else None for m in wanted}
    else:
        e2e = end_to_end(run, scale)
        wanted = spec["end_to_end"]
        values = {m["name"]: e2e.get(m["name"]) for m in wanted}
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in wanted
        if values[m["name"]] is not None
    }
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    print(f"# {args.workload}: {len(run.samples)} untraced and {len(run.traced)} traced samples, "
          f"{run.attempted} attempted, failed_frac {failed_frac:.4f}", flush=True)
    print(f"# host: probe median {env['calibration_s']:.5f} s over {len(run.probe_s)} samples, "
          f"times scaled by {scale:.4f}", flush=True)
    raw = {} if args.trace else end_to_end(run, 1.0)
    for name, m in metrics.items():
        as_timed = f"  (as timed {raw[name]:.6g})" if raw.get(name, m["value"]) != m["value"] else ""
        print(f"#   {name:34s} {m['value']:.6g} {m['unit']}{as_timed}")
    record = {"env": env, "args": vars(args), "failed_frac": failed_frac, "scale": scale,
              "setup_s": run.setup_s, "probe_s": run.probe_s,
              "samples": [s.__dict__ for s in run.samples],
              "traced": [s.__dict__ for s in run.traced]}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh)
    print(json.dumps({
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
