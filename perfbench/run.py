"""The peakpoly benchmark: four workloads, end-to-end metrics, a traced per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere inside a checkout that holds src/peakpoly; it needs
nothing but the Python standard library.  Every unit of work starts a
fresh interpreter with PYTHONPATH=src, so the package's memos start cold,
as they do for a user of the command line.

Workloads (why each exists is recorded in BENCHMARK.json):
  sweep        `peakpoly sweep --max-m 20 --format json` on one process
  sweep-jobs2  the same sweep with --jobs 2
  query        a seeded closed loop of cold single-request CLI calls
               (poly 40%, count --method formula 30%, count --method
               recursion 20%, verify 10%); one client, no think time
  crosscheck   verify_set(S, (positivity, logconcavity, counts), n_max=60)
               for every admissible S with max <= 9, in one process

A run repeats its workload's unit (one sweep, one crosscheck pass, a batch
of 20 queries) while another unit still fits in --seconds, and at least
once; the query loop sends at least 100 requests, so ten lie beyond p90.

End-to-end metrics (--trace 0).  The machine is a share of a busy host
whose speed drifts by half and more within a minute, far more than the
regressions the bounds are meant to catch.  So each time is measured in
seconds and then scaled to a fixed machine speed.  The benchmark times
its own fixed pure-Python loop (reference.py) right before and right
after every unit, every pair of set-up samples and every few query
requests, and multiplies a time by reference.NOMINAL_S over the geometric
mean of the two loop times around it.  That tells the speed during a
short process only, so inside a sweep or crosscheck process, and in the
pool workers of sweep-jobs2, a sampler (reference.Sampler) also runs a
short loop every quarter second and scales the work stretch by stretch;
the sampling takes about 4% of such a process's time.  The loop never
calls peakpoly, so a change to the program moves the scaled times as it
moves the raw ones.  The raw times are in the details line.
  setup_s         median time from spawning a fresh interpreter to the end
                  of `import peakpoly, peakpoly.cli`; samples are taken
                  between units, at least 7 per run
  wall_s          median time of one unit's work: the sweep or crosscheck
                  call timed inside its process after the import, or the
                  summed latency of a query batch
  sets_per_s      admissible sets verified per second of wall_s (sweep,
                  crosscheck), or requests answered per second (query)
  latency_p50_ms, latency_p90_ms
                  percentiles of request latency, spawn to exit: a request
                  is one CLI call (query) or one unit (sweep, crosscheck)
  peak_rss_mb     p90 over the measured processes of each one's peak RSS,
                  its pool workers included (see launcher.py); p90, not the
                  maximum, so that one rare large query does not decide it
Failed operations show in the result's `failed` out of `attempted`.

With --trace 1 it runs untraced and traced units in pairs (see spans.py)
and prints the per-layer metrics of the first traced unit, and
trace.overhead_ratio, the median traced work time over the median
untraced one.  Times and counts add up over all processes of the unit,
pool workers included.  Counts repeat exactly for a given seed, except on
sweep-jobs2: the pool hands out chunks to whichever worker is free, so
which sets each worker rebuilds varies from run to run.  There
verify.self_s also holds the parent's wait in sweep() for its workers.

Every output is checked (see checks.py).  An operation that exits with an
error counts as failed; a wrong answer makes the run fail: `correct` is
false and the exit code is 1.  The last line of stdout is the result JSON;
the line before it holds the provenance (nproc, Python, source commit and
digest, seed, load average at start and end) and failure details.

Known defects that stay visible at the parent commit: from a cold memo,
`count --method recursion` fails with a RecursionError traceback for
n >= 496 (about one in ten query requests), and `count --method all` exits
1 for every n above the enumeration cap, so it cannot be a workload.
"""

import argparse
import bisect
import collections
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks
import reference

WORKLOADS = ("sweep", "sweep-jobs2", "query", "crosscheck")
WORKERS = {"sweep-jobs2": 2}

SWEEP_MAX_M = 20
CROSSCHECK_MAX_M = 9
CROSSCHECK_N_MAX = 60
QUERY_MAX_M = 20
QUERY_N_MAX = 1000
QUERY_MIN_REQUESTS = 100
# slices per stratum of the query's sets, drawn from in turn (see query_batches)
PHASES = 4
SETUP_PER_UNIT = 2
SETUP_MIN_SAMPLES = 7
# the benchmark must end within 180 s; units still running then are killed
HARD_DEADLINE_S = 165
# query requests between two reference loops
REFERENCE_EVERY = 5

SRC = os.path.join(checks.ROOT, "src")
CHILD = os.path.join(checks.HERE, "child.py")
LAUNCHER = os.path.join(checks.HERE, "launcher.py")
WORK_ROOT = os.path.join(checks.ROOT, ".perfbench_work")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "sets_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "intpoly.self_s": "s",
    "intpoly.evaluate.calls": "count",
    "intpoly.recenter.calls": "count",
    "intpoly.add.calls": "count",
    "intpoly.construct.calls": "count",
    "engine.self_s": "s",
    "engine.polys_built": "count",
    "engine.cache.hit_ratio": "1",
    "engine.peak_polynomial.calls": "count",
    "engine.build_useful_ratio": "1",
    "engine.count_via_formula.cum_s": "s",
    "engine.count_via_recursion.cum_s": "s",
    "engine.count_via_recursion.errors": "count",
    "verify.self_s": "s",
    "verify.positivity.cum_s": "s",
    "verify.logconcavity.cum_s": "s",
    "verify.counts.cum_s": "s",
    "verify.pool.busy_ratio": "1",
    "perms.self_s": "s",
    "perms.as_peak_set.calls": "count",
    "perms.oracle.calls": "count",
    "perms.oracle.cum_s": "s",
    "cli.self_s": "s",
    "trace.overhead_ratio": "1",
}

ORACLE_SPANS = ("perms.count_bruteforce", "perms.enumerate_by_peak_set",
                "perms.group_permutations_by_peak_set")


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Proc:
    """A finished process: exit code, output, wall time from spawn to exit
    and its start on the monotonic clock; meta is what child.py wrote
    (work time, spans)."""

    def __init__(self, rc: int, stdout: bytes, stderr: bytes, start: float, wall: float):
        self.rc, self.stdout, self.stderr = rc, stdout, stderr
        self.start, self.wall = start, wall
        self.meta: dict = {}
        self.kind = ""


class Bench:
    """Spawns the units of one run and keeps its outcomes."""

    def __init__(self, seed: int, seconds: int):
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + HARD_DEADLINE_S
        self.expired = False
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.seq = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env.pop("PEAKPOLY_ENUM_CAP", None)
        self.launcher = subprocess.Popen([sys.executable, LAUNCHER], stdin=subprocess.PIPE,
                                         stdout=subprocess.PIPE, env=env, cwd=checks.ROOT,
                                         text=True)
        self.outcomes: list[tuple[str, checks.Outcome]] = []
        self.peak_rss_kb: list[int] = []
        self.setup: list[Proc] = []
        # (start, end, seconds) of every reference loop, in time order
        self.refs: list[tuple[float, float, float]] = []

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()
        self.launcher.stdout.close()
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    def fresh_dir(self) -> str:
        self.seq += 1
        path = os.path.join(self.work, str(self.seq))
        os.makedirs(path)
        return path

    def spawn(self, argv: list[str], track_rss: bool = True) -> Proc:
        """Run one process to completion through the launcher."""
        scratch = self.fresh_dir()
        request = {"argv": argv, "stdout": os.path.join(scratch, "stdout"),
                   "stderr": os.path.join(scratch, "stderr"),
                   "timeout": max(0.0, self.deadline - time.monotonic())}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        self.expired = self.expired or reply["killed"]
        if track_rss:
            self.peak_rss_kb.append(reply["maxrss_kb"])
        with open(request["stdout"], "rb") as handle:
            stdout = handle.read()
        with open(request["stderr"], "rb") as handle:
            stderr = handle.read()
        return Proc(reply["rc"], stdout, stderr, reply["start"], reply["wall"])

    def child(self, mode: str, args: list[str], trace: bool = False,
              sample: str | None = None) -> Proc:
        """One unit in perfbench/child.py; meta holds its work time and spans,
        or with `sample` (--sample or --sample-workers) its work time scaled
        by reference.Sampler."""
        scratch = self.fresh_dir()
        meta_path = os.path.join(scratch, "meta.json")
        options = ["--trace", scratch] if trace else [sample, scratch] if sample else []
        proc = self.spawn([sys.executable, CHILD, mode, meta_path, *options, "--", *args])
        if os.path.exists(meta_path):
            with open(meta_path) as handle:
                proc.meta = json.load(handle)
        if trace:
            snapshots = [proc.meta["trace"]] if "trace" in proc.meta else []
            for name in sorted(os.listdir(scratch)):
                if name.startswith("worker-"):
                    with open(os.path.join(scratch, name)) as handle:
                        snapshots.append(json.load(handle))
            proc.meta["snapshots"] = snapshots
        return proc

    def cli(self, args: list[str]) -> Proc:
        return self.spawn([sys.executable, "-m", "peakpoly", *args])

    def record(self, label: str, outcome: checks.Outcome) -> None:
        self.outcomes.append((label, outcome))

    def more(self, started: float, last_unit_s: float, done: int, min_units: int) -> bool:
        """Start another unit while it still fits in --seconds."""
        if self.expired:
            return False
        if done < min_units:
            return True
        return time.monotonic() - started + last_unit_s <= self.seconds

    def sample_setup(self, count: int) -> None:
        """Fresh interpreter to `import peakpoly, peakpoly.cli` done, in seconds.

        Samples are taken between units, so that a burst of load on the
        machine touches only some of them."""
        code = "import peakpoly, peakpoly.cli, time; print(repr(time.monotonic()))"
        for _ in range(count):
            proc = self.spawn([sys.executable, "-c", code], track_rss=False)
            if proc.rc != 0:
                raise SystemExit("error: cannot import peakpoly from src/: "
                                 + proc.stderr.decode(errors="replace").strip())
            proc.wall = float(proc.stdout) - proc.start
            self.setup.append(proc)

    def reference(self) -> None:
        start = time.monotonic()
        elapsed = reference.seconds()
        self.refs.append((start, time.monotonic(), elapsed))

    def scale(self, proc: Proc) -> float:
        """reference.NOMINAL_S over the geometric mean of the reference loops
        that ended last before the process started and began first after
        it ended."""
        ends = [end for _, end, _ in self.refs]
        starts = [start for start, _, _ in self.refs]
        before = max(bisect.bisect_right(ends, proc.start) - 1, 0)
        after = min(bisect.bisect_left(starts, proc.start + proc.wall), len(self.refs) - 1)
        return reference.scale(self.refs[before][2], self.refs[after][2])


# ---------------------------------------------------------------- workloads

def sweep_unit(jobs: int):
    args = ["sweep", "--max-m", str(SWEEP_MAX_M), "--format", "json"]
    if jobs > 1:
        args += ["--jobs", str(jobs)]
    expected = checks.load_expected()["sweep_jobs1"]

    def unit(bench: Bench, trace: bool | None) -> list[Proc]:
        sample = "--sample" if jobs == 1 else "--sample-workers"
        proc = bench.child("cli", args, bool(trace), sample=sample if trace is None else None)
        bench.record(f"sweep jobs={jobs}", checks.check_sweep(
            proc.rc, proc.stdout, proc.stderr, expected, SWEEP_MAX_M))
        return [proc]

    return unit, checks.admissible_count(SWEEP_MAX_M)


def crosscheck_unit():
    sets = checks.admissible_sets(CROSSCHECK_MAX_M)

    def unit(bench: Bench, trace: bool | None) -> list[Proc]:
        proc = bench.child("crosscheck", [str(CROSSCHECK_MAX_M), str(CROSSCHECK_N_MAX)],
                           bool(trace), sample="--sample" if trace is None else None)
        outcomes = checks.check_crosscheck(proc.rc, proc.stdout, proc.stderr, sets)
        for s, outcome in zip(sets, outcomes):
            bench.record(f"crosscheck {checks.format_set(s)}", outcome)
        return [proc]

    return unit, len(sets)


class Request:
    def __init__(self, kind: str, s: tuple, n: int | None = None):
        self.kind, self.s, self.n = kind, s, n
        text = checks.format_set(s)
        if kind == "poly":
            self.args = ["poly", "--set", text, "--format", "json"]
        elif kind == "verify":
            self.args = ["verify", "--set", text]
        else:
            self.args = ["count", "--set", text, "--n", str(n), "--method", kind]

    def label(self) -> str:
        n = "" if self.n is None else f" n={self.n}"
        return f"{self.kind} {checks.format_set(self.s)}{n}"


def strata(sets: list, k: int) -> list[list]:
    """k equal slices of the sets ordered by (size, max): one draw per slice
    is still uniform over all sets, but every batch then holds small and
    large sets alike, so runs with different seeds cost about the same."""
    ordered = sorted(sets, key=lambda s: (len(s), s[-1], s))
    return [ordered[len(ordered) * i // k:len(ordered) * (i + 1) // k] for i in range(k)]


def query_batches(seed: int):
    """The seeded request stream, in batches of 20 with the mix fixed
    exactly: 8 poly, 6 formula, 4 recursion, 2 verify.  Sets and lengths are
    drawn by strata (see strata()), so each is uniform as the mix requires.
    Each stratum is cut again into PHASES slices, and batch k draws from
    slice k mod PHASES of every stratum: a run of a few batches then covers
    the slices about evenly.  A formula count asks about the set of the
    poly request just before it, whose checked JSON is the reference the
    count is checked against."""
    rng = random.Random(seed)
    big = checks.admissible_sets(QUERY_MAX_M)
    small = [s for s in big if s[-1] <= checks.load_expected()["recursion_max_m"]]
    poly_slices, verify_slices = strata(big, 8 * PHASES), strata(big, 2 * PHASES)
    small_slices = strata(small, 4 * PHASES)

    def length(s, quarter):
        lo, span = s[-1] + 1, QUERY_N_MAX - s[-1]
        return rng.randint(lo + span * quarter // 4, lo + span * (quarter + 1) // 4 - 1)

    batch = 0
    while True:
        groups = []
        phase = batch % PHASES
        poly_strata, verify_strata, small_strata = (
            slices[phase::PHASES] for slices in (poly_slices, verify_slices, small_slices))
        # the two poly requests without a formula count rotate over the
        # strata, so every run holds about as many heavy requests
        with_formula = set(range(8)) - {2 * batch % 8, (2 * batch + 1) % 8}
        batch += 1
        for i, stratum in enumerate(poly_strata):
            s = rng.choice(stratum)
            group = [Request("poly", s)]
            if i in with_formula:
                group.append(Request("formula", s, rng.randint(s[-1] + 1, QUERY_N_MAX)))
            groups.append(group)
        quarters = rng.sample(range(4), 4)
        for stratum, quarter in zip(small_strata, quarters):
            s = rng.choice(stratum)
            groups.append([Request("recursion", s, length(s, quarter))])
        groups += [[Request("verify", rng.choice(stratum))] for stratum in verify_strata]
        rng.shuffle(groups)
        yield [req for group in groups for req in group]


class QueryChecker:
    def __init__(self):
        self.digests = checks.load_query_digests(QUERY_MAX_M)
        self.small_polys = checks.load_expected()["polys"]
        self.verified_polys: dict[tuple, dict] = {}

    def check(self, req: Request, proc: Proc) -> checks.Outcome:
        if req.kind == "poly":
            outcome = checks.check_poly(proc.rc, proc.stdout, proc.stderr, req.s,
                                        self.digests[req.s][0])
            if outcome.kind == checks.OK:
                self.verified_polys[req.s] = json.loads(proc.stdout)
            return outcome
        if req.kind == "verify":
            return checks.check_verify(proc.rc, proc.stdout, proc.stderr, req.s,
                                       self.digests[req.s][1])
        if req.kind == "formula":
            ref_poly = self.verified_polys.get(req.s)
        else:
            ref_poly = self.small_polys[checks.format_set(req.s)]
        return checks.check_count(proc.rc, proc.stdout, proc.stderr, req.s, req.n, ref_poly)


def query_unit(seed: int):
    stream = query_batches(seed)
    checker = QueryChecker()
    batch: list[Request] = []

    def unit(bench: Bench, trace: bool | None) -> list[Proc]:
        """One batch.  trace=None sends real CLI calls; False and True go
        through child.py, so that traced and untraced calls differ only by
        the spans, and True replays the batch just sent untraced."""
        if not trace:
            batch[:] = next(stream)
        procs = []
        for i, req in enumerate(batch):
            if trace is None:
                if i and i % REFERENCE_EVERY == 0:
                    bench.reference()
                proc = bench.cli(req.args)
            else:
                proc = bench.child("cli", req.args, trace)
            bench.record(req.label(), checker.check(req, proc))
            proc.kind = req.kind
            procs.append(proc)
        return procs

    return unit


def make_unit(workload: str, seed: int):
    """The workload's unit and the number of sets one unit verifies (query: None)."""
    if workload == "query":
        return query_unit(seed), None
    if workload == "crosscheck":
        return crosscheck_unit()
    return sweep_unit(WORKERS.get(workload, 1))


# ---------------------------------------------------------------- runs

def run_end_to_end(bench: Bench, workload: str) -> tuple[dict, dict]:
    bench.sample_setup(1)  # may byte-compile the package
    bench.setup.clear()
    reference.seconds()  # warm-up

    def between_units() -> None:
        bench.reference()
        bench.sample_setup(SETUP_PER_UNIT)
        bench.reference()

    between_units()
    started = time.monotonic()
    units: list[list[Proc]] = []
    unit, sets = make_unit(workload, bench.seed)
    min_requests = QUERY_MIN_REQUESTS if workload == "query" else 1
    last = 0.0
    while bench.more(started, last, sum(map(len, units)), min_requests):
        unit_start = time.monotonic()
        units.append(unit(bench, None))
        last = time.monotonic() - unit_start
        between_units()
    while len(bench.setup) < SETUP_MIN_SAMPLES:
        between_units()

    def work(p: Proc) -> float:
        return p.meta.get("work_s", p.wall)

    def scaled_work(p: Proc) -> float:
        """Work time scaled by the loops around the process, or by the
        sampler inside it (see child.py)."""
        return p.meta.get("scaled_work_s", work(p) * bench.scale(p))

    def latency(p: Proc) -> float:
        """Spawn to exit, scaled; the work phase of a sampled process by its sampler."""
        if "scaled_work_s" in p.meta:
            return p.meta["scaled_work_s"] + (p.wall - p.meta["phase_s"]) * bench.scale(p)
        return p.wall * bench.scale(p)

    procs = [p for procs in units for p in procs]
    unit_walls = [sum(map(scaled_work, procs)) for procs in units]
    latencies = list(map(latency, procs))
    done_ok = sum(p.rc == 0 for p in procs)
    sets_per_s = sets / statistics.median(unit_walls) if sets else done_ok / sum(latencies)
    metrics = {
        "setup_s": statistics.median(p.wall * bench.scale(p) for p in bench.setup),
        "wall_s": statistics.median(unit_walls),
        "sets_per_s": sets_per_s,
        "latency_p50_ms": 1000 * percentile(latencies, 0.5),
        "latency_p90_ms": 1000 * percentile(latencies, 0.9),
        "peak_rss_mb": percentile(bench.peak_rss_kb, 0.9) / 1024,
    }
    raw_walls = [sum(map(work, procs)) for procs in units]
    raw_latencies = [p.wall for p in procs]
    details = {
        "units": len(units), "requests": len(procs), "unit_walls_s": unit_walls,
        "reference_s": [round(r[2], 5) for r in bench.refs],
        "raw_setup_s": statistics.median(p.wall for p in bench.setup),
        "raw_wall_s": statistics.median(raw_walls),
        "raw_latency_p50_ms": 1000 * percentile(raw_latencies, 0.5),
        "raw_latency_p90_ms": 1000 * percentile(raw_latencies, 0.9),
        "raw_unit_walls_s": raw_walls,
    }
    if workload == "query":
        by_kind: dict[str, list[float]] = {}
        for p, latency in zip(procs, latencies):
            by_kind.setdefault(p.kind, []).append(latency)
        details["latency_p50_ms_by_kind"] = {
            kind: 1000 * percentile(walls, 0.5) for kind, walls in sorted(by_kind.items())}
    return {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, details


def merge_snapshots(snapshots: list[dict]) -> dict:
    stats: dict[str, list] = {}
    for snap in snapshots:
        for key, row in snap["stats"].items():
            total = stats.setdefault(key, [0, 0.0, 0.0, 0])
            for i, value in enumerate(row):
                total[i] += value
    return {
        "stats": stats,
        "cache_hits": sum(snap["cache_hits"] for snap in snapshots),
        "distinct_sets": len({tuple(k) for snap in snapshots for k in snap["put_keys"]}),
        "processes": len(snapshots),
    }


def per_layer_metrics(merged: dict, workers: int, overhead: float) -> dict:
    stats = merged["stats"]

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0, 0])[0]

    def cum(key):
        return stats.get(key, [0, 0.0, 0.0, 0])[1]

    def errors(key):
        return stats.get(key, [0, 0.0, 0.0, 0])[3]

    def layer_self(layer):
        return sum(row[2] for key, row in stats.items() if key.startswith(layer + "."))

    gets, built = calls("engine.PolynomialCache.get"), calls("engine.PolynomialCache.put")
    sweep_wall = cum("verify.sweep")
    metrics = {
        "intpoly.self_s": layer_self("intpoly"),
        "intpoly.evaluate.calls": calls("intpoly.BinomialPolynomial.evaluate"),
        "intpoly.recenter.calls": calls("intpoly.BinomialPolynomial.recenter"),
        "intpoly.add.calls": (calls("intpoly.BinomialPolynomial.__add__")
                              + calls("intpoly.sum_polynomials")),
        "intpoly.construct.calls": calls("intpoly.BinomialPolynomial.__init__"),
        "engine.self_s": layer_self("engine"),
        "engine.polys_built": built,
        "engine.cache.hit_ratio": merged["cache_hits"] / gets if gets else 0.0,
        "engine.peak_polynomial.calls": calls("engine.peak_polynomial"),
        "engine.build_useful_ratio": merged["distinct_sets"] / built if built else 0.0,
        "engine.count_via_formula.cum_s": cum("engine.count_via_formula"),
        "engine.count_via_recursion.cum_s": cum("engine.count_via_recursion"),
        "engine.count_via_recursion.errors": errors("engine.count_via_recursion"),
        "verify.self_s": layer_self("verify"),
        "verify.positivity.cum_s": cum("verify.verify_positivity"),
        "verify.logconcavity.cum_s": cum("verify.verify_log_concavity"),
        "verify.counts.cum_s": cum("verify.verify_counts"),
        "verify.pool.busy_ratio": (cum("verify.verify_set") / (workers * sweep_wall)
                                   if sweep_wall else 0.0),
        "perms.self_s": layer_self("perms"),
        "perms.as_peak_set.calls": calls("perms.as_peak_set"),
        "perms.oracle.calls": sum(calls(key) for key in ORACLE_SPANS),
        "perms.oracle.cum_s": sum(cum(key) for key in ORACLE_SPANS),
        "cli.self_s": layer_self("cli"),
        "trace.overhead_ratio": overhead,
    }
    return {k: (v, PER_LAYER_UNITS[k]) for k, v in metrics.items()}


def run_traced(bench: Bench, workload: str) -> tuple[dict, dict]:
    """Untraced and traced units in pairs; spans of the first traced unit."""
    started = time.monotonic()
    plain_s, traced_s, first = [], [], None
    unit = make_unit(workload, bench.seed)[0]
    last = 0.0
    while bench.more(started, last, len(traced_s), 1):
        pair_start = time.monotonic()
        plain, traced = unit(bench, False), unit(bench, True)
        plain_s.append(sum(p.meta.get("work_s", p.wall) for p in plain))
        traced_s.append(sum(p.meta.get("work_s", p.wall) for p in traced))
        if first is None:
            first = merge_snapshots([s for p in traced for s in p.meta.get("snapshots", [])])
        last = time.monotonic() - pair_start
    overhead = statistics.median(traced_s) / statistics.median(plain_s)
    details = {"pairs": len(traced_s), "untraced_work_s": plain_s, "traced_work_s": traced_s,
               "traced_processes": first["processes"]}
    return per_layer_metrics(first, WORKERS.get(workload, 1), overhead), details


# ---------------------------------------------------------------- output

def git_commit() -> str | None:
    head_path = os.path.join(checks.ROOT, ".git", "HEAD")
    try:
        with open(head_path) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(checks.ROOT, ".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as handle:
                return handle.read().strip()
        with open(os.path.join(checks.ROOT, ".git", "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over src/peakpoly/*.py, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    package = os.path.join(SRC, "peakpoly")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                h.update(name.encode() + b"\0" + handle.read() + b"\0")
    return h.hexdigest()


def failure_details(bench: Bench) -> dict:
    failed = [(label, o.detail) for label, o in bench.outcomes if o.kind == checks.FAILED]
    wrong = [(label, o.detail) for label, o in bench.outcomes if o.kind == checks.WRONG]

    def recursion_n(kind):
        return [int(label.rsplit("n=", 1)[1]) for label, o in bench.outcomes
                if o.kind == kind and label.startswith("recursion ")]

    failed_n, ok_n = recursion_n(checks.FAILED), recursion_n(checks.OK)
    return {
        "failed_by_kind": dict(collections.Counter(label.split()[0] for label, _ in failed)),
        # the known defect: cold-memo recursion counts fail from n = 496 on
        "failed_recursion_min_n": min(failed_n) if failed_n else None,
        "ok_recursion_max_n": max(ok_n) if ok_n else None,
        "failed_examples": failed[:5],
        "wrong": wrong[:20],
    }


def run_one(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    provenance = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "platform": platform.platform(),
        "git_commit": git_commit(), "source_sha256": source_digest(),
        "loadavg_start": os.getloadavg(),
    }
    bench = Bench(seed, seconds)
    try:
        if trace:
            metrics, details = run_traced(bench, workload)
        else:
            metrics, details = run_end_to_end(bench, workload)
    finally:
        bench.close()
    provenance["loadavg_end"] = os.getloadavg()
    details.update(failure_details(bench))
    if bench.expired:
        details["expired"] = f"killed at the {HARD_DEADLINE_S} s deadline"
    attempted, failed, correct = checks.tally(o for _, o in bench.outcomes)
    correct = correct and not bench.expired
    return {"provenance": provenance, "details": details, "correct": correct,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def print_table(result: dict) -> None:
    name = result["provenance"]["workload"]
    for metric, (value, unit) in result["metrics"].items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6g}"
        print(f"{name:12s} {metric:34s} {shown} {unit}")
    print(f"{name:12s} {'attempted / failed':34s} {result['attempted']:>7d} / "
          f"{result['failed']}  correct={result['correct']}")


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (os.path.join(SRC, "peakpoly", "cli.py"),
                           os.path.join(checks.DATA, "expected.json"),
                           os.path.join(checks.DATA, "query_digests.txt"))
               if not os.path.isfile(p)]
    if missing:
        print(f"error: not a peakpoly checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        print_table(result)
    for result in results:
        print(json.dumps({"provenance": result["provenance"], "details": result["details"]}))
    if len(results) == 1:
        (result,) = results
        metrics = result["metrics"]
    else:
        metrics = {f"{r['provenance']['workload']}/{k}": v
                   for r in results for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results)
    print(result_line(correct, sum(r["attempted"] for r in results),
                      sum(r["failed"] for r in results), metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
