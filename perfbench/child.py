"""One unit of benchmark work inside a fresh interpreter.

    python3 perfbench/child.py cli META [--trace DIR | --sample DIR | --sample-workers DIR] -- ARGS...
    python3 perfbench/child.py crosscheck META [--trace DIR | --sample DIR] -- MAX_M N_MAX

`cli` runs `peakpoly.cli.main(ARGS)` in-process, so stdout, stderr and
the exit code are those of `python -m peakpoly ARGS`.  `crosscheck` runs
verify_set(S, ("positivity", "logconcavity", "counts"), n_max=N_MAX) for
every admissible S with max <= MAX_M and prints one JSON row per set.

The import of peakpoly happens before the clock starts; META receives the
measured work time and, with --trace, the span counters of this process.
Pool workers forked during the work write theirs into DIR when they exit.
With --sample, a reference.Sampler runs in this process during the work
and in the pool workers it forks; with --sample-workers, in the workers
only (a sampler in the waiting parent would time its share of the busy
CPUs, not their speed).  META then also holds the work time scaled to
the nominal machine speed (this process's own sampler, or the workers'
scaled-to-raw ratio applied to the work time) and the time of the whole
work phase; its work time leaves out this process's samples.
"""

import json
import sys
import time
import traceback

import checks
import reference
import spans


def run_cli(argv: list[str]) -> int:
    import peakpoly.cli

    try:
        return peakpoly.cli.main(argv)
    except Exception:
        # what an uncaught exception does to `python -m peakpoly`
        traceback.print_exc()
        return 1


def run_crosscheck(argv: list[str]) -> int:
    import peakpoly.verify

    max_m, n_max = int(argv[0]), int(argv[1])
    rows = []
    for s in checks.admissible_sets(max_m):
        try:
            report = peakpoly.verify.verify_set(
                s, ("positivity", "logconcavity", "counts"), n_max=n_max)
        except Exception as exc:
            rows.append({"set": list(s), "error": f"{type(exc).__name__}: {exc}"})
            continue
        failed = [check.name for check in report.checks if not check.passed]
        rows.append({"set": list(s), "passed": report.passed, "failed": failed})
    print(json.dumps(rows))
    return 0


MODES = {"cli": run_cli, "crosscheck": run_crosscheck}


def main() -> int:
    mode, meta_path, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    split = rest.index("--")
    options, argv = rest[:split], rest[split + 1:]
    flag, option_dir = options if options else (None, None)
    trace_dir = option_dir if flag == "--trace" else None
    sampler = None
    if flag in ("--sample", "--sample-workers"):
        sampler = reference.Sampler(worker_dir=option_dir)

    import peakpoly  # noqa: F401  (set-up, outside the timed work)
    import peakpoly.cli  # noqa: F401

    tracer = None
    if trace_dir is not None:
        tracer = spans.Tracer(worker_dir=trace_dir)
        tracer.install()
    if flag == "--sample":
        sampler.start()
    start = time.perf_counter()
    try:
        rc = MODES[mode](argv)
    finally:
        work_s = time.perf_counter() - start
        sys.stdout.flush()
        meta = {"work_s": work_s}
        if flag == "--sample":
            sampler.stop()
            meta.update(work_s=sampler.work_s, scaled_work_s=sampler.scaled_s,
                        phase_s=sampler.elapsed_s)
        elif flag == "--sample-workers":
            factor = sampler.workers_factor()
            if factor is not None:
                meta.update(scaled_work_s=work_s * factor, phase_s=work_s)
        if tracer is not None:
            meta["trace"] = tracer.snapshot("main")
        with open(meta_path, "w") as handle:
            json.dump(meta, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
