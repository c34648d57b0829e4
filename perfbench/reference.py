"""A fixed pure-Python loop that tells how fast the machine runs right now.

The benchmark shares a host whose speed drifts by half and more within a
minute.  It times reference_loop() right before and right after each
stretch of measured work, and scale() turns a time taken between two such
loops into a time at a fixed machine speed.  Inside a long-running
measured process, Sampler does the same every SAMPLE_EVERY_S seconds with
a short loop.  The loop does work of the kinds peakpoly does (frozen
dataclasses, binomial rows, big-integer sums, tuple-keyed caches), so it
slows down as the program does, and it never calls peakpoly, so a change
to the program does not move it.
"""

import dataclasses
import glob
import json
import multiprocessing.util
import os
import signal
import time

# times are scaled to the machine speed at which the full loop takes this long
NOMINAL_S = 0.1
FULL = 1700
# the short loop a Sampler runs, and how often
SHORT = 170
SAMPLE_EVERY_S = 0.25


@dataclasses.dataclass(frozen=True, eq=False)
class _Poly:
    center: int
    coeffs: tuple


def _recenter(p: _Poly, center: int) -> _Poly:
    """Evaluate at center..center+degree by binomial rows, read off the differences."""
    work = []
    for x in range(center, center + len(p.coeffs)):
        row, t = [1], x - p.center
        for j in range(1, len(p.coeffs)):
            row.append(divmod(row[-1] * (t - j + 1), j)[0])
        work.append(sum(c * b for c, b in zip(p.coeffs, row)))
    coeffs = []
    while work:
        coeffs.append(work[0])
        work = [b - a for a, b in zip(work, work[1:])]
    return _Poly(center, tuple(coeffs))


def reference_loop(steps: int = FULL) -> int:
    """Fixed work, about 0.1 s for the FULL number of steps."""
    cache = {}
    p = _Poly(0, (1,))
    for i in range(steps):
        q = _recenter(p, p.center + 1 + i % 3)
        cache[(i, q.center)] = q
        grown = (2 * q.coeffs[0] - 1,) + tuple(
            a + b for a, b in zip(q.coeffs, q.coeffs[1:] + (0,)))
        p = _Poly(q.center, grown) if len(grown) < 18 else _Poly(0, (1, i % 5 + 1))
    return len(cache)


def seconds(steps: int = FULL) -> float:
    """Time of one reference_loop(steps), in seconds."""
    start = time.perf_counter()
    reference_loop(steps)
    return time.perf_counter() - start


def scale(before: float, after: float, steps: int = FULL) -> float:
    """Factor from seconds measured between loops of `steps` steps that took
    `before` and `after` seconds to seconds at the nominal machine speed."""
    return NOMINAL_S * steps / FULL / (before * after) ** 0.5


class Sampler:
    """Runs the short loop every SAMPLE_EVERY_S seconds (SIGALRM) in a
    process, between bytecodes of whatever runs there, and scales each
    stretch of work by the loops around it.

    work_s is the work time without the loops; scaled_s the same at the
    nominal machine speed; elapsed_s the whole time from start() to stop(),
    loops included.  With a worker_dir, every process a multiprocessing
    pool forks samples itself and writes these into the directory when it
    exits (an interval timer is not inherited by a fork)."""

    def __init__(self, worker_dir: str | None = None):
        self.worker_dir = worker_dir
        self.work_s = self.scaled_s = self.elapsed_s = 0.0
        if worker_dir is not None:
            multiprocessing.util.register_after_fork(self, Sampler._after_fork)

    def start(self) -> None:
        reference_loop(SHORT)  # warm-up
        self.last = seconds(SHORT)
        self.previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self.began = self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def _tick(self, *_) -> None:
        stretch = time.perf_counter() - self.mark
        try:
            loop = seconds(SHORT)
        except RecursionError:
            return  # the program is near the recursion limit; its stretch goes on
        self.work_s += stretch
        self.scaled_s += stretch * scale(self.last, loop, SHORT)
        self.last = loop
        self.mark = time.perf_counter()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous_handler)
        self._tick()
        self.elapsed_s = time.perf_counter() - self.began

    def _after_fork(self) -> None:
        self.work_s = self.scaled_s = 0.0
        path = os.path.join(self.worker_dir, f"sampler-{os.getpid()}.json")
        multiprocessing.util.Finalize(None, self._dump, args=(path,), exitpriority=100)
        self.start()

    def _dump(self, path: str) -> None:
        self.stop()
        with open(path, "w") as handle:
            json.dump({"work_s": self.work_s, "scaled_s": self.scaled_s}, handle)

    def workers_factor(self) -> float | None:
        """Scaled over raw work time, summed over the pool workers that have
        exited; None if there were none."""
        rows = []
        for path in glob.glob(os.path.join(self.worker_dir, "sampler-*.json")):
            with open(path) as handle:
                rows.append(json.load(handle))
        work = sum(row["work_s"] for row in rows)
        return sum(row["scaled_s"] for row in rows) / work if work else None
