"""Aggregated call spans around peakpoly's layers, installed from outside the package.

Tracer.install wraps every public function and method of the layer modules
(perms, intpoly, engine, verify, cli), plus constructors and `+`, and
rebinds each wrapped name in every peakpoly module that holds it.  Calls
made between modules and within one module therefore pass through the
wrapper.  Per span name it keeps:

  calls   number of calls;
  cum     time of the outermost activations (a recursive call is not
          counted twice);
  self    duration minus the durations of the traced calls it made
          directly, so the self times of all spans add up to the traced
          wall time;
  errors  calls that ended with an exception.

Counters stay in memory and are written out once, by dump().  In a process
forked by a multiprocessing pool, the counters restart from zero and the
worker writes its own file when it exits, so the parent can add the
workers' work to its own.
"""

import functools
import inspect
import json
import multiprocessing.util
import os
import sys
import time

LAYERS = ("perms", "intpoly", "engine", "verify", "cli")
# dunder methods worth a span: construction and polynomial addition
TRACED_DUNDERS = ("__init__", "__add__")

CACHE_GET = "engine.PolynomialCache.get"
CACHE_PUT = "engine.PolynomialCache.put"


class Tracer:
    def __init__(self, worker_dir: str | None = None):
        self.stats: dict[str, list] = {}
        self.stack: list[float] = []
        self.cache_hits = [0]
        self.put_keys: set[tuple] = set()
        self.worker_dir = worker_dir

    def wrap(self, key: str, fn):
        stat = self.stats.setdefault(key, [0, 0.0, 0.0, 0, 0])
        stack = self.stack
        clock = time.perf_counter
        observe = None
        if key == CACHE_GET:
            hits = self.cache_hits

            def observe(args, result):
                if result is not None:
                    hits[0] += 1
        elif key == CACHE_PUT:
            keys = self.put_keys

            def observe(args, result):
                keys.add(tuple(args[1]))

        # The bookkeeping below calls no Python function, so it still runs
        # when a RecursionError unwinds through a wrapper near the limit.
        # stat indices: 0 calls, 1 cum, 2 self, 3 errors, 4 active; each
        # stack entry is the time of the traced calls made by that frame.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            depth = len(stack)
            stack.append(0.0)
            outer = not stat[4]
            stat[4] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat[3] += 1
                raise
            finally:
                elapsed = clock() - start
                inner = stack[depth]
                del stack[depth:]
                stat[4] -= 1
                stat[0] += 1
                if outer:
                    stat[1] += elapsed
                stat[2] += elapsed - inner
                if depth:
                    stack[depth - 1] += elapsed
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap the layers of the already imported peakpoly package."""
        replaced = {}
        for layer in LAYERS:
            module = sys.modules[f"peakpoly.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[obj] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_class(layer, obj)
        for module_name, module in list(sys.modules.items()):
            if module_name != "peakpoly" and not module_name.startswith("peakpoly."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in replaced:
                    setattr(module, name, replaced[obj])
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _wrap_class(self, layer: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                setattr(cls, attr, self.wrap(key, member))
            elif isinstance(member, classmethod):
                setattr(cls, attr, classmethod(self.wrap(key, member.__func__)))

    def _after_fork(self) -> None:
        # runs in a pool worker, after multiprocessing has cleared the
        # parent's finalizers: start from zero and write out on exit
        for stat in self.stats.values():
            stat[:] = [0, 0.0, 0.0, 0, 0]
        del self.stack[:]
        self.cache_hits[0] = 0
        self.put_keys.clear()
        if self.worker_dir is not None:
            path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.json")
            multiprocessing.util.Finalize(None, self.dump, args=(path, "worker"),
                                          exitpriority=100)

    def snapshot(self, role: str) -> dict:
        return {
            "role": role,
            "pid": os.getpid(),
            "stats": {key: stat[:4] for key, stat in self.stats.items() if stat[0]},
            "cache_hits": self.cache_hits[0],
            "put_keys": sorted(self.put_keys),
        }

    def dump(self, path: str, role: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.snapshot(role), handle)
