"""Outside-in layer tracing for the benchmark's traced runs.

The benchmark measures the simulator's layers without touching its
code: :class:`Tracer` replaces the public entry points of each layer
(class attributes, and module-level functions in every ``repro``
module that imported them) with timing wrappers for the duration of a
traced run, and puts the originals back afterwards.

Every wrapper records, per entry name, the number of calls, the
inclusive time (outermost activation only, so a level calling the
level below under the same name is not counted twice) and the self
time (inclusive time minus the time of wrapped children, measured on
a per-thread span stack).  Spans are aggregated in memory; a process
with an output directory writes its aggregate to
``<dir>/spans-<pid>.json`` when it leaves a run-level span and before
a serving worker exits, so forked pool and serving workers report too.

Besides time, the tracer keeps the counts the benchmark cross-checks
against the simulator's own statistics: the write-queue depth seen by
every ``MemoryController.read_line``, the packed trace words
generated, store and run-cache hits, and a reference to the
statistics registry of every memory controller built, whose counters
are summed when the aggregate is written.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Simulator counters summed over every registry a traced process saw.
#: ``(metric key, flat counter names summed into it)``.
COUNTER_SUMS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("memory.line_reads", ("memory.line_reads",)),
    ("memory.line_writes", ("memory.line_writes",)),
    ("memory.bank_accesses", ("memory.banks.reads",
                              "memory.banks.writes")),
    ("memory.bank_buffer_hits", ("memory.banks.buffer_hits",)),
    ("memory.port.fetches", ("memory.port.fetches",)),
    ("tier.fetches", ("tier.fetches",)),
    ("tier.hits", ("tier.hits", "tier.flat_hits")),
    ("tier.rbla_bypasses", ("tier.rbla_bypasses",)),
)

#: Spans after which a process writes its aggregate unthrottled: each
#: ends a unit of work whose counters must not be lost if the process
#: is later killed or leaves through ``os._exit``.
_FLUSH_AFTER = frozenset({
    "runner.simulate_run_key", "simulator.run_simulation",
    "runcache.store", "serve.worker",
})

#: Seconds between throttled writes of the aggregate.
_DUMP_INTERVAL = 0.5


def _level_counters(flat: Dict[str, int]) -> Dict[str, int]:
    """Per-simulation sums over the cache levels and their prefetchers.

    ``lower_traffic`` is the inter-level protocol traffic arriving at
    levels below L1 (``fetch_requests + writebacks_in``);
    ``below_l1_fetches`` the line fetches L1 sent to L2.
    """
    out = {"below_l1_fetches": 0, "lower_traffic": 0,
           "mshr_coalesced": 0, "prefetch_generated": 0,
           "prefetch_fills": 0}
    for name, value in flat.items():
        parts = name.split(".")
        if parts[0] != "cache":
            continue
        level, field = parts[1], parts[-1]
        if field == "mshr_coalesced":
            out["mshr_coalesced"] += value
        elif field == "prefetches_generated":
            out["prefetch_generated"] += value
        elif field == "prefetch_fills":
            out["prefetch_fills"] += value
        if level == "L1" or len(parts) != 3:
            continue
        if field in ("fetch_requests", "writebacks_in"):
            out["lower_traffic"] += value
        if field == "fetch_requests" and level == "L2":
            out["below_l1_fetches"] += value
    return out


class Tracer:
    """Installs timing wrappers on the simulator's layer entry points."""

    def __init__(self, out_dir: Optional[str] = None) -> None:
        self.out_dir = out_dir
        #: name -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, List[float]] = {}
        #: name -> count (trace words, hits, points)
        self.counts: Dict[str, float] = {}
        #: write-queue depth -> reads that saw it
        self.wq_depths: Dict[int, int] = {}
        self._registries: Dict[int, object] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._saved: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[int, object] = {}
        self._last_dump = 0.0
        self.installed = False

    # -- bookkeeping ------------------------------------------------------

    def _record(self, name: str) -> List[float]:
        rec = self.totals.get(name)
        if rec is None:
            rec = self.totals[name] = [0, 0.0, 0.0]
        return rec

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def reset(self) -> None:
        """Zero every aggregate (wrappers hold their records, so the
        lists are cleared in place)."""
        for rec in self.totals.values():
            rec[0], rec[1], rec[2] = 0, 0.0, 0.0
        self.counts.clear()
        self.wq_depths.clear()
        self._registries.clear()
        self._local = threading.local()

    def _after_fork(self) -> None:
        # A forked worker starts inside its parent's open spans, which
        # it never leaves; it reports only its own work.
        if self.installed:
            self.reset()
            self._lock = threading.Lock()
            self._last_dump = 0.0

    # -- wrapping ---------------------------------------------------------

    def _make(self, fn: Callable, name: str,
              before: Optional[Callable] = None,
              after: Optional[Callable] = None) -> Callable:
        rec = self._record(name)
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            local = tracer._local
            try:
                stack = local.stack
                depth = local.depth
            except AttributeError:
                stack = local.stack = []
                depth = local.depth = {}
            if before is not None:
                before(args)
            frame = [0.0]
            stack.append(frame)
            nested = depth.get(name, 0)
            depth[name] = nested + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] = nested
                rec[0] += 1
                rec[2] += elapsed - frame[0]
                if not nested:
                    rec[1] += elapsed
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(args, result)
            if not stack and tracer.out_dir is not None and (
                    name in _FLUSH_AFTER
                    or clock() - tracer._last_dump > _DUMP_INTERVAL):
                tracer.dump()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def make_span(self, fn: Callable, name: str) -> Callable:
        """A traced stand-in for ``fn``, not installed anywhere."""
        return self._make(fn, name)

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` for the traced run (restored on
        :meth:`uninstall`)."""
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str,
                    before: Optional[Callable] = None,
                    after: Optional[Callable] = None) -> None:
        """Wrap ``cls.attr`` (defined on ``cls`` itself) as ``name``."""
        original = cls.__dict__[attr]
        wrapper = self._make(original, name, before, after)
        self._saved.append((cls, attr, original))
        self._wrappers[id(wrapper)] = original
        setattr(cls, attr, wrapper)

    def wrap_function(self, module, attr: str, name: str,
                      after: Optional[Callable] = None) -> None:
        """Wrap a module-level function in every ``repro`` module that
        holds a reference to it (``from x import f`` copies the name)."""
        original = getattr(module, attr)
        wrapper = self._make(original, name, after=after)
        self._wrappers[id(wrapper)] = original
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> "Tracer":
        if self.installed:
            raise RuntimeError("tracer already installed")
        from layers import install_layers
        install_layers(self)
        self.installed = True
        os.register_at_fork(after_in_child=self._after_fork)
        return self

    def uninstall(self) -> None:
        """Put every original back, including names a module imported
        from a wrapped module while the wrappers were installed."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                original = self._wrappers.get(id(value))
                if original is not None:
                    setattr(mod, key, original)
        self._wrappers.clear()
        self.installed = False

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- hooks used by the layer table ------------------------------------

    def keep_registry(self, stats) -> None:
        self._registries[id(stats)] = stats

    def sample_wq_depth(self, controller) -> None:
        depth = controller.pending_writes()
        self.wq_depths[depth] = self.wq_depths.get(depth, 0) + 1

    # -- output -----------------------------------------------------------

    def counters(self) -> Dict[str, int]:
        """Simulator counters summed over every registry seen."""
        out = {key: 0 for key, _ in COUNTER_SUMS}
        for key in ("below_l1_fetches", "lower_traffic", "mshr_coalesced",
                    "prefetch_generated", "prefetch_fills"):
            out["sim." + key] = 0
        for stats in list(self._registries.values()):
            flat = stats.flat()
            for key, names in COUNTER_SUMS:
                out[key] += sum(flat.get(n, 0) for n in names)
            for key, value in _level_counters(flat).items():
                out["sim." + key] += value
        return out

    def snapshot(self) -> Dict[str, object]:
        return {"pid": os.getpid(),
                "totals": {k: list(v) for k, v in self.totals.items()},
                "counts": dict(self.counts),
                "wq_depths": {str(k): v for k, v in
                              self.wq_depths.items()},
                "counters": self.counters()}

    def dump(self) -> None:
        """Write this process's aggregate atomically (if configured)."""
        if self.out_dir is None:
            return
        with self._lock:
            self._last_dump = time.perf_counter()
            data = self.snapshot()
            path = os.path.join(self.out_dir, f"spans-{os.getpid()}.json")
            tmp = f"{path}.{threading.get_ident()}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump(data, handle)
            os.replace(tmp, path)


def merge_snapshots(snapshots: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum per-process aggregates into one."""
    totals: Dict[str, List[float]] = {}
    counts: Dict[str, float] = {}
    wq: Dict[int, int] = {}
    counters: Dict[str, int] = {}
    for snap in snapshots:
        for name, (calls, incl, self_s) in snap["totals"].items():
            rec = totals.setdefault(name, [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += incl
            rec[2] += self_s
        for name, value in snap["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for depth, n in snap["wq_depths"].items():
            wq[int(depth)] = wq.get(int(depth), 0) + n
        for name, value in snap["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return {"totals": totals, "counts": counts, "wq_depths": wq,
            "counters": counters}


def load_snapshots(directory: str) -> List[Dict[str, object]]:
    out = []
    for entry in sorted(os.listdir(directory)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            with open(os.path.join(directory, entry),
                      encoding="utf-8") as handle:
                out.append(json.load(handle))
    return out
