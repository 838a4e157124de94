"""Workload ``figure_points``: replay a seeded draw of real figure
points serially in this process, through ``simulate_run_key`` with no
run cache (see :mod:`draws` for the draw).

* set-up (``setup_s``): materialize every drawn point's packed trace
  from scratch, three times; the median is reported.
* timed phase (``wall_s``, ``cpu_s``): passes over all points after
  set-up, at least three and until ``--seconds`` have elapsed since the
  first began; one pass with every point at its median over them.
* warm phase (``warm_wall_s``): the same over the passes after the
  first, when lazily built engine tables and every memo are warm.
* traced run (``--trace 1``) adds one untraced pass for the baseline,
  one traced pass (per-layer spans, counter cross-check, which
  ``TraceDrivenCpu`` entry replayed each point) and the engine census:
  every point again with the vector path forced (``MIN_VECTOR_TRACE``
  lowered to 0), under ``vector_disabled()`` and under
  ``kernel_disabled()``.

Every replay's ``(cycles, ops, stats.flat())`` digest must equal the
committed expectation (``expected_digests.json``).
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import harness
import metrics as layer_metrics
from draws import draw_figure_points
from tracing import Tracer, load_snapshots, merge_snapshots

SETUP_REPEATS = 3
#: Passes after the first, at least; more run until ``--seconds``.
MIN_WARM_PASSES = 2


class _Checker:
    """Counts replays and digest mismatches against the expectations."""

    def __init__(self) -> None:
        self.expected = harness.load_expected()
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, label: str, key, result) -> None:
        self.attempted += 1
        want = self.expected.get(harness.key_id(key))
        got = harness.result_digest(result)
        if want != got:
            self.failures.append(f"{label} {harness.key_id(key)}: digest "
                                 f"{got} != expected {want}")

    def run(self, label: str, key, fn):
        try:
            result = fn(key)
        except Exception as exc:  # a raising point is a failed point
            self.attempted += 1
            self.failures.append(f"{label} {harness.key_id(key)}: "
                                 f"{type(exc).__name__}: {exc}")
            return None
        self.check(label, key, result)
        return result


def _materialize(points) -> float:
    from repro.core.simulator import clear_trace_cache, ensure_trace
    from repro.experiments.runner import trace_key_for
    clear_trace_cache()
    start = time.perf_counter()
    for _, key in points:
        ensure_trace(*trace_key_for(key))
    return time.perf_counter() - start


def _pass(points, checker: _Checker, label: str) -> Dict[str, object]:
    """One replay of every point; wall and CPU seconds per point, and
    per-family seconds/ops."""
    from repro.experiments.runner import simulate_run_key
    per_family: Dict[str, Tuple[float, int]] = {}
    walls, cpus = [], []
    for family, key in points:
        c0 = time.process_time()
        t0 = time.perf_counter()
        result = checker.run(label, key, simulate_run_key)
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
        if result is not None:
            per_family[family] = (walls[-1], result.ops)
    return {"wall": sum(walls), "walls": walls, "cpus": cpus,
            "families": per_family}


def _typical(passes, field: str) -> float:
    """One pass over the draw with every point at its median time over
    ``passes``: a slow spell of the shared host that hits one point in
    one pass does not count."""
    return sum(harness.median(times)
               for times in zip(*(p[field] for p in passes)))


def _engine_of(before: Dict[str, float], after: Dict[str, float]) -> str:
    for entry in ("run_vector", "run_kernel", "run_packed", "run"):
        name = f"cpu.{entry}.points"
        if after.get(name, 0) > before.get(name, 0):
            return entry
    return "none"


def _census(points, checker: _Checker) -> Dict[str, float]:
    """Replay rate of every point on each engine that covers it."""
    from repro.core import kernels, vector
    from repro.experiments.runner import simulate_run_key

    def timed(label, key):
        t0 = time.perf_counter()
        result = checker.run(label, key, simulate_run_key)
        elapsed = time.perf_counter() - t0
        return result.ops / elapsed if result is not None else 0.0

    out: Dict[str, float] = {}
    for family, key in points:
        if key.sample_every:
            continue
        saved = vector.MIN_VECTOR_TRACE
        vector.MIN_VECTOR_TRACE = 0
        try:
            out[f"family.{family}.vector_req_per_s"] = timed("vector", key)
        finally:
            vector.MIN_VECTOR_TRACE = saved
        with vector.vector_disabled():
            out[f"family.{family}.kernel_req_per_s"] = timed("kernel", key)
        with kernels.kernel_disabled():
            out[f"family.{family}.packed_req_per_s"] = timed("packed", key)
    return out


def run(seed: int, seconds: float, trace: bool) -> None:
    from repro.core.simulator import configure_trace_store
    configure_trace_store(None)
    points = draw_figure_points(seed)
    checker = _Checker()

    setups = [_materialize(points) for _ in range(SETUP_REPEATS)]

    deadline = time.perf_counter() + seconds
    passes = [_pass(points, checker, "replay")]
    while not trace and (len(passes) < 1 + MIN_WARM_PASSES
                         or time.perf_counter() < deadline):
        passes.append(_pass(points, checker, "replay"))

    first = passes[0]
    details = {"points": [harness.key_id(k) for _, k in points],
               "setup_runs": setups,
               "pass_walls": [p["wall"] for p in passes],
               "requests_per_pass": sum(ops for _, ops
                                        in first["families"].values())}
    if trace:
        result_metrics = layer_metrics.per_layer(
            _traced(points, checker, first, details))
    else:
        result_metrics = harness.end_to_end({
            "setup_s": harness.median(setups),
            "wall_s": _typical(passes, "walls"),
            "cpu_s": _typical(passes, "cpus"),
            "peak_rss_mb": harness.peak_rss_mb(),
            "warm_wall_s": _typical(passes[1:], "walls"),
        })
    harness.failures_summary(checker.failures)
    attempted = max(1, checker.attempted)
    harness.emit("figure_points", seed, trace, not checker.failures,
                 attempted, len(checker.failures), result_metrics,
                 dict(details, failures=checker.failures))


def _traced(points, checker: _Checker, untraced,
            details) -> Dict[str, float]:
    from repro.experiments.runner import simulate_run_key
    tracer = Tracer()
    engines = {}
    traced_start = time.perf_counter()
    with tracer:
        for family, key in points:
            before = dict(tracer.counts)
            checker.run("traced", key, simulate_run_key)
            engines[family] = _engine_of(before, tracer.counts)
    traced_wall = time.perf_counter() - traced_start
    tracer.out_dir = harness.fresh_dir("figure_points", "spans")
    tracer.dump()
    agg = merge_snapshots(load_snapshots(tracer.out_dir))
    checker.failures.extend(layer_metrics.cross_check(agg))
    checker.attempted += 1  # the cross-check itself

    values = layer_metrics.from_aggregate(agg)
    for family, (elapsed, ops) in untraced["families"].items():
        values[f"family.{family}.req_per_s"] = ops / elapsed
    values.update(_census(points, checker))
    total_ops = sum(ops for _, ops in untraced["families"].values())
    values["replay_req_per_s"] = total_ops / untraced["wall"]
    values["trace_overhead_frac"] = traced_wall / untraced["wall"] - 1.0
    values["failed_frac"] = len(checker.failures) / max(1, checker.attempted)
    details["engines"] = engines
    details["untraced_wall"] = untraced["wall"]
    details["traced_wall"] = traced_wall
    return values
