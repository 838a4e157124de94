"""Per-layer metrics: names, units, and how a traced aggregate maps to
them.  Names and units here are the ones ``BENCHMARK.json`` lists
under ``per_layer``; a metric a workload does not exercise reads 0."""

from __future__ import annotations

from typing import Dict, List, Tuple

from draws import FAMILIES

SUITE_EXPERIMENTS = ("table1", "fig10", "fig13", "dynamic_orientation",
                     "multiprogram")
ENGINES = ("vector", "kernel", "packed")


def _census_names() -> List[Tuple[str, str]]:
    out = []
    for family in FAMILIES:
        out.append((f"family.{family}.req_per_s", "1/s"))
        for engine in ENGINES:
            # Occupancy sampling needs per-request callbacks, so the
            # sampled family only ever replays on the packed path,
            # which its default rate already measures.
            if family != "sampled":
                out.append((f"family.{family}.{engine}_req_per_s", "1/s"))
    return out


#: ``(name, unit)`` of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("replay_req_per_s", "1/s"),
    ("serve_req_per_s", "1/s"),
    ("serve_latency_ms_p50", "ms"),
    ("serve_latency_ms_tail", "ms"),
    ("failed_frac", "ratio"),
    ("trace_overhead_frac", "ratio"),
    ("tracegen.calls", "count"),
    ("tracegen.s", "s"),
    ("tracegen.words_per_s", "1/s"),
    ("tracestore.load.s", "s"),
    ("tracestore.store.s", "s"),
    ("tracestore.hits", "count"),
    ("hierarchy.build.s", "s"),
    ("simulator.run_simulation.calls", "count"),
    ("simulator.run_simulation.s", "s"),
    ("cpu.run_vector.points", "count"),
    ("cpu.run_vector.self_s", "s"),
    ("cpu.run_kernel.points", "count"),
    ("cpu.run_kernel.self_s", "s"),
    ("cpu.run_packed.points", "count"),
    ("cpu.run_packed.self_s", "s"),
    ("cpu.run.points", "count"),
    ("cpu.run.self_s", "s"),
    ("cache.lower.calls", "count"),
    ("cache.lower.self_s", "s"),
    ("cache.lower.seen_frac", "ratio"),
    ("sim.below_l1_fetches", "count"),
    ("sim.mshr_coalesced", "count"),
    ("sim.prefetch.generated", "count"),
    ("sim.prefetch.useful_frac", "ratio"),
    ("sim.memory.line_reads", "count"),
    ("sim.memory.line_writes", "count"),
    ("sim.bank.buffer_hit_frac", "ratio"),
    ("sim.tier.hit_frac", "ratio"),
    ("sim.tier.rbla_bypass_frac", "ratio"),
    ("tier.fetch_line.calls", "count"),
    ("tier.fetch_line.s", "s"),
    ("tier.fetch_line.self_s", "s"),
    ("tier.writeback_line.calls", "count"),
    ("tier.writeback_line.self_s", "s"),
    ("port.fetch_line.calls", "count"),
    ("port.fetch_line.s", "s"),
    ("port.fetch_line.self_s", "s"),
    ("port.writeback_line.calls", "count"),
    ("port.writeback_line.s", "s"),
    ("port.writeback_line.self_s", "s"),
    ("memory.read_line.self_s", "s"),
    ("memory.write_line.self_s", "s"),
    ("memory.finish.s", "s"),
    ("controller.read_line.calls", "count"),
    ("controller.read_line.s", "s"),
    ("controller.read_line.self_s", "s"),
    ("controller.read_line.ns_per_call", "ns"),
    ("controller.write_line.calls", "count"),
    ("controller.write_line.s", "s"),
    ("controller.write_line.self_s", "s"),
    ("controller.wq_depth_at_read.mean", "count"),
    ("controller.wq_depth_at_read.p99", "count"),
    ("bank.access.calls", "count"),
    ("bank.access.self_s", "s"),
    ("decoder.decode_line.calls", "count"),
    ("decoder.decode_line.self_s", "s"),
    ("runner.simulate_run_key.s", "s"),
    ("runcache.load.s", "s"),
    ("runcache.store.s", "s"),
    ("runcache.hits", "count"),
    ("suite.pool_busy_frac", "ratio"),
    ("suite.serial_s", "s"),
    *((f"suite.{name}.s", "s") for name in SUITE_EXPERIMENTS),
    ("serve.stage.queue_wait_s.mean", "s"),
    ("serve.stage.simulate_s.mean", "s"),
    ("serve.stage.total_s.mean", "s"),
    ("serve.simulated", "count"),
    ("serve.cache_hits", "count"),
    ("serve.coalesced", "count"),
    ("serve.cross_coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.batches", "count"),
    ("serve.hit_frac", "ratio"),
    *_census_names(),
]

UNITS: Dict[str, str] = dict(PER_LAYER)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _wq_percentile(hist: Dict[int, int], pct: float) -> float:
    total = sum(hist.values())
    if not total:
        return 0.0
    threshold = total * pct / 100.0
    seen = 0
    for depth in sorted(hist):
        seen += hist[depth]
        if seen >= threshold:
            return float(depth)
    return float(max(hist))


def from_aggregate(agg: Dict[str, object]) -> Dict[str, float]:
    """The layer metrics a merged tracer aggregate gives."""
    totals = agg["totals"]
    counts = agg["counts"]
    counters = agg["counters"]
    wq = agg["wq_depths"]

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    out: Dict[str, float] = {
        "tracegen.calls": calls("tracegen.packed")
        + calls("tracegen.object"),
        "tracegen.s": incl("tracegen.packed") + incl("tracegen.object"),
        "tracegen.words_per_s": _ratio(counts.get("tracegen.words", 0),
                                       incl("tracegen.packed")),
        "tracestore.load.s": incl("tracestore.load"),
        "tracestore.store.s": incl("tracestore.store"),
        "tracestore.hits": counts.get("tracestore.hits", 0),
        "hierarchy.build.s": incl("hierarchy.build"),
        "simulator.run_simulation.calls":
            calls("simulator.run_simulation"),
        "simulator.run_simulation.s": incl("simulator.run_simulation"),
        "cache.lower.calls": calls("cache.lower"),
        "cache.lower.self_s": self_s("cache.lower"),
        "cache.lower.seen_frac": _ratio(calls("cache.lower"),
                                        counters.get("sim.lower_traffic",
                                                     0)),
        "sim.below_l1_fetches": counters.get("sim.below_l1_fetches", 0),
        "sim.mshr_coalesced": counters.get("sim.mshr_coalesced", 0),
        "sim.prefetch.generated": counters.get("sim.prefetch_generated",
                                               0),
        "sim.prefetch.useful_frac": _ratio(
            counters.get("sim.prefetch_fills", 0),
            counters.get("sim.prefetch_generated", 0)),
        "sim.memory.line_reads": counters.get("memory.line_reads", 0),
        "sim.memory.line_writes": counters.get("memory.line_writes", 0),
        "sim.bank.buffer_hit_frac": _ratio(
            counters.get("memory.bank_buffer_hits", 0),
            counters.get("memory.bank_accesses", 0)),
        "sim.tier.hit_frac": _ratio(counters.get("tier.hits", 0),
                                    counters.get("tier.fetches", 0)),
        "sim.tier.rbla_bypass_frac": _ratio(
            counters.get("tier.rbla_bypasses", 0),
            counters.get("tier.fetches", 0)),
        "memory.read_line.self_s": self_s("memory.read_line"),
        "memory.write_line.self_s": self_s("memory.write_line"),
        "memory.finish.s": incl("memory.finish"),
        "controller.read_line.ns_per_call": 1e9 * _ratio(
            incl("controller.read_line"), calls("controller.read_line")),
        "controller.wq_depth_at_read.mean": _ratio(
            sum(d * n for d, n in wq.items()), sum(wq.values())),
        "controller.wq_depth_at_read.p99": _wq_percentile(wq, 99.0),
        "runner.simulate_run_key.s": incl("runner.simulate_run_key"),
        "runcache.load.s": incl("runcache.load"),
        "runcache.store.s": incl("runcache.store"),
        "runcache.hits": counts.get("runcache.hits", 0),
    }
    for entry in ("run_vector", "run_kernel", "run_packed", "run"):
        out[f"cpu.{entry}.points"] = counts.get(f"cpu.{entry}.points", 0)
        out[f"cpu.{entry}.self_s"] = self_s(f"cpu.{entry}")
    for name in ("tier.fetch_line", "tier.writeback_line",
                 "port.fetch_line", "port.writeback_line",
                 "controller.read_line", "controller.write_line",
                 "bank.access", "decoder.decode_line"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.s"] = incl(name)
        out[f"{name}.self_s"] = self_s(name)
    return {k: v for k, v in out.items() if k in UNITS}


def cross_check(agg: Dict[str, object]) -> List[str]:
    """Outside counts that must equal the simulator's own counters."""
    totals = agg["totals"]
    counters = agg["counters"]
    pairs = (("controller.read_line", "memory.line_reads"),
             ("bank.access", "memory.bank_accesses"),
             ("port.fetch_line", "memory.port.fetches"),
             ("tier.fetch_line", "tier.fetches"))
    failures = []
    for entry, counter in pairs:
        seen = totals.get(entry, (0, 0.0, 0.0))[0]
        want = counters.get(counter, 0)
        if seen != want:
            failures.append(f"counter cross-check: {entry}.calls={seen} "
                            f"!= sum {counter}={want}")
    return failures


def per_layer(values: Dict[str, float]) -> Dict[str, dict]:
    """Every per-layer metric with its unit (0 where not measured)."""
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}
