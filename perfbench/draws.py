"""Seeded inputs: the figure-point draw and the serving request stream.

Both draws are stratified so that every seed asks the program for the
same amount of work, and only *which* point lands where changes:

* **figure points.**  One real :class:`RunKey` per config family,
  taken from the planners' own output (``plan_for`` over every planned
  experiment).  The nine families that replay "large" 2-D traces share
  one seeded permutation of the registry (each workload exactly once)
  plus two short HTAP traces, because a large trace's cost depends
  mostly on its workload (``ssyr2k`` replays 200x more requests than
  ``htap1``), so letting each family pick freely would make the
  seed, not the program, decide the wall time.  ``1p1l`` draws from the
  registry workloads whose baseline 1-D traces stay under 40k
  requests, for the same reason: the long 1-D BLAS baselines take
  4-17 s each on a 2-core host.  Every draw holds traces on both sides
  of ``vector.MIN_VECTOR_TRACE`` and one sampled (packed-path) point.
* **serving stream.**  Every key of a fixed key space (designs x
  registry workloads x LLC points at ``size: small``, plus tier and
  MLP-window overrides) appears at least once; the rest of the stream
  repeats keys with zipfian popularity, the ranking and the order
  seeded.  The set of points simulated is therefore the same for
  every seed; the order, the repeats and hence coalescing vary.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: Config families of the figure-point draw, in report order.
FAMILIES = ("1p1l", "1p2l", "1p2l_sameset", "2p2l", "llc_sweep",
            "resident", "slowwrite", "fast_memory", "tier_cache",
            "tier_flat", "tier_hybrid", "sampled")

#: Families replaying a "large" 2-D trace; they share one permutation.
LARGE_2D = ("1p2l", "1p2l_sameset", "2p2l", "llc_sweep", "slowwrite",
            "fast_memory", "tier_cache", "tier_flat", "tier_hybrid")

#: Registry workloads whose large 1-D baseline trace is short enough
#: for a bounded run (sobel 34.6k, htap1 2.6k, htap2 3.1k requests).
SHORT_1D = ("sobel", "htap1", "htap2")

#: Short large 2-D traces (below ``MIN_VECTOR_TRACE``).
SHORT_2D = ("htap1", "htap2")


def _family_matches(family: str, key) -> bool:
    """Whether a planned key belongs to a config family."""
    tier = dict(key.overrides).get("tier.mode")
    plain = (not key.resident and key.memory == "default"
             and not key.sample_every and not tier and key.size == "large")
    if family == "1p1l":
        return plain and key.design == "1P1L" and key.llc_mb == 1.0
    if family == "1p2l":
        return plain and key.design == "1P2L" and key.llc_mb == 1.0
    if family == "1p2l_sameset":
        return plain and key.design == "1P2L_SameSet" \
            and key.llc_mb == 1.0
    if family == "2p2l":
        return plain and key.design == "2P2L" and key.llc_mb == 1.0
    if family == "llc_sweep":
        return plain and key.design != "1P1L" and key.llc_mb != 1.0
    if family == "slowwrite":
        return plain and key.design == "2P2L_SlowWrite"
    if family == "resident":
        return key.resident and key.design != "1P1L"
    if family == "fast_memory":
        return key.memory == "fast" and key.design != "1P1L"
    if family.startswith("tier_"):
        return tier == family[len("tier_"):]
    if family == "sampled":
        return key.sample_every > 0
    raise ValueError(f"unknown family {family!r}")


def family_pools() -> Dict[str, list]:
    """Every planned key of every family (the draw's candidates)."""
    from repro.experiments.plans import PLANNERS, plan_for
    plan = plan_for(PLANNERS)
    return {family: [k for k in plan if _family_matches(family, k)]
            for family in FAMILIES}


def draw_figure_points(seed: int) -> List[Tuple[str, object]]:
    """``(family, RunKey)`` per family for one seed."""
    from repro.workloads.registry import workload_names
    rng = random.Random(seed)
    pools = family_pools()
    registry = workload_names()
    large = list(registry) + [rng.choice(SHORT_2D)
                              for _ in range(len(LARGE_2D)
                                             - len(registry))]
    rng.shuffle(large)
    wanted = dict(zip(LARGE_2D, large))
    wanted["1p1l"] = rng.choice(SHORT_1D)
    wanted["resident"] = rng.choice(registry)
    draw = []
    for family in FAMILIES:
        pool = pools[family]
        if family in wanted:
            pool = [k for k in pool if k.workload == wanted[family]]
        if not pool:
            raise RuntimeError(f"no planned point for family {family!r}")
        draw.append((family, rng.choice(pool)))
    return draw


# -- serving stream -----------------------------------------------------------

SERVE_DESIGNS = ("1P2L", "1P2L_SameSet", "2P2L")
SERVE_LLC = (1.0, 2.0)
#: ``(design, overrides)`` of the override-carrying keys.
SERVE_OVERRIDES = (
    ("1P2L", {"tier.mode": "cache", "tier.size_bytes": 65536}),
    ("1P2L", {"tier.mode": "flat", "tier.size_bytes": 65536}),
    ("1P2L", {"tier.mode": "hybrid", "tier.size_bytes": 65536,
              "tier.cache_fraction": 0.5}),
    ("2P2L", {"cpu.mlp_window": 4}),
)
#: Workloads the override keys run (a fixed subset keeps the key
#: space, and so the simulated work, the same for every seed).
SERVE_OVERRIDE_WORKLOADS = ("sgemm", "sobel", "htap1")
#: Requests per stream (every key once, the rest zipfian repeats).
SERVE_REQUESTS = 200
ZIPF_S = 1.1


def serve_key_space() -> List[dict]:
    from repro.workloads.registry import workload_names
    keys = [{"design": d, "workload": w, "size": "small", "llc_mb": mb}
            for d in SERVE_DESIGNS for w in workload_names()
            for mb in SERVE_LLC]
    keys += [{"design": d, "workload": w, "size": "small",
              "overrides": dict(o)}
             for d, o in SERVE_OVERRIDES for w in SERVE_OVERRIDE_WORKLOADS]
    return keys


def draw_serve_stream(seed: int) -> List[dict]:
    rng = random.Random(seed)
    keys = serve_key_space()
    ranked = list(keys)
    rng.shuffle(ranked)
    weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(len(ranked))]
    repeats = rng.choices(ranked, weights=weights,
                          k=SERVE_REQUESTS - len(keys))
    stream = keys + repeats
    rng.shuffle(stream)
    return stream
