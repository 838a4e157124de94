"""Self-tests of the benchmark harness (not of the program)."""

from __future__ import annotations

import json
import os
from functools import lru_cache

import pytest

import draws
import harness
import metrics
from tracing import Tracer

SEEDS = range(8)


def test_figure_draw_is_deterministic_and_seeded():
    assert draws.draw_figure_points(3) == draws.draw_figure_points(3)
    base = draws.draw_figure_points(0)
    assert any(draws.draw_figure_points(seed) != base
               for seed in range(1, 4))


@lru_cache(maxsize=None)
def _trace_len(workload, size, dims):
    from repro.core.simulator import ensure_trace
    return len(ensure_trace(workload, size, dims)[1])


@pytest.mark.parametrize("seed", SEEDS)
def test_every_family_and_both_dispatch_sides_present(seed):
    from repro.core.vector import MIN_VECTOR_TRACE
    from repro.experiments.runner import trace_key_for
    points = draws.draw_figure_points(seed)
    assert [family for family, _ in points] == list(draws.FAMILIES)
    lengths = [_trace_len(*trace_key_for(key)) for _, key in points]
    assert min(lengths) < MIN_VECTOR_TRACE <= max(lengths)
    assert any(key.sample_every for _, key in points)
    expected = harness.load_expected()
    assert all(harness.key_id(key) in expected for _, key in points)


def test_large_2d_families_cover_the_registry_every_seed():
    from repro.workloads.registry import workload_names
    for seed in SEEDS:
        drawn = {key.workload for family, key
                 in draws.draw_figure_points(seed)
                 if family in draws.LARGE_2D}
        assert set(workload_names()) <= drawn


def test_serve_stream_requests_every_key():
    stream = draws.draw_serve_stream(5)
    assert stream == draws.draw_serve_stream(5)
    assert stream != draws.draw_serve_stream(6)
    assert len(stream) == draws.SERVE_REQUESTS
    ident = {json.dumps(k, sort_keys=True) for k in stream}
    assert ident == {json.dumps(k, sort_keys=True)
                     for k in draws.serve_key_space()}


def _wrapped_attributes():
    """Every function of the program: module-level callables and the
    members of every class it defines."""
    import sys
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for key, value in vars(mod).items():
            if callable(value):
                snapshot[(name, key)] = value
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    snapshot[(name, key, attr)] = member
    return snapshot


def test_traced_run_restores_attributes_and_cross_checks():
    from repro.experiments.runner import RunKey, simulate_run_key
    from repro.experiments.tier_modes import tier_overrides
    import layers
    layers.import_layers()
    key = RunKey("1P2L", "htap1", "large", 1.0, False, "default", 0,
                 tier_overrides("hybrid"))
    plain = simulate_run_key(key)
    before = _wrapped_attributes()
    tracer = Tracer()
    with tracer:
        traced = simulate_run_key(key)
    after = _wrapped_attributes()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    assert harness.result_digest(traced) == harness.result_digest(plain)
    agg = tracer.snapshot()
    assert metrics.cross_check(agg) == []
    assert agg["totals"]["tier.fetch_line"][0] > 0
    assert agg["counts"]["cpu.run_kernel.points"] == 1


def test_self_time_excludes_wrapped_children():
    from repro.experiments.runner import RunKey, simulate_run_key
    tracer = Tracer()
    with tracer:
        simulate_run_key(RunKey("1P1L", "htap2", "large", 1.0, False,
                                "default", 0))
    for calls, incl, self_s in tracer.totals.values():
        assert 0 <= self_s <= incl + 1e-9 or incl == 0
    run = tracer.totals["simulator.run_simulation"]
    cpu = tracer.totals["cpu.run_kernel"]
    assert run[2] < run[1] and cpu[1] <= run[1]


def test_host_record_fields():
    host = harness.host_record()
    for field in ("nproc", "python", "numpy", "commit"):
        assert host[field] is not None


def test_tail_percentile_keeps_ten_samples_beyond():
    pct, value, n = harness.tail([float(i) for i in range(200)])
    assert (pct, n) == (95.0, 200) and value == 190.0
    pct, value, _ = harness.tail([1.0, 2.0])
    assert (pct, value) == (100.0, 2.0)


def test_benchmark_json_matches_the_emitted_metrics():
    path = os.path.join(harness.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == \
        metrics.PER_LAYER
    assert len(metrics.PER_LAYER) <= 128
    assert {w["name"] for w in bench["workloads"]} == \
        {"figure_points", "suite_cold", "serve_mix"}
    setup = [m["bound"] for m in bench["end_to_end"]
             if m["name"] == "setup_s"][0]
    assert setup == max(m["bound"] for m in bench["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    import shutil
    import subprocess
    import sys
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "suite_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
