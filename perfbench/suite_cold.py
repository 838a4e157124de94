"""Workload ``suite_cold``: the ``run_all`` entry point at ``--jobs 2``
on an empty output directory over a fixed experiment list, then again
on the warmed directory.

* set-up (``setup_s``): a fresh interpreter importing
  ``repro.experiments.run_all`` (what every suite invocation pays before
  it simulates); median of three.
* timed phase (``wall_s``, ``cpu_s``): cold invocations, each on an
  empty directory, until ``--seconds`` have elapsed (at least one);
  medians.  CPU is the whole process tree's (``RUSAGE_CHILDREN``).
* warm phase (``warm_wall_s``): one more invocation on the last cold
  directory.
* traced run (``--trace 1``): one untraced cold invocation as the
  baseline, then a cold and a warm invocation through
  :mod:`launch`.  ``suite.<experiment>.s`` adds the experiment's
  parent-side span to the journal seconds of the planned points it
  planned first (``summary.json`` reports ``seconds: 0.0`` for a
  figure whose points were prefetched, so it is not read).

``run_all`` takes no inputs, so the seed is recorded and varies
nothing.  Every report must match ``expected_suite.json`` and the
warm invocation must reproduce the cold one byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Tuple

import harness
import metrics as layer_metrics
from metrics import SUITE_EXPERIMENTS
from tracing import load_snapshots, merge_snapshots

SETUP_REPEATS = 3
JOBS = 2
#: Generous per-invocation limit; a cold invocation takes ~30 s on a
#: 2-core host.
INVOCATION_TIMEOUT = 150


def _command(outdir: str, traced: bool) -> List[str]:
    args = [outdir, *SUITE_EXPERIMENTS, "--jobs", str(JOBS), "--quiet"]
    if traced:
        return [sys.executable, os.path.join(harness.BENCH_DIR, "launch.py"),
                "run_all", *args]
    return [sys.executable, "-m", "repro.experiments.run_all", *args]


def _invoke(outdir: str, trace_dir: str = None) -> Tuple[float, float, int]:
    """``(wall, process-tree CPU, exit code)`` of one invocation."""
    env = harness.repro_env()
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
    cpu0 = harness.children_cpu_s()
    start = time.perf_counter()
    code, err = harness.run_group(_command(outdir, trace_dir is not None),
                                  env, INVOCATION_TIMEOUT)
    wall = time.perf_counter() - start
    if code:
        sys.stderr.write(err[-2000:])
    return wall, harness.children_cpu_s() - cpu0, code


def _setup() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import repro.experiments.run_all"],
                   env=harness.repro_env(), cwd=harness.ROOT, check=True,
                   timeout=60)
    return time.perf_counter() - start


def _outputs(outdir: str) -> Dict[str, str]:
    """Digest of every experiment report, plus the summary minus its
    host-time ``seconds`` fields."""
    out = {}
    for name in SUITE_EXPERIMENTS:
        path = os.path.join(outdir, f"{name}.txt")
        if os.path.exists(path):
            with open(path, "rb") as handle:
                out[name] = hashlib.sha256(handle.read()).hexdigest()[:20]
    path = os.path.join(outdir, "summary.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            summary = json.load(handle)
        for entry in summary.values():
            entry.pop("seconds", None)
        text = json.dumps(summary, sort_keys=True).encode()
        out["summary"] = hashlib.sha256(text).hexdigest()[:20]
    return out


class _Checker:
    def __init__(self) -> None:
        with open(os.path.join(harness.BENCH_DIR, "expected_suite.json"),
                  encoding="utf-8") as handle:
            self.expected = json.load(handle)
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, label: str, outdir: str, code: int) -> None:
        got = _outputs(outdir)
        for name, want in self.expected.items():
            self.attempted += 1
            if code:
                self.failures.append(f"{label}: run_all exited {code}")
            elif got.get(name) != want:
                self.failures.append(f"{label} {name}: digest "
                                     f"{got.get(name)} != expected {want}")


def _journal_seconds(outdir: str) -> Dict[object, float]:
    """Worker seconds per completed planned point, from the journal."""
    from repro.experiments.runner import RunKey
    path = os.path.join(outdir, ".runjournal", "run_all.jsonl")
    seconds: Dict[object, float] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("event") == "run" and record.get("state") == "done":
                fields = dict(record["key"])
                fields["overrides"] = tuple(tuple(pair) for pair in
                                            fields["overrides"])
                seconds[RunKey(**fields)] = record["seconds"]
    return seconds


def _suite_layers(outdir: str, agg) -> Dict[str, float]:
    from repro.experiments.plans import PLANNERS, plan_for
    totals = agg["totals"]
    journal = _journal_seconds(outdir)
    attributed: Dict[str, float] = {}
    claimed = set()
    for name in SUITE_EXPERIMENTS:
        own = [k for k in plan_for([name]) if k not in claimed]
        claimed.update(own)
        attributed[name] = sum(journal.get(k, 0.0) for k in own)
    values = {}
    for name in SUITE_EXPERIMENTS:
        parent = totals.get(f"suite.exp.{name}", (0, 0.0, 0.0))[1]
        values[f"suite.{name}.s"] = parent + attributed[name]
    values["suite.serial_s"] = sum(
        totals.get(f"suite.exp.{name}", (0, 0.0, 0.0))[1]
        for name in SUITE_EXPERIMENTS if name not in PLANNERS)
    pool_wall = totals.get("suite.supervise", (0, 0.0, 0.0))[1]
    values["suite.pool_busy_frac"] = (sum(journal.values())
                                      / (JOBS * pool_wall)
                                      if pool_wall else 0.0)
    return values


def run(seed: int, seconds: float, trace: bool) -> None:
    checker = _Checker()
    setups = [_setup() for _ in range(SETUP_REPEATS)]
    colds = []
    deadline = time.perf_counter() + seconds
    while not colds or (time.perf_counter() < deadline and not trace):
        outdir = harness.fresh_dir("suite_cold", "out")
        wall, cpu, code = _invoke(outdir)
        checker.check("cold", outdir, code)
        colds.append((wall, cpu))
    details = {"seed_varies_nothing": True, "setup_runs": setups,
               "cold_runs": colds}
    if not trace:
        warm_wall, _, code = _invoke(outdir)
        checker.check("warm", outdir, code)
        details["warm_run"] = warm_wall
        values = {"setup_s": harness.median(setups),
                  "wall_s": harness.median(w for w, _ in colds),
                  "cpu_s": harness.median(c for _, c in colds),
                  "peak_rss_mb": harness.peak_rss_mb(),
                  "warm_wall_s": warm_wall}
        result_metrics = harness.end_to_end(values)
    else:
        result_metrics = layer_metrics.per_layer(
            _traced(colds[0][0], checker, details))
    harness.failures_summary(checker.failures)
    harness.emit("suite_cold", seed, trace, not checker.failures,
                 max(1, checker.attempted), len(checker.failures),
                 result_metrics, dict(details, failures=checker.failures))


def _traced(untraced_wall: float, checker: _Checker, details) -> Dict[str, float]:
    outdir = harness.fresh_dir("suite_cold", "traced")
    cold_dir = harness.fresh_dir("suite_cold", "spans-cold")
    warm_dir = harness.fresh_dir("suite_cold", "spans-warm")
    traced_wall, _, code = _invoke(outdir, cold_dir)
    checker.check("traced cold", outdir, code)
    cold = merge_snapshots(load_snapshots(cold_dir))
    suite = _suite_layers(outdir, cold)
    _, _, code = _invoke(outdir, warm_dir)
    checker.check("traced warm", outdir, code)
    agg = merge_snapshots(load_snapshots(cold_dir)
                          + load_snapshots(warm_dir))
    checker.failures.extend(layer_metrics.cross_check(agg))
    checker.attempted += 1
    values = layer_metrics.from_aggregate(agg)
    values.update(suite)
    values["trace_overhead_frac"] = traced_wall / untraced_wall - 1.0
    values["failed_frac"] = len(checker.failures) / max(1, checker.attempted)
    details.update(untraced_wall=untraced_wall, traced_wall=traced_wall,
                   processes=len(load_snapshots(cold_dir)))
    return values
