"""Workload ``serve_mix``: ``repro serve --workers 2`` on a cold output
directory, driven by one client process over two closed-loop
connections with a seeded zipfian stream of small ``/simulate``
requests (see :mod:`draws`).

* set-up (``setup_s``): server start until its readiness line.
* timed phase (``wall_s``, ``cpu_s``): the stream against the cold
  server (empty run cache).  CPU is the server process tree's.
  Three servers, each on its own empty directory, are started and
  timed per run; the medians are reported.
* ``peak_rss_mb``: the server process tree's own, the sum of the
  master's and workers' ``VmHWM`` read just before each server is
  stopped; the largest over the servers of a run.  The client and the
  direct check after the timed phase are not in it.
* warm phase (``warm_wall_s``): the same stream again on the last
  server, every point now in the run cache; at least ten passes and
  until ``--seconds`` have passed, median reported.
* traced run (``--trace 1``): the untraced flow gives the serving
  metrics (rate, latency median and tail, ``/metrics`` counters
  scraped from every worker); a second server started through
  :mod:`launch` replays the cold stream for the per-layer spans.

A response fails if it is not 2xx, or if its cycles differ from a
direct ``simulate_run_key`` of the same point (checked after the timed
phase) or from the cold pass's answer.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import Dict, List, Optional, Tuple

import harness
import metrics as layer_metrics
from draws import draw_serve_stream
from tracing import load_snapshots, merge_snapshots

#: Servers started per run: each is timed to readiness (set-up) and
#: serves the stream cold once (timed phase); medians are reported.
COLD_SERVERS = 3
MIN_WARM_PASSES = 10
CONNECTIONS = 2
WORKERS = 2
READY_TIMEOUT = 60
REQUEST_TIMEOUT = 120


class Server:
    """One ``repro serve`` process tree on a free port."""

    def __init__(self, outdir: str, trace_dir: Optional[str] = None) -> None:
        args = ["--port", "0", "--workers", str(WORKERS),
                "--outdir", outdir]
        env = harness.repro_env()
        if trace_dir is None:
            cmd = [sys.executable, "-m", "repro", "serve", *args]
        else:
            env["PERFBENCH_TRACE_DIR"] = trace_dir
            cmd = [sys.executable, os.path.join(harness.BENCH_DIR,
                                                "launch.py"),
                   "serve", *args]
        self._ready = threading.Event()
        self.port: Optional[int] = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, cwd=harness.ROOT,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True,
                                     start_new_session=True)
        # The pump reads stderr to the end, so the server never blocks
        # on a full pipe and a silent server cannot stall the wait.
        self._pump = threading.Thread(target=self._pump_stderr,
                                      daemon=True)
        self._pump.start()
        if not self._ready.wait(READY_TIMEOUT) or self.port is None:
            self.stop()
            raise RuntimeError("server printed no readiness line within "
                               f"{READY_TIMEOUT} s")
        self.ready_s = self._ready_at - start

    def _pump_stderr(self) -> None:
        for line in self.proc.stderr:
            if self.port is None:
                match = re.search(r"listening on http://[^:]+:(\d+)", line)
                if match:
                    self._ready_at = time.perf_counter()
                    self.port = int(match.group(1))
                    self._ready.set()
        self._ready.set()

    def stop(self) -> int:
        """SIGTERM the master and wait until it and every worker it
        forked have ended."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(self.proc.pid, signal.SIGKILL)
            code = self.proc.wait()
        # Workers of a master that died abnormally must not outlive it.
        harness.end_group(self.proc.pid, grace=0.0)
        self._pump.join(timeout=READY_TIMEOUT)
        return code

    def post(self, body: dict) -> Tuple[int, dict]:
        req = urllib.request.Request(
            f"http://127.0.0.1:{self.port}/simulate",
            data=json.dumps(body).encode(), method="POST",
            headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=REQUEST_TIMEOUT) as r:
                return r.status, json.loads(r.read())
        except urllib.error.HTTPError as exc:
            return exc.code, {}

    def scrape(self) -> Dict[int, Dict[str, float]]:
        """``/metrics`` of every worker (keyed by ``repro_worker_index``),
        scraping until each has answered at least once or 100 scrapes
        have been made; the caller checks that all answered."""
        seen: Dict[int, Dict[str, float]] = {}
        for _ in range(100):
            url = f"http://127.0.0.1:{self.port}/metrics"
            with urllib.request.urlopen(url, timeout=30) as response:
                text = response.read().decode()
            sample: Dict[str, float] = {}
            for line in text.splitlines():
                match = re.match(r"(repro_\w+?)(?:\{[^}]*\})? (\S+)$", line)
                if match:
                    name = match.group(1)
                    sample[name] = sample.get(name, 0.0) + \
                        float(match.group(2))
            seen[int(sample.get("repro_worker_index", 0))] = sample
            if len(seen) >= WORKERS:
                break
        return seen


def _drive(server: Server, stream: List[dict]) -> Dict[str, object]:
    """Send the stream over closed-loop connections; per-request
    ``(latency, status, body)`` in stream order, and the wall time."""
    results: List[Optional[Tuple[float, int, dict]]] = [None] * len(stream)
    cursor = iter(range(len(stream)))
    lock = threading.Lock()

    def connection() -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            t0 = time.perf_counter()
            try:
                status, body = server.post(stream[index])
            except OSError as exc:
                status, body = 0, {"error": str(exc)}
            results[index] = (time.perf_counter() - t0, status, body)

    start = time.perf_counter()
    threads = [threading.Thread(target=connection)
               for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return {"wall": time.perf_counter() - start, "results": results}


def _run_key(body: dict):
    from repro.experiments.runner import RunKey
    return RunKey(body["design"], body["workload"], body["size"],
                  body.get("llc_mb", 1.0), False, "default", 0,
                  tuple(sorted(body.get("overrides", {}).items())))


def _direct_cycles(body_json: str) -> Tuple[str, int]:
    from repro.experiments.runner import simulate_run_key
    return body_json, simulate_run_key(_run_key(json.loads(body_json))).cycles


class _Checker:
    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.answers: Dict[str, int] = {}

    def responses(self, label: str, stream, drive) -> None:
        for body, (_, status, reply) in zip(stream, drive["results"]):
            self.attempted += 1
            ident = json.dumps(body, sort_keys=True)
            if not 200 <= status < 300 or "cycles" not in reply:
                self.failures.append(f"{label} {ident}: status {status}")
                continue
            first = self.answers.setdefault(ident, reply["cycles"])
            if first != reply["cycles"]:
                self.failures.append(f"{label} {ident}: cycles "
                                     f"{reply['cycles']} != {first}")

    def direct(self) -> None:
        """Every distinct point against a direct simulation."""
        # Fork, not spawn: a spawn pool starts a resource-tracker
        # process that outlives the benchmark.  Every server and
        # connection thread has ended by now, so forking is safe.
        # Leaving the block terminates the pool and joins its workers.
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(CONNECTIONS) as pool:
            direct = dict(pool.map(_direct_cycles, sorted(self.answers)))
        for ident, cycles in self.answers.items():
            if direct[ident] != cycles:
                self.failures.append(f"direct {ident}: served {cycles} "
                                     f"!= simulate_run_key "
                                     f"{direct[ident]}")


def _serve_values(drives, scraped, n_requests: int):
    """Serving metrics of the cold passes (latencies pooled over all of
    them) and the last server's ``/metrics``."""
    latencies = [lat for drive in drives for lat, _, _ in drive["results"]]
    wall = harness.median(drive["wall"] for drive in drives)
    pct, tail_value, count = harness.tail(latencies)

    def total(name):
        return sum(sample.get(name, 0.0) for sample in scraped.values())

    def stage_mean(stage):
        count_ = total(f"repro_stage_{stage}_seconds_count")
        return total(f"repro_stage_{stage}_seconds_sum") / count_ \
            if count_ else 0.0

    return {"serve_req_per_s": n_requests / wall,
            "serve_latency_ms_p50": 1000 * harness.median(latencies),
            "serve_latency_ms_tail": 1000 * tail_value,
            "serve.stage.queue_wait_s.mean": stage_mean("queue_wait"),
            "serve.stage.simulate_s.mean": stage_mean("simulate"),
            "serve.stage.total_s.mean": stage_mean("total"),
            "serve.simulated": total("repro_simulated_total"),
            "serve.cache_hits": total("repro_cache_hits_total"),
            "serve.coalesced": total("repro_coalesced_total"),
            "serve.cross_coalesced": total("repro_cross_coalesced_total"),
            "serve.rejected": total("repro_rejected_total"),
            "serve.batches": total("repro_batches_total"),
            "serve.hit_frac": total("repro_cache_hits_total")
            / n_requests}, {"tail_percentile": pct, "tail_samples": count}


def run(seed: int, seconds: float, trace: bool) -> None:
    stream = draw_serve_stream(seed)
    checker = _Checker()
    setups, colds, cpus, rss, stops = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    for index in range(COLD_SERVERS):
        server = Server(harness.fresh_dir("serve_mix", f"out{index}"))
        setups.append(server.ready_s)
        try:
            cpu0 = harness.tree_cpu_s(server.proc.pid)
            cold = _drive(server, stream)
            cpus.append(harness.tree_cpu_s(server.proc.pid) - cpu0)
            colds.append(cold)
            checker.responses("cold", stream, cold)
            if index + 1 == COLD_SERVERS:
                scraped = server.scrape()
                if len(scraped) < WORKERS:
                    checker.failures.append(
                        f"/metrics answered by workers {sorted(scraped)} "
                        f"of {WORKERS}")
                warms = []
                while len(warms) < MIN_WARM_PASSES \
                        or time.perf_counter() < deadline:
                    warm = _drive(server, stream)
                    checker.responses("warm", stream, warm)
                    warms.append(warm["wall"])
        finally:
            rss.append(harness.tree_peak_rss_mb(server.proc.pid))
            stop_start = time.perf_counter()
            code = server.stop()
            stops.append(time.perf_counter() - stop_start)
        if code:
            checker.failures.append(f"server exited {code} after SIGTERM")
    check_start = time.perf_counter()
    checker.direct()
    details = {"requests": len(stream), "distinct": len(checker.answers),
               "setup_runs": setups, "cold_runs": [c["wall"] for c in colds],
               "cold_cpu": cpus, "warm_runs": warms, "server_rss_mb": rss,
               "stop_s": stops,
               "direct_check_s": time.perf_counter() - check_start}
    if not trace:
        values = {"setup_s": harness.median(setups),
                  "wall_s": harness.median(c["wall"] for c in colds),
                  "cpu_s": harness.median(cpus),
                  "peak_rss_mb": max(rss),
                  "warm_wall_s": harness.median(warms)}
        result_metrics = harness.end_to_end(values)
    else:
        values, extra = _serve_values(colds, scraped, len(stream))
        details.update(extra)
        values.update(_traced(stream,
                              harness.median(c["wall"] for c in colds),
                              checker, details))
        result_metrics = layer_metrics.per_layer(values)
    harness.failures_summary(checker.failures)
    harness.emit("serve_mix", seed, trace, not checker.failures,
                 max(1, checker.attempted), len(checker.failures),
                 result_metrics, dict(details, failures=checker.failures))


def _traced(stream, untraced_wall: float, checker: _Checker,
            details) -> Dict[str, float]:
    span_dir = harness.fresh_dir("serve_mix", "spans")
    server = Server(harness.fresh_dir("serve_mix", "traced"), span_dir)
    try:
        traced = _drive(server, stream)
        checker.responses("traced", stream, traced)
    finally:
        code = server.stop()
    if code:
        checker.failures.append(f"traced server exited {code}")
    agg = merge_snapshots(load_snapshots(span_dir))
    checker.failures.extend(layer_metrics.cross_check(agg))
    checker.attempted += 1
    values = layer_metrics.from_aggregate(agg)
    values["trace_overhead_frac"] = traced["wall"] / untraced_wall - 1.0
    values["failed_frac"] = len(checker.failures) / max(1, checker.attempted)
    details.update(untraced_wall=untraced_wall, traced_wall=traced["wall"],
                   processes=len(load_snapshots(span_dir)))
    return values
