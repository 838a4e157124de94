"""Shared plumbing: paths, digests, statistics, host record, output."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in (the parent of this directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Scratch space of every run, inside the checkout (git-ignored).
WORK = os.path.join(ROOT, ".perfbench")

#: ``(name, unit)`` of the end-to-end metrics, as in ``BENCHMARK.json``.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"), ("warm_wall_s", "s"))

#: Percentiles the tail latency is chosen from, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
#: Samples that must lie beyond the reported tail percentile.
TAIL_MIN_BEYOND = 10


def keep_temp_files_inside() -> None:
    """Point this process and its children at a temporary directory
    inside the checkout (the program's supervisors create heartbeat
    directories with :mod:`tempfile`)."""
    path = os.path.join(WORK, "tmp")
    os.makedirs(path, exist_ok=True)
    os.environ["TMPDIR"] = path
    tempfile.tempdir = None


def repro_env() -> Dict[str, str]:
    """Environment for child processes that import ``repro``."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def run_group(cmd: List[str], env: Dict[str, str],
              timeout: float) -> Tuple[int, str]:
    """Run a command in its own process group; on timeout kill the
    whole group (pool workers included) and wait for it."""
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT,
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        end_group(proc.pid)
        return -signal.SIGKILL, err
    end_group(proc.pid)
    return proc.returncode, err


def fresh_dir(*parts: str) -> str:
    path = os.path.join(WORK, *parts)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def result_digest(result) -> str:
    """Digest of a run's ``(cycles, ops, stats.flat())``."""
    payload = repr((result.cycles, result.ops,
                    sorted(result.stats.flat().items())))
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def key_id(key) -> str:
    """Stable text identity of a :class:`RunKey`."""
    overrides = ",".join(f"{k}={v}" for k, v in key.overrides)
    return (f"{key.design}|{key.workload}|{key.size}|{key.llc_mb}"
            f"|{int(key.resident)}|{key.memory}|{key.sample_every}"
            f"|{overrides}")


def load_expected() -> Dict[str, str]:
    with open(os.path.join(BENCH_DIR, "expected_digests.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """``(percentile, value, n)``: the highest percentile with at least
    ``TAIL_MIN_BEYOND`` samples beyond it (the maximum when fewer than
    that many samples exist at all)."""
    ordered = sorted(samples)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        beyond = n - int(n * pct / 100.0)
        if beyond >= TAIL_MIN_BEYOND:
            index = min(n - 1, int(n * pct / 100.0))
            return pct, ordered[index], n
    return 100.0, ordered[-1], n


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for
    descendant (``getrusage`` reports kilobytes on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _proc_tree(root_pid: int) -> Dict[int, List[str]]:
    """``/proc/<pid>/stat`` fields (after the command name) of a live
    process and its live descendants."""
    stats: Dict[int, List[str]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stats[int(entry)] = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
    tree = {root_pid}
    grew = True
    while grew:
        grew = False
        for pid, fields in stats.items():
            if int(fields[1]) in tree and pid not in tree:
                tree.add(pid)
                grew = True
    return {pid: stats[pid] for pid in tree if pid in stats}


def _group_running(pgid: int) -> List[int]:
    """Processes of a process group that are still running (not
    zombies left for their parent to reap)."""
    running = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            running.append(int(entry))
    return running


def end_group(pgid: int, grace: float = 10.0) -> None:
    """Make sure no process of a process group is left running: wait
    ``grace`` seconds for them to end, then SIGKILL the group and wait
    until they have."""
    deadline = time.monotonic() + grace
    while _group_running(pgid):
        if time.monotonic() >= deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            deadline = time.monotonic() + grace
        time.sleep(0.01)


def tree_cpu_s(root_pid: int) -> float:
    """CPU seconds of a live process and its live descendants, read
    from ``/proc`` (includes children they have already waited for)."""
    ticks = os.sysconf("SC_CLK_TCK")
    # utime, stime, cutime, cstime (fields 14-17 of stat).
    return sum(sum(int(f) for f in fields[11:15]) / ticks
               for fields in _proc_tree(root_pid).values())


def tree_peak_rss_mb(root_pid: int) -> float:
    """Sum of the peak resident sets (``VmHWM``) of a live process and
    its live descendants.  Pages a forked child shares with its parent
    count in both."""
    total_kb = 0
    for pid in _proc_tree(root_pid):
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def _commit() -> str:
    """The checkout's commit, read from ``.git`` without running git
    (the benchmark may run in an export that has no repository)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"),
                  encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> Dict[str, object]:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "numpy": numpy_version,
            "commit": _commit(),
            "machine": platform.machine()}


def end_to_end(values: Dict[str, float]) -> Dict[str, dict]:
    """Every end-to-end metric with its unit."""
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def emit(workload: str, seed: int, trace: bool, correct: bool,
         attempted: int, failed: int, metrics: Dict[str, dict],
         details: Optional[dict] = None) -> None:
    """Write the full record under ``.perfbench/results`` and print the
    result line (the last line of standard output)."""
    record = {"workload": workload, "seed": seed, "trace": int(trace),
              "host": host_record(), "details": details or {},
              "correct": correct, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    out_dir = os.path.join(WORK, "results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps({"host": record["host"], "record": path}))
    sys.stdout.flush()
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def failures_summary(failures: List[str]) -> None:
    for line in failures[:20]:
        print(f"perfbench: FAILED: {line}", file=sys.stderr)
