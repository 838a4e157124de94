"""Fault-tolerant supervision for the experiment engine.

The scheduler in :mod:`repro.experiments.runner` fans a sweep's
deduplicated simulation points out over a ``multiprocessing`` pool —
fast, but brittle: one OOM-killed worker lost the whole ``run_all``,
a hung worker stalled it forever, and Ctrl-C ended in a traceback
storm with no record of what had finished.  The :class:`Supervisor`
wraps pool dispatch with the machinery a multi-hour campaign needs:

* **per-run wall-clock timeouts** and **heartbeat monitoring** — each
  supervised worker touches a per-run heartbeat file from a daemon
  thread; a run whose heartbeat goes stale (crashed or wedged worker)
  or whose deadline passes gets its pool torn down and is retried,
  while innocently terminated neighbors are requeued without losing
  retry budget;
* **capped exponential-backoff retries**, classifying failures as
  transient or permanent via :func:`repro.common.errors.classify_error`
  — deterministic simulator errors fail fast, environmental ones get
  ``max_retries`` more chances;
* **graceful degradation** — if the pool cannot be (re)created the
  sweep continues in-process, serially, rather than dying;
* an **append-only journal** (``OUTDIR/.runjournal/<suite>.jsonl``)
  recording every run's lifecycle (``pending → running →
  done/failed/skipped``), so an interrupted sweep resumes from where
  it stopped (``--resume``) and ``repro journal`` can show exactly
  what a dead sweep was doing;
* **clean interruption** — SIGINT/SIGTERM terminate the pool, flush
  the journal, and surface as :class:`SweepInterrupted` (CLI exit
  130) instead of a multiprocessing traceback storm.

Results flow through the same :class:`ExperimentRunner` memo and
persistent cache as unsupervised runs, so supervised, serial, and
resumed sweeps all produce bit-identical statistics.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..common.errors import (
    PoolBroken,
    RunTimeout,
    SweepFailed,
    SweepInterrupted,
    WorkerHang,
    classify_error,
)
from ..common.profile_util import maybe_profile_worker
from ..core.simulator import ensure_trace
from . import faults
from .runner import (
    ExperimentRunner,
    RunKey,
    cache_key,
    simulate_run_key,
    trace_key_for,
)

#: Journal directory, relative to an experiment output directory.
JOURNAL_DIRNAME = ".runjournal"

#: Bump when the journal line schema changes; old lines are skipped on
#: replay rather than misread (same contract as the caches).
JOURNAL_FORMAT_VERSION = 1

#: Run lifecycle states recorded in the journal.
RUN_STATES = ("pending", "running", "done", "failed", "skipped",
              "requeued")


# -- journal ------------------------------------------------------------------


@dataclass
class JournalState:
    """The replayed view of one suite's journal."""

    #: Latest lifecycle state per cache key.
    states: Dict[str, str] = field(default_factory=dict)
    #: Highest attempt number seen per cache key.
    attempts: Dict[str, int] = field(default_factory=dict)
    #: Last known :class:`RunKey` fields per cache key.
    keys: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Last recorded error string per cache key.
    errors: Dict[str, str] = field(default_factory=dict)
    #: Journal lines that were unparseable (torn writes, garbage).
    corrupt_lines: int = 0
    #: Parseable events replayed.
    events: int = 0
    #: True when the last sweep event was an interruption.
    interrupted: bool = False

    def counts(self) -> Dict[str, int]:
        """Number of keys currently in each lifecycle state."""
        out: Dict[str, int] = {}
        for state in self.states.values():
            out[state] = out.get(state, 0) + 1
        return out

    def in_state(self, state: str) -> List[str]:
        return [ck for ck, st in self.states.items() if st == state]


class RunJournal:
    """Append-only JSONL journal of a sweep's run lifecycles.

    One line per event, flushed as written so a crash loses at most
    the line being written; replay (:meth:`replay`) tolerates torn,
    truncated, or garbage lines by skipping them — a journal can never
    fail to load.
    """

    def __init__(self, path: str) -> None:
        self._path = path
        self._handle = None

    @classmethod
    def for_suite(cls, outdir: str, suite: str) -> "RunJournal":
        return cls(os.path.join(outdir, JOURNAL_DIRNAME,
                                f"{suite}.jsonl"))

    @property
    def path(self) -> str:
        return self._path

    @property
    def suite(self) -> str:
        name = os.path.basename(self._path)
        return name[:-len(".jsonl")] if name.endswith(".jsonl") else name

    def append(self, record: Dict[str, Any]) -> None:
        if self._handle is None:
            os.makedirs(os.path.dirname(self._path) or ".",
                        exist_ok=True)
            self._handle = open(self._path, "a", encoding="utf-8")
        record = dict(record, v=JOURNAL_FORMAT_VERSION,
                      t=round(time.time(), 3))
        self._handle.write(json.dumps(record, sort_keys=True,
                                      default=str) + "\n")
        self._handle.flush()

    def record_event(self, event: str, **fields: Any) -> None:
        self.append(dict(fields, event=event))

    def record_run(self, key: RunKey, ck: str, state: str,
                   attempt: int = 0, **fields: Any) -> None:
        self.append(dict(fields, event="run", ck=ck, state=state,
                         attempt=attempt, key=dataclasses.asdict(key)))

    def flush(self) -> None:
        if self._handle is not None:
            self._handle.flush()
            try:
                os.fsync(self._handle.fileno())
            except OSError:
                pass

    def close(self) -> None:
        if self._handle is not None:
            self.flush()
            self._handle.close()
            self._handle = None

    def exists(self) -> bool:
        return os.path.exists(self._path)

    def replay(self) -> JournalState:
        return replay_journal(self._path)


def replay_journal(path: str) -> JournalState:
    """Replay a journal file into its latest per-run states.

    Never raises on malformed content: unparseable or unrecognized
    lines (including a torn final line from a crashed writer) are
    counted in :attr:`JournalState.corrupt_lines` and skipped.
    """
    state = JournalState()
    try:
        handle = open(path, "r", encoding="utf-8", errors="replace")
    except OSError:
        return state
    with handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                state.corrupt_lines += 1
                continue
            if not isinstance(record, dict) \
                    or record.get("v") != JOURNAL_FORMAT_VERSION:
                state.corrupt_lines += 1
                continue
            state.events += 1
            event = record.get("event")
            if event == "run":
                ck = record.get("ck")
                run_state = record.get("state")
                if not isinstance(ck, str) \
                        or run_state not in RUN_STATES:
                    continue
                state.states[ck] = run_state
                attempt = record.get("attempt")
                if isinstance(attempt, int):
                    state.attempts[ck] = max(
                        state.attempts.get(ck, 0), attempt)
                key = record.get("key")
                if isinstance(key, dict):
                    state.keys[ck] = key
                error = record.get("error")
                if isinstance(error, str):
                    state.errors[ck] = error
            elif event == "sweep_interrupted":
                state.interrupted = True
            elif event in ("sweep_start", "sweep_end"):
                state.interrupted = False
    return state


# -- retry policy -------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff for transient failures."""

    #: Maximum number of *retries* (re-dispatches beyond the first
    #: attempt) per run; a run is attempted at most ``max_retries + 1``
    #: times.
    max_retries: int = 2
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    backoff_cap: float = 30.0

    def delay(self, attempt: int) -> float:
        """Backoff before re-dispatching after failed attempt N (1-based)."""
        if attempt < 1:
            return 0.0
        return min(self.backoff_cap,
                   self.backoff_base
                   * self.backoff_factor ** (attempt - 1))


# -- report -------------------------------------------------------------------


@dataclass
class SweepReport:
    """What a supervised sweep did, for callers and exit codes."""

    total: int = 0
    from_cache: int = 0
    resumed: int = 0
    simulated: int = 0
    retries: int = 0
    requeued: int = 0
    failed: List[Tuple[RunKey, str]] = field(default_factory=list)
    interrupted: bool = False
    degraded_serial: bool = False
    #: Worker seconds of every point this sweep simulated.
    seconds: Dict[RunKey, float] = field(default_factory=dict)

    @property
    def completed(self) -> int:
        return self.from_cache + self.simulated

    def describe(self) -> str:
        text = (f"{self.completed}/{self.total} points "
                f"({self.from_cache} cached, {self.simulated} "
                f"simulated, {self.retries} retries)")
        if self.resumed:
            text += f", {self.resumed} resumed from journal"
        if self.failed:
            text += f", {len(self.failed)} FAILED"
        if self.interrupted:
            text += ", interrupted"
        if self.degraded_serial:
            text += ", degraded to serial"
        return text


# -- worker side --------------------------------------------------------------


def _worker_init(fault_spec: Optional[str]) -> None:
    """Pool-worker initializer: quiet signals, arm fault injection.

    Workers ignore SIGINT so a Ctrl-C in the parent does not unleash
    one KeyboardInterrupt traceback per worker; the supervisor's
    handler terminates the pool deliberately instead.  The fault spec
    is re-armed explicitly so non-fork start methods inject too.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    if fault_spec:
        faults.arm(faults.parse_spec(fault_spec))
    else:
        faults.arm(None)


def _touch(path: str) -> None:
    with open(path, "a"):
        os.utime(path, None)


def _supervised_entry(key: RunKey, ck: str, attempt: int,
                      hb_dir: str, hb_interval: float) \
        -> Tuple[str, Any, float, int]:
    """Worker-side wrapper: heartbeat + fault sites around one run."""
    hb_path = os.path.join(hb_dir, ck + ".hb")
    stop = threading.Event()
    _touch(hb_path)

    def beat() -> None:
        while not stop.wait(hb_interval):
            try:
                _touch(hb_path)
            except OSError:
                return

    thread = threading.Thread(target=beat, daemon=True,
                              name=f"heartbeat-{ck[:8]}")
    thread.start()
    token = f"{ck}:{attempt}"
    try:
        faults.maybe_crash_worker(token)
        faults.maybe_hang_worker(token, stall=stop)
        started = time.time()
        with maybe_profile_worker():
            result = simulate_run_key(key)
        return ck, result, time.time() - started, os.getpid()
    finally:
        stop.set()


# -- supervisor ---------------------------------------------------------------


class _Task:
    """Parent-side bookkeeping for one dispatched run."""

    __slots__ = ("key", "ck", "attempt", "result", "dispatched")

    def __init__(self, key: RunKey, ck: str, attempt: int,
                 result: Any, dispatched: float) -> None:
        self.key = key
        self.ck = ck
        self.attempt = attempt
        self.result = result
        self.dispatched = dispatched


class Supervisor:
    """Fault-tolerant dispatch of a run plan over an
    :class:`ExperimentRunner`.

    Args:
        runner: provides the memo, the persistent cache, worker count
            (``runner.jobs``), and verbose logging.
        journal: lifecycle journal; ``None`` supervises without one.
        policy: retry/backoff knobs (:class:`RetryPolicy`).
        run_timeout: per-run wall-clock budget in seconds (pool mode
            only — a serial in-process run cannot be killed safely);
            ``None`` disables the deadline.
        heartbeat_interval: how often workers touch their heartbeat
            file.
        heartbeat_timeout: how long a dispatched run may go without a
            heartbeat before its worker is declared dead or hung.
        poll_interval: parent poll cadence.
        resume: replay the journal first and report previously
            completed points as resumed (their results come from the
            persistent run cache as usual).
        fault_plan: arm deterministic fault injection for this sweep
            (also inherited by pool workers).
        handle_signals: install SIGINT/SIGTERM handlers around
            :meth:`supervise` (the CLI default).  The simulation
            service supervises batches from a worker thread and owns
            signal handling itself, so it passes ``False`` — the
            handlers would be silently skipped off the main thread
            anyway, but being explicit keeps the lifecycle deliberate.
        sleep/clock: injectable timing for tests.
    """

    def __init__(self, runner: ExperimentRunner,
                 journal: Optional[RunJournal] = None,
                 policy: Optional[RetryPolicy] = None,
                 run_timeout: Optional[float] = None,
                 heartbeat_interval: float = 1.0,
                 heartbeat_timeout: float = 15.0,
                 poll_interval: float = 0.05,
                 resume: bool = False,
                 fault_plan: Optional[faults.FaultPlan] = None,
                 handle_signals: bool = True,
                 sleep=time.sleep,
                 clock=time.time) -> None:
        self._runner = runner
        self._journal = journal
        self._policy = policy or RetryPolicy()
        self._run_timeout = run_timeout
        self._hb_interval = heartbeat_interval
        self._hb_timeout = heartbeat_timeout
        self._poll = poll_interval
        self._resume = resume
        self._handle_signals = handle_signals
        self._sleep = sleep
        self._clock = clock
        self._stop_signal: Optional[int] = None
        if fault_plan is not None:
            faults.arm(fault_plan)

    # -- public API ----------------------------------------------------------

    @property
    def journal(self) -> Optional[RunJournal]:
        return self._journal

    def request_stop(self, signum: int = signal.SIGINT) -> None:
        """Ask the sweep to stop at the next poll (signal-handler safe)."""
        self._stop_signal = signum

    def supervise(self, keys: Iterable[RunKey],
                  strict: bool = True) -> SweepReport:
        """Run every key to completion, retrying transient failures.

        Returns the :class:`SweepReport`; raises
        :class:`SweepInterrupted` on SIGINT/SIGTERM (journal flushed
        first) and, when ``strict``, :class:`SweepFailed` if any point
        exhausted its retries or failed permanently.
        """
        plan = list(dict.fromkeys(keys))
        report = SweepReport(total=len(plan))
        prior = JournalState()
        if self._resume and self._journal is not None \
                and self._journal.exists():
            prior = self._journal.replay()
        self._journal_event("sweep_start", plan=len(plan),
                            resume=self._resume)
        queue: List[Tuple[float, str, RunKey]] = []
        attempts: Dict[str, int] = {}
        now = self._clock()
        for key in plan:
            ck = cache_key(key)
            result = self._runner.lookup(key)
            if result is not None:
                report.from_cache += 1
                if prior.states.get(ck) == "done":
                    report.resumed += 1
                self._journal_run(key, ck, "skipped",
                                  reason="cached")
                continue
            attempts[ck] = 0
            self._journal_run(key, ck, "pending")
            queue.append((now, ck, key))
        self._stop_signal = None
        old_handlers = self._install_handlers()
        try:
            if queue:
                if self._runner.jobs > 1 and len(queue) > 1:
                    try:
                        self._run_pool(queue, attempts, report)
                    except PoolBroken as exc:
                        report.degraded_serial = True
                        self._journal_event("pool_degraded",
                                            error=str(exc))
                        self._log(f"pool unavailable ({exc}); "
                                  f"continuing serially")
                        self._run_serial(queue, attempts, report)
                else:
                    self._run_serial(queue, attempts, report)
        finally:
            self._restore_handlers(old_handlers)
            report.interrupted = self._stop_signal is not None
            if report.interrupted:
                self._journal_event("sweep_interrupted",
                                    signal=self._stop_signal)
            else:
                self._journal_event(
                    "sweep_end", completed=report.completed,
                    simulated=report.simulated,
                    failed=len(report.failed),
                    retries=report.retries)
            if self._journal is not None:
                self._journal.flush()
        if report.interrupted:
            raise SweepInterrupted(
                f"sweep interrupted by signal {self._stop_signal} "
                f"({report.describe()})", report=report)
        if strict and report.failed:
            raise SweepFailed(
                f"{len(report.failed)} point(s) failed permanently "
                f"({report.describe()})", report=report)
        return report

    # -- signal handling ------------------------------------------------------

    def _install_handlers(self):
        handlers = {}
        if not self._handle_signals:
            return handlers
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                handlers[signum] = signal.signal(
                    signum, self._handle_signal)
            except ValueError:  # not the main thread
                pass
        return handlers

    def _restore_handlers(self, handlers) -> None:
        for signum, old in handlers.items():
            try:
                signal.signal(signum, old)
            except ValueError:  # pragma: no cover
                pass

    def _handle_signal(self, signum, _frame) -> None:
        self.request_stop(signum)

    # -- serial path ----------------------------------------------------------

    def _run_serial(self, queue: List[Tuple[float, str, RunKey]],
                    attempts: Dict[str, int],
                    report: SweepReport) -> None:
        """In-process execution: no pool, no kill-based timeouts.

        The crash/hang fault sites live in the pool worker wrapper, so
        a degraded sweep injects only cache corruption; per-run
        timeouts are not enforced (an in-process run cannot be killed
        without taking the sweep down with it).
        """
        while queue and self._stop_signal is None:
            queue.sort(key=lambda item: item[0])
            ready_at, ck, key = queue[0]
            now = self._clock()
            if ready_at > now:
                self._sleep(min(self._poll, ready_at - now))
                continue
            queue.pop(0)
            attempts[ck] += 1
            self._journal_run(key, ck, "running",
                              attempt=attempts[ck], mode="serial")
            started = self._clock()
            try:
                result = simulate_run_key(key)
            except Exception as exc:  # noqa: BLE001 - classified below
                self._handle_failure(key, ck, exc, attempts, queue,
                                     report)
                continue
            self._complete(key, ck, result,
                           self._clock() - started, attempts[ck],
                           report)

    # -- pool path ------------------------------------------------------------

    def _make_pool(self, workers: int, fault_spec: Optional[str]):
        """A worker pool, or :class:`PoolBroken` if one cannot start."""
        try:
            try:
                ctx = multiprocessing.get_context("fork")
            except ValueError:  # pragma: no cover - non-POSIX
                ctx = multiprocessing.get_context()
            return ctx.Pool(processes=workers,
                            initializer=_worker_init,
                            initargs=(fault_spec,))
        except PoolBroken:
            raise
        except Exception as exc:
            raise PoolBroken(f"cannot create worker pool: {exc}") \
                from exc

    def _run_pool(self, queue: List[Tuple[float, str, RunKey]],
                  attempts: Dict[str, int],
                  report: SweepReport) -> None:
        # Materialize every distinct trace in the parent before
        # forking (same copy-on-write strategy as the unsupervised
        # scheduler).
        for workload, size, dims in dict.fromkeys(
                trace_key_for(key) for _, _, key in queue):
            ensure_trace(workload, size, dims)
        workers = min(self._runner.jobs, len(queue))
        plan = faults.active_plan()
        fault_spec = plan.spec() if plan is not None else None
        hb_dir = tempfile.mkdtemp(prefix="repro-heartbeats-")
        pool = self._make_pool(workers, fault_spec)
        outstanding: Dict[str, _Task] = {}
        try:
            while (queue or outstanding) \
                    and self._stop_signal is None:
                now = self._clock()
                # Dispatch up to the worker count so a queued-but-
                # unstarted task is never mistaken for a hung one.
                queue.sort(key=lambda item: item[0])
                while queue and len(outstanding) < workers \
                        and queue[0][0] <= now:
                    _, ck, key = queue.pop(0)
                    attempts[ck] += 1
                    self._journal_run(key, ck, "running",
                                      attempt=attempts[ck],
                                      mode="pool")
                    self._clear_heartbeat(hb_dir, ck)
                    handle = pool.apply_async(
                        _supervised_entry,
                        (key, ck, attempts[ck], hb_dir,
                         self._hb_interval))
                    outstanding[ck] = _Task(key, ck, attempts[ck],
                                            handle, now)
                # Reap finished tasks first, then look for stragglers.
                for ck in [ck for ck, task in outstanding.items()
                           if task.result.ready()]:
                    task = outstanding.pop(ck)
                    try:
                        _, result, seconds, _pid = task.result.get()
                    except Exception as exc:  # noqa: BLE001
                        self._handle_failure(task.key, ck, exc,
                                             attempts, queue, report)
                        continue
                    self._complete(task.key, ck, result, seconds,
                                   task.attempt, report)
                culprit = self._find_straggler(outstanding, hb_dir,
                                               now)
                if culprit is not None:
                    pool = self._reap_straggler(
                        pool, culprit, outstanding, attempts, queue,
                        report, hb_dir, workers, fault_spec)
                    continue
                if queue or outstanding:
                    self._sleep(self._poll)
        finally:
            if self._stop_signal is not None:
                pool.terminate()
            else:
                pool.close()
            pool.join()
            shutil.rmtree(hb_dir, ignore_errors=True)

    def _find_straggler(self, outstanding: Dict[str, _Task],
                        hb_dir: str, now: float) -> Optional[str]:
        """The cache key of a timed-out or heartbeat-dead task, if any."""
        for ck, task in outstanding.items():
            if self._run_timeout is not None \
                    and now - task.dispatched > self._run_timeout:
                return ck
            last = task.dispatched
            try:
                last = max(last, os.path.getmtime(
                    os.path.join(hb_dir, ck + ".hb")))
            except OSError:
                pass
            if now - last > self._hb_timeout:
                return ck
        return None

    def _reap_straggler(self, pool, culprit: str,
                        outstanding: Dict[str, _Task],
                        attempts: Dict[str, int],
                        queue: List[Tuple[float, str, RunKey]],
                        report: SweepReport, hb_dir: str,
                        workers: int, fault_spec: Optional[str]):
        """Tear down the pool around a dead/hung run; requeue the rest.

        The culprit is charged a (transient) failed attempt; innocent
        casualties of the terminate are requeued without losing
        budget.  Returns the replacement pool (raises
        :class:`PoolBroken` if one cannot be made — the caller then
        degrades to serial execution with the queue intact).
        """
        task = outstanding.pop(culprit)
        now = self._clock()
        if self._run_timeout is not None \
                and now - task.dispatched > self._run_timeout:
            exc: Exception = RunTimeout(
                f"run exceeded {self._run_timeout:.1f}s wall-clock "
                f"budget")
        else:
            exc = WorkerHang(
                f"no heartbeat for {self._hb_timeout:.1f}s "
                f"(worker dead or wedged)")
        pool.terminate()
        pool.join()
        for other in list(outstanding.values()):
            # Dispatch charged an attempt; hand it back.
            attempts[other.ck] -= 1
            report.requeued += 1
            self._journal_run(other.key, other.ck, "requeued",
                              attempt=other.attempt,
                              reason="pool torn down")
            queue.append((now, other.ck, other.key))
        outstanding.clear()
        self._handle_failure(task.key, culprit, exc, attempts, queue,
                             report)
        self._clear_heartbeat(hb_dir, culprit)
        return self._make_pool(workers, fault_spec)

    @staticmethod
    def _clear_heartbeat(hb_dir: str, ck: str) -> None:
        try:
            os.remove(os.path.join(hb_dir, ck + ".hb"))
        except OSError:
            pass

    # -- shared completion/failure paths --------------------------------------

    def _complete(self, key: RunKey, ck: str, result, seconds: float,
                  attempt: int, report: SweepReport) -> None:
        self._runner.record_result(key, result, seconds=seconds)
        report.simulated += 1
        report.seconds[key] = seconds
        self._journal_run(key, ck, "done", attempt=attempt,
                          seconds=round(seconds, 3))

    def _handle_failure(self, key: RunKey, ck: str, exc: Exception,
                        attempts: Dict[str, int],
                        queue: List[Tuple[float, str, RunKey]],
                        report: SweepReport) -> None:
        kind = classify_error(exc)
        attempt = attempts[ck]
        retrying = (kind == "transient"
                    and attempt <= self._policy.max_retries)
        self._journal_run(key, ck, "failed", attempt=attempt,
                          error=f"{type(exc).__name__}: {exc}",
                          error_class=kind, final=not retrying)
        if retrying:
            delay = self._policy.delay(attempt)
            report.retries += 1
            self._log(f"retrying {key.design}/{key.workload} in "
                      f"{delay:.1f}s (attempt {attempt} failed: "
                      f"{exc})")
            queue.append((self._clock() + delay, ck, key))
        else:
            report.failed.append((key, f"{type(exc).__name__}: "
                                       f"{exc}"))
            self._log(f"giving up on {key.design}/{key.workload} "
                      f"after {attempt} attempt(s): {exc}")

    # -- plumbing -------------------------------------------------------------

    def _journal_run(self, key: RunKey, ck: str, state: str,
                     **fields) -> None:
        if self._journal is not None:
            self._journal.record_run(key, ck, state, **fields)

    def _journal_event(self, event: str, **fields) -> None:
        if self._journal is not None:
            self._journal.record_event(event, **fields)

    def _log(self, message: str) -> None:
        print(f"  [supervisor] {message}", file=sys.stderr)
