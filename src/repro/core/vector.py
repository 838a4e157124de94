"""Batched, array-vectorized replay over the fused flat-store kernel.

:mod:`repro.core.kernels` (PR 4) retires packed requests one at a time;
this module retires *windows* of them with numpy.  The idea:

* Replay the packed trace in fixed chunks (``CHUNK`` requests).  For
  each chunk, classify every request against the live L1 tag/meta
  arrays with one gather per probe kind: a request is *bulk-eligible*
  when the fused scalar loop would take its plain-hit fast path —
  the preferred line is resident, and (scalar writes) the
  perpendicular duplicate is absent, and (reads) no fill for the line
  is in flight.
* A **dependency window** is a maximal run of consecutive
  bulk-eligible requests.  Plain hits only touch LRU stamps and dirty
  bits of *resident* slots — they never change set membership, MSHR
  state, or the stall window — so every request in the window still
  sees exactly the state it was classified against, and the whole
  window can retire with vectorized scatters: last-writer-wins age
  stamps, OR-accumulated dirty bits, bucketed latency-histogram
  counts.
* Classified-**miss** spans first attempt the bulk miss executor
  (:func:`_bulk_miss`): read misses whose lines the level below the
  L1 serves closed-form (resident there, no perpendicular or
  in-flight hazards) retire as one window — per-set install ranks via
  argsort against the live victim order, MSHR merge/retire/capacity
  through a packed :class:`repro.core.kernels.MshrTable`, fill
  completions applied as one latency scatter into the tag/meta/LRU
  stores, lower-level LRU touches folded per slot, and (for a
  prefetching lower level) the stride automaton advanced in one
  planned step over the window's quiescent training prefix.  Only the
  per-row issue clock and the outstanding-read window stay a Python
  loop — the MSHR completions they consume are genuinely sequential.
* Every other request replays **scalar**, sharing one carried
  :class:`repro.core.kernels._Span2L` state with the bulk windows:
  long scalar runs go through :func:`repro.core.kernels._replay_2l_span`
  — the fused kernel loop itself — and isolated rows through a
  closure that mirrors one ``_replay_2l`` iteration via the tail
  methods.  After scalar work that may have restructured the cache,
  the L1 sets it can have touched are poisoned for the rest of the
  chunk; later classified hits in a poisoned set re-probe scalar too.
  Once every set is poisoned, the remainder of the chunk replays as
  one fused kernel span.  Chunk boundaries re-classify everything.

The result is bit-identical to ``run_kernel`` — counters, latency
histograms, and cycle counts — which `tests/test_vector.py` enforces
three ways (object path vs scalar kernel vs vector kernel).  Hit-dense
traces retire windows thousands of requests long at numpy speed;
miss-heavy traces whose misses are served by the next level down now
retire in bulk too, and only miss bursts that reach memory (or carry
write/hazard state) drop to the fused kernel loop.

Coverage: everything :func:`repro.core.kernels.supports` covers except
dynamic orientation (the predictor trains on every scalar access in
order, so no window of them can retire out of band).  Logically 2-D
L1s take the window machinery above; 1P1L L1s take a simpler variant
(:func:`_replay_vector_1l`) whose classify is exact by construction —
one probe, no perpendicular state.  Either way the levels *below* the
L1 are reached only through the scalar tails, so a 2P2L last level
rides along unchanged.

Dispatch: :meth:`repro.core.cpu.TraceDrivenCpu.run` never routes
traces here.  The figures' traces are miss-dense below the L1, and on
every figure family the scalar kernel measured faster than this
engine (docs/PERFORMANCE.md §6), so the engine is reached only through
an explicit :meth:`repro.core.cpu.TraceDrivenCpu.run_vector` call —
its bit-identity tests and engine benches.
"""

from __future__ import annotations

from array import array
from heapq import heappop, heappush
from typing import List

from ..common.stats import lat_bucket, lat_hist_counts
from ..common.types import WINDOW_ALIGN
from . import kernels

try:  # optional accelerator (same dependency policy as kernels._np)
    import numpy as _np
except ImportError:  # pragma: no cover - numpy ships with the test env
    _np = None

#: Module-level switch read by :func:`supports` (see
#: :func:`vector_disabled`).  Dispatch never picks this engine, so the
#: pin no longer changes which engine ``TraceDrivenCpu.run`` enters.
VECTOR_ENABLED = True

#: Requests classified per batch.  Chunk boundaries only bound how far
#: one classification can see — they never change results — so this
#: trades gather width against re-classification frequency.  Shard
#: boundaries align to the same quantum (``WINDOW_ALIGN``).
CHUNK = WINDOW_ALIGN

#: Windows at or below this length retire through a plain-Python hit
#: loop: numpy's per-call overhead (argsort + scatters) only pays for
#: itself on longer runs.
SMALL_WINDOW = 6

#: Scalar runs at or above this length replay through the fused kernel
#: span (:func:`repro.core.kernels._replay_2l_span`), amortizing its
#: local-binding prologue; shorter ones take the per-row scalar step.
SPAN_MIN = 16

#: Classified-miss spans at or above this length attempt the bulk miss
#: executor; shorter ones go straight to the fused kernel span (the
#: qualification gathers would not pay for themselves).
MISS_SPAN_MIN = 64

#: Bulk miss windows below this many qualifying rows fall back to the
#: fused kernel span: the argsort/scatter overhead is only amortized
#: by longer runs.
MISS_BULK_MIN = 32

#: Diagnostic cell (NOT a stat — registry contents stay bit-identical
#: to the scalar kernel): rows retired through the bulk miss executor
#: since import.  Tests read it to assert the miss path vectorized.
BULK_MISS_ROWS = [0]

#: This engine's own measured crossover: below ~2 chunks its
#: classification overhead lands in a 0.78-0.86x zone against the
#: scalar kernel even on mixed traces.  Dispatch no longer consults it
#: (``TraceDrivenCpu.run`` never picks this engine); tests use it as a
#: trace-length landmark.
MIN_VECTOR_TRACE = 2 * CHUNK


def supports(hierarchy) -> bool:
    """True when the vector replay covers this hierarchy exactly.

    Uncovered-but-kernel-supported hierarchies replay through
    ``run_kernel`` — same results, scalar speed.  Dynamic orientation
    is kernel-only: the predictor trains on every scalar access in
    program order, which no bulk window can honor.
    """
    if not VECTOR_ENABLED or _np is None:
        return False
    if not kernels.supports(hierarchy):
        return False
    return not hierarchy.l1.config.dynamic_orientation


class _VectorDisabled:
    """Context manager forcing the scalar ``run_kernel`` path.

    Same contract as :class:`repro.core.kernels._KernelDisabled`:
    restores the prior state on any exit, nests, rejects re-entry, and
    restores on garbage collection of an abandoned entered instance.
    """

    __slots__ = ("_prior",)

    def __init__(self) -> None:
        self._prior = None

    def __enter__(self) -> "_VectorDisabled":
        global VECTOR_ENABLED
        if self._prior is not None:
            raise RuntimeError("vector_disabled() context entered "
                               "twice; create a fresh one per block")
        self._prior = VECTOR_ENABLED
        VECTOR_ENABLED = False
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def __del__(self) -> None:
        self._restore()

    def _restore(self) -> None:
        global VECTOR_ENABLED
        if self._prior is not None:
            VECTOR_ENABLED = self._prior
            self._prior = None


def vector_disabled() -> _VectorDisabled:
    """Force the scalar ``run_kernel`` path within a ``with`` block."""
    return _VectorDisabled()


def window_spans(bulk_flags) -> List[tuple]:
    """``(start, stop, is_bulk)`` spans of a chunk's eligibility mask.

    The planner's window boundaries, exposed for tests: spans tile the
    chunk exactly, alternate in kind, and every bulk span is a maximal
    run (before set-poisoning, which can only split bulk spans
    further).
    """
    spans = []
    start = 0
    n = len(bulk_flags)
    for i in range(1, n + 1):
        if i == n or bool(bulk_flags[i]) != bool(bulk_flags[start]):
            spans.append((start, i, bool(bulk_flags[start])))
            start = i
    return spans


def classify_chunk(engine, packed_words, start=0, stop=None):
    """The bulk-eligibility mask one chunk would be planned with.

    Debug/test hook: runs the classification pass of
    :func:`_replay_vector` (or :func:`_replay_vector_1l` for a 1-D L1)
    against the engine's *current* L1 state (``now`` taken as the
    replay start) without executing anything.
    """
    l1 = engine.levels[0]
    if isinstance(l1, kernels._Kernel2L):
        packed, _ = kernels._predecode_2l(packed_words)
        if stop is None:
            stop = len(packed)
        p_np = _np.asarray(packed[start:stop], dtype=_np.int64)
        bulk, _, _, _ = _classify(engine, l1, p_np, now=0)
        return bulk
    packed, _ = kernels._predecode_1l(packed_words)
    if stop is None:
        stop = len(packed)
    p_np = _np.asarray(packed[start:stop], dtype=_np.int64)
    bulk, _, _ = _classify_1l(engine, l1, p_np, now=0)
    return bulk


def _classify(engine, l1, p_np, now):
    """Vectorized plain-hit classification for one chunk.

    Returns ``(bulk, slot, setn, osetn)`` — the eligibility mask, the
    classified hit slot per row (meaningful only where the row hit),
    and the L1 set numbers of the preferred and perpendicular lines
    (for set-poisoning).
    """
    np = _np
    tags_view = engine._tags_view
    meta_view = engine._meta_view
    assoc = l1.assoc
    num_sets = l1.num_sets
    line = p_np >> 7
    mode = (p_np >> 4) & 3
    other = (line & -16) | (p_np & 15)
    if l1.same_set:
        setn = (line >> 4) % num_sets
        osetn = (other >> 4) % num_sets
    else:
        setn = ((line >> 4) + (line & 7)) % num_sets
        osetn = ((other >> 4) + (other & 7)) % num_sets
    lane = np.arange(assoc, dtype=np.int64)
    g = setn * assoc
    g = g[:, None] + lane
    hitm = (tags_view[g] == line[:, None]) & ((meta_view[g] & 1) == 1)
    has_hit = hitm.any(axis=1)
    slot = setn * assoc + np.argmax(hitm, axis=1)
    # Bulk = the fused loop's plain-hit fast path:
    #  * modes 0/2 (reads): resident, and no in-flight fill for the
    #    line (a live ready_at entry means the early-hit-wait branch,
    #    which feeds the stall window — scalar);
    #  * mode 1 (scalar write): resident and perpendicular duplicate
    #    absent;
    #  * mode 3 (vector write): always scalar — its fast path reads
    #    tile_count, which bulk execution does not track.
    bulk = has_hit & (mode != 3)
    m1 = mode == 1
    if m1.any():
        og = osetn * assoc
        og = og[:, None] + lane
        ohit = ((tags_view[og] == other[:, None])
                & ((meta_view[og] & 1) == 1)).any(axis=1)
        bulk &= ~(m1 & ohit)
    ready_at = l1.ready_at
    if ready_at:
        live = [k for k, v in ready_at.items() if v > now]
        if live:
            live_np = np.fromiter(live, dtype=np.int64, count=len(live))
            bulk &= ~(((mode & 1) == 0) & np.isin(line, live_np))
    return bulk, slot, setn, osetn


class _ServeModel:
    """Closed-form lower-level hit serving for bulk miss windows.

    Captures the level below the L1 when a window of L1 read misses
    whose lines are resident there completes with closed-form
    latencies: the inline-serve path (``lower_store``-wired
    ``_Kernel2L`` / non-prefetching ``_Kernel1L`` lowers), the
    ``fetch_line`` hit of a prefetching ``_Kernel1L`` whose stride
    automaton stays quiescent across the window (planned per window),
    or the presence-bit ``fetch_line`` hit of a ``_Kernel2P2L`` last
    level.  All three are the same transaction — request/probe
    counters, one LRU touch, ``completion = issue + hit_latency`` —
    so one model covers them.
    """

    __slots__ = ("store", "kind", "tags_view", "meta_view",
                 "present_view", "hit_latency", "level_index",
                 "prefetching")


def _make_serve_model(lower):
    """Build the :class:`_ServeModel` for ``lower``, or None.

    Converts the lower level's meta (and 2P2L presence) list to an
    ``array('Q')`` aliased by numpy, exactly as :class:`VectorEngine`
    does for the L1 — the scalar paths index the array the same way
    they indexed the list.
    """
    if isinstance(lower, kernels._Kernel2L):
        kind, prefetching = "2l", False
    elif isinstance(lower, kernels._Kernel1L):
        kind, prefetching = "1l", lower.prefetch_enabled
    elif isinstance(lower, kernels._Kernel2P2L):
        kind, prefetching = "2p2l", False
    else:
        return None
    if not isinstance(lower.meta, array):
        lower.meta = array("Q", lower.meta)
    sm = _ServeModel()
    sm.store = lower
    sm.kind = kind
    sm.prefetching = prefetching
    sm.tags_view = _np.frombuffer(lower.tags, dtype=_np.int64)
    sm.meta_view = _np.frombuffer(lower.meta, dtype=_np.int64)
    if kind == "2p2l":
        if not isinstance(lower.present, array):
            lower.present = array("Q", lower.present)
        sm.present_view = _np.frombuffer(lower.present, dtype=_np.int64)
    else:
        sm.present_view = None
    sm.hit_latency = lower.hit_latency
    sm.level_index = lower.level_index
    return sm


def _serve_resident(sm, line):
    """``(served, slot)`` per row of ``line`` (an int64 array).

    ``served[i]`` is True when the lower level serves ``line[i]`` with
    its closed-form hit path right now; ``slot[i]`` is the slot whose
    LRU stamp that serve touches (garbage where not served).
    """
    np = _np
    store = sm.store
    assoc = store.assoc
    num_sets = store.num_sets
    lane = np.arange(assoc, dtype=np.int64)
    if sm.kind == "2p2l":
        tile = line >> 4
        g = ((tile % num_sets) * assoc)[:, None] + lane
        hitm = (sm.tags_view[g] == tile[:, None]) \
            & ((sm.meta_view[g] & 1) == 1)
        has = hitm.any(axis=1)
        slot = (tile % num_sets) * assoc + np.argmax(hitm, axis=1)
        ok = has & ((sm.present_view[slot]
                     & (np.int64(1) << (line & 15))) != 0)
        return ok, slot
    if sm.kind == "2l":
        number = (line >> 4) if store.same_set \
            else (line >> 4) + (line & 7)
    else:
        number = ((line >> 4) << 3) | (line & 7)
    g = ((number % num_sets) * assoc)[:, None] + lane
    hitm = (sm.tags_view[g] == line[:, None]) \
        & ((sm.meta_view[g] & 1) == 1)
    has = hitm.any(axis=1)
    slot = (number % num_sets) * assoc + np.argmax(hitm, axis=1)
    return has, slot


def _apply_serves(sm, s_slots):
    """Fold ``len(s_slots)`` lower-level hit serves (program order).

    Exactly the per-serve hit transaction run in sequence: one fetch
    request and tag probe each, and an LRU stamp per serve — the last
    serve of a slot carries its highest stamp, so a stable argsort by
    slot scatters each slot's final stamp in one pass.  The caller
    guarantees the stamps stay below ``AGE_LIMIT`` (no compaction).
    """
    np = _np
    store = sm.store
    ns = len(s_slots)
    store.c_fetch_requests.value += ns
    store.c_tag_probes.value += ns
    stamp0 = store.age[0]
    store.age[0] = stamp0 + ns
    order = np.argsort(s_slots, kind="stable")
    ssl = s_slots[order]
    seg = np.flatnonzero(ssl[1:] != ssl[:-1]) + 1
    starts = np.concatenate(([0], seg))
    usl = ssl[starts]
    ends = np.concatenate((seg, [ns])) - 1
    ms = stamp0 + order[ends]
    mv = sm.meta_view
    mv[usl] = (mv[usl] & 0xFFFF) | (ms << 16)


def _bulk_miss(engine, l1, sm, st, p_np, setn_np, osetn_np, a, b,
               two_l, window_size, issue_cost, pipelined):
    """Retire a prefix of the classified-miss span ``[a, b)`` in bulk.

    Qualifies the longest prefix of rows whose whole miss transaction
    is closed-form — read, (re-checked) non-resident in the L1, served
    by the lower level's hit path, no perpendicular/in-flight/dirty-
    victim hazards — then executes it: a per-row Python loop walks
    only the genuinely sequential clock/MSHR/stall-window state
    through a packed :class:`repro.core.kernels.MshrTable`, and every
    array-shaped effect (install ranks and victims, tag/meta/stamp
    scatters, lower-level touches, histogram counts, counter sums)
    lands vectorized afterwards.  Returns the number of rows consumed;
    0 means the caller replays the span through the scalar kernel.
    Bit-identical to the scalar transactions by construction — every
    hazard that would make a row's outcome depend on non-modeled state
    truncates the window instead.
    """
    np = _np
    store_l2 = sm.store
    pslice = p_np[a:b]
    n = b - a
    if two_l:
        line = pslice >> 7
        mode = (pslice >> 4) & 3
    else:
        line = pslice >> 5
        mode = (pslice >> 3) & 3
    q = (mode & 1) == 0  # reads only: writes carry dirty/duplicate state
    if not q.any():
        return 0
    setn = setn_np[a:b]
    tags_view = engine._tags_view
    meta_view = engine._meta_view
    assoc = l1.assoc
    lane = np.arange(assoc, dtype=np.int64)
    # Re-probe residency against the *live* arrays — the chunk
    # classification is stale once scalar work ran before this span.
    g = (setn * assoc)[:, None] + lane
    q &= ~((tags_view[g] == line[:, None])
           & ((meta_view[g] & 1) == 1)).any(axis=1)
    if two_l:
        # Scalar reads with the perpendicular duplicate resident take
        # the misoriented-hit branch — scalar path.
        m0 = mode == 0
        if m0.any():
            other = (line & -16) | (pslice & 15)
            og = (osetn_np[a:b] * assoc)[:, None] + lane
            ohit = ((tags_view[og] == other[:, None])
                    & ((meta_view[og] & 1) == 1)).any(axis=1)
            q &= ~(m0 & ohit)
        # fill_line's duplicate-clean gate and the MSHR ordering
        # barrier both key on the perpendicular (tile, orientation):
        # exclude rows whose perpendicular key is resident or in
        # flight before the window, or installed by an *earlier*
        # window row (installs are clean, so the gate alone would be
        # a no-op, but the barrier would raise issue times).
        tk = line >> 3
        pk = tk ^ 1
        if l1.tile_count:
            tck = np.fromiter(l1.tile_count.keys(), dtype=np.int64,
                              count=len(l1.tile_count))
            q &= ~np.isin(pk, tck)
        if l1.pending_tiles:
            ptk = np.fromiter(l1.pending_tiles.keys(), dtype=np.int64,
                              count=len(l1.pending_tiles))
            q &= ~np.isin(pk, ptk)
        utk, first_idx = np.unique(tk, return_index=True)
        pos = np.minimum(np.searchsorted(utk, pk), utk.size - 1)
        q &= ~((utk[pos] == pk)
               & (first_idx[pos] < np.arange(n, dtype=np.int64)))
    served, l2slot = _serve_resident(sm, line)
    q &= served
    l2_ready = store_l2.ready_at
    if l2_ready:
        rk = np.fromiter(l2_ready.keys(), dtype=np.int64,
                         count=len(l2_ready))
        q &= ~np.isin(line, rk)
    if sm.prefetching and l1.pending_at:
        # Serve order must be static for the prefetch plan: no row may
        # coalesce with a pre-existing in-flight fill.
        pnd = np.fromiter(l1.pending_at.keys(), dtype=np.int64,
                          count=len(l1.pending_at))
        q &= ~np.isin(line, pnd)
    k0 = n if q.all() else int(np.argmax(~q))
    if k0 < MISS_BULK_MIN:
        return 0
    limit = k0
    line0 = line[:k0]
    setn0 = setn[:k0]
    # Install ranks: position of each row among the window's installs
    # into its own set (stable by set, so program order within a set).
    ordr = np.argsort(setn0, kind="stable")
    ss = setn0[ordr]
    seg = np.flatnonzero(ss[1:] != ss[:-1]) + 1
    gstart = np.concatenate(([0], seg))
    counts = np.diff(np.concatenate((gstart, [k0])))
    rank_sorted = np.arange(k0, dtype=np.int64) \
        - np.repeat(gstart, counts)
    ranks = np.empty(k0, dtype=np.int64)
    ranks[ordr] = rank_sorted
    # Victim order per touched set: stable argsort of the live meta
    # words reproduces the repeated strict-< argmin scan (invalid
    # slots are meta == 0 and win first; valid stamps are unique), and
    # install r of a set takes order[r % assoc] — after ``assoc``
    # installs the set is entirely window lines in install order.
    su = ss[gstart]
    mat = meta_view[(su * assoc)[:, None] + lane]
    order = np.argsort(mat, axis=1, kind="stable")
    sidx = np.searchsorted(su, setn0)
    tslot = setn0 * assoc + order[sidx, ranks % assoc]
    pre = ranks < assoc
    vmeta = meta_view[tslot]
    vvalid = pre & ((vmeta & 1) == 1)
    # A dirty victim writes back through the lower level — scalar.
    vdirty = vvalid & (((vmeta >> 8) & 0xFF) != 0)
    if vdirty.any():
        limit = min(limit, int(np.argmax(vdirty)))
    # Repeated lines: a later occurrence only misses again if at least
    # ``assoc`` same-set installs separate it from the previous one
    # (its install must already be evicted when the repeat probes).
    lo = np.argsort(line0, kind="stable")
    sl_lines = line0[lo]
    same = sl_lines[1:] == sl_lines[:-1]
    if same.any():
        reps = lo[1:][same]
        if sm.prefetching:
            # A coalescing repeat would skip a serve and desync the
            # prefetch plan: require all-distinct lines instead.
            limit = min(limit, int(reps.min()))
        else:
            bad = same & ((ranks[lo][1:] - ranks[lo][:-1]) <= assoc)
            if bad.any():
                limit = min(limit, int(lo[1:][bad].min()))
    if limit < MISS_BULK_MIN:
        return 0
    age0 = l1.age[0]
    l2_age0 = store_l2.age[0]
    age_limit = kernels.AGE_LIMIT
    if age0 + limit > age_limit or l2_age0 + limit > age_limit:
        # Stamp compaction would fire mid-window — scalar lands it
        # exactly where the fused loop would.
        return 0
    pf_state = None
    addrs = None
    if sm.prefetching:
        addrs = (((line0[:limit] >> 4) << 9)
                 | ((line0[:limit] & 7) << 6)).tolist()
        quiet, pf_state = store_l2.prefetcher.plan_quiescent(0, addrs)
        if quiet < limit:
            limit = quiet
            if limit < MISS_BULK_MIN:
                return 0
            # A prefix of a quiescent prefix is quiescent: re-plan for
            # the exact state after ``limit`` observes.
            _, pf_state = store_l2.prefetcher.plan_quiescent(
                0, addrs[:limit])
    if two_l:
        tagl = l1.tag_latency
        probes_np = np.where(mode[:limit] == 0, 2 * tagl, 9 * tagl)
        p0 = int(probes_np[0])
        pconst = bool((probes_np == p0).all())
    else:
        probes_np = None
        p0 = l1.tag_latency
        pconst = True
    table = kernels.MshrTable.seed(l1)
    if not table.monotone:
        # Out-of-order seed completions (mixed-depth fills): the FIFO
        # retire would pop out of order — scalar replays the span.
        return 0
    comp_shift = kernels._MSHR_COMP_SHIFT
    slot_shift = kernels._MSHR_SLOT_SHIFT
    ready_at = l1.ready_at
    hitl = sm.hit_latency
    dlat = l1.data_latency
    lvl = sm.level_index
    cap = l1.mshr_capacity
    window = st.window
    fast = False
    lat_c = p0 + hitl + dlat
    # -- uniform fast path.  When every row costs the same probe, all
    # lines are distinct and none coalesce with a seeded fill, the
    # outstanding-read seeds are all due before the window's first
    # completion, and (verified below against the solved clock) the
    # MSHR never hits capacity, the whole window collapses to one
    # max-plus recurrence on the issue clock:
    #
    #   t[j+1] = max(t[j], merged[j - (W - S)]) + issue_cost
    #
    # where ``merged`` is the sorted seed dones followed by the
    # window's own completions (latencies are the constant ``lat_c``,
    # so dones are just ``t + lat_c``).  Everything else — retire
    # head, MSHR earliest, per-row fill times — is closed-form
    # arithmetic on ``t``, and the per-row Python work drops to the
    # three-op recurrence itself. --
    if pconst and lat_c > pipelined and len(window) <= window_size \
            and (table.last_completion is None
                 or table.last_completion
                 <= st.now + issue_cost + p0 + hitl):
        d0 = st.now + issue_cost + lat_c
        sorted_seed = sorted(window)
        if not sorted_seed or sorted_seed[-1] <= d0:
            ul = np.unique(line0[:limit])
            clean = ul.size == limit
            if clean and table.index:
                sk = np.fromiter(table.index.keys(), dtype=np.int64,
                                 count=len(table.index))
                clean = not np.isin(ul, sk).any()
            if clean:
                head0 = table.head
                nlen0 = len(table.lines)
                s_len = len(sorted_seed)
                ic = issue_cost
                t = st.now
                merged = sorted_seed
                m_append = merged.append
                off = window_size - s_len
                stall_add = 0
                j0 = off if off < limit else limit
                for j in range(j0):
                    t += ic
                    m_append(t + lat_c)
                # Pops lag appends by the window size, so iterating
                # ``merged`` while appending to it is safe.
                m_iter = iter(merged)
                for j in range(j0, limit):
                    t += ic
                    m_append(t + lat_c)
                    v = next(m_iter)
                    if v > t:
                        stall_add += v - t
                        t = v
                t_arr = np.asarray(merged[s_len:],
                                   dtype=np.int64) - lat_c
                fill = t_arr + p0
                comp_arr = fill + hitl
                s0 = nlen0 - head0
                if s0:
                    words0 = table.words
                    seedc = np.fromiter(
                        (words0[x] >> comp_shift
                         for x in range(head0, nlen0)),
                        dtype=np.int64, count=s0)
                    allc = np.concatenate((seedc, comp_arr))
                else:
                    allc = comp_arr
                retired = np.searchsorted(allc, fill, side="right")
                live = s0 + np.arange(limit, dtype=np.int64) - retired
                if int(live.max()) < cap:
                    fast = True
                    k = limit
                    lines_l = line0[:limit].tolist()
                    ready_at.update(
                        zip(lines_l, merged[len(merged) - limit:]))
                    pops = limit - off
                    # A sorted list is a valid heap; contents equal
                    # the sequential pops' leftovers exactly.
                    window[:] = merged[pops:] if pops > 0 else merged
                    st.now = t
                    st.stalled += stall_add
                    table.lines.extend(lines_l)
                    table.words.extend(
                        ((comp_arr << comp_shift)
                         | (tslot[:limit] << slot_shift)
                         | lvl).tolist())
                    table.head = head0 + int(retired[-1])
                    # Final earliest: every row's gate passes (the
                    # prior insert left earliest <= its fill time),
                    # each recompute lands above the row's fill, and
                    # the closing insert-min pulls it back to it.
                    table.earliest = int(fill[-1])
                    table.flush(l1)
                    n_coal = n_stall = 0
                    n_tracked = k
    if not fast:
        probes = probes_np.tolist() if two_l else [p0] * limit
        # -- the sequential core: clock, FIFO MSHR, stall window.  The
        # MshrTable's flat arrays are walked inline as locals:
        # retirement and the capacity scan are head-pointer advances,
        # inserts are appends.  Completions stay nondecreasing by
        # construction for uniform probe costs; a row that would break
        # the order (a probe-cost drop or a backdated coalesce)
        # rewinds to the row boundary and commits the prefix — the
        # append-only arrays make the rewind a three-word restore. --
        words_t = table.words
        lines_t = table.lines
        index_t = table.index
        head = table.head
        mshr_earliest = table.earliest
        lastc = table.last_completion
        nlen = len(lines_t)
        new_dones: list = []
        wptr = 0
        last_done = None
        now = st.now
        stalled = st.stalled
        lines_l = line0[:limit].tolist()
        tslot_l = tslot[:limit].tolist()
        serves = []
        serve_append = serves.append
        lats = []
        lat_append = lats.append
        n_coal = n_stall = n_tracked = 0
        index_get = index_t.get
        k = limit
        j = 0
        while j < limit:
            ln = lines_l[j]
            r_now = now
            r_head = head
            r_earliest = mshr_earliest
            now += issue_cost
            fnow = now + probes[j]
            # retire(fnow): pops are a head advance (completions sorted).
            if head < nlen and (mshr_earliest is None
                                or fnow >= mshr_earliest):
                while head < nlen and (words_t[head] >> comp_shift) <= fnow:
                    del index_t[lines_t[head]]
                    head += 1
                mshr_earliest = (words_t[head] >> comp_shift) \
                    if head < nlen else None
            pos = index_get(ln)
            if pos is not None:
                comp = words_t[pos] >> comp_shift
                coalesced = True
            else:
                issue = fnow
                if nlen - head >= cap:
                    # Structural stall: the oldest live completion is the
                    # capacity scan's min; retiring to it frees >= 1 slot.
                    stall_until = words_t[head] >> comp_shift
                    if stall_until > issue:
                        issue = stall_until
                    n_stall += 1
                    while head < nlen \
                            and (words_t[head] >> comp_shift) <= stall_until:
                        del index_t[lines_t[head]]
                        head += 1
                    mshr_earliest = (words_t[head] >> comp_shift) \
                        if head < nlen else None
                comp = issue + hitl
                if lastc is not None and comp < lastc:
                    now, head, mshr_earliest = r_now, r_head, r_earliest
                    k = j
                    break
                coalesced = False
            done = comp + dlat
            lat = done - now
            if lat > pipelined and last_done is not None \
                    and done < last_done:
                # A backdated tracked completion would break the sorted
                # stall-window tail — commit the prefix.
                now, head, mshr_earliest = r_now, r_head, r_earliest
                k = j
                break
            if coalesced:
                n_coal += 1
            else:
                index_t[ln] = nlen
                lines_t.append(ln)
                words_t.append((comp << comp_shift)
                               | (tslot_l[j] << slot_shift) | lvl)
                nlen += 1
                lastc = comp
                if mshr_earliest is None or issue < mshr_earliest:
                    mshr_earliest = issue
                serve_append(j)
            ready_at[ln] = done
            lat_append(lat)
            if lat > pipelined:
                last_done = done
                new_dones.append(done)
                n_tracked += 1
                if len(window) + len(new_dones) - wptr > window_size:
                    # Pop-min across the seeded heap and the sorted new
                    # tail (exactly one pop: size never exceeds limit + 1).
                    if window and (wptr >= len(new_dones)
                                   or window[0] <= new_dones[wptr]):
                        earliest = heappop(window)
                    else:
                        earliest = new_dones[wptr]
                        wptr += 1
                    if earliest > now:
                        stalled += earliest - now
                        now = earliest
            j += 1
        if k == 0:
            return 0
        st.now = now
        st.stalled = stalled
        for done in new_dones[wptr:]:
            heappush(window, done)
        table.head = head
        table.earliest = mshr_earliest
        table.flush(l1)
    if sm.prefetching and k < limit:
        # The window shrank after planning: re-plan the committed
        # prefix (a prefix of a quiescent prefix is quiescent).
        _, pf_state = store_l2.prefetcher.plan_quiescent(0, addrs[:k])
    # -- plan the array-side effects against the pre-window state --
    ranks_k = ranks[:k]
    tslot_k = tslot[:k]
    line_k = line0[:k]
    vv = vvalid[:k]
    n_pre_evict = int(vv.sum())
    victim_lines = tags_view[tslot_k[vv]].tolist() if n_pre_evict \
        else []
    n_evict = n_pre_evict + int((ranks_k >= assoc).sum())
    m_of = np.bincount(sidx[:k], minlength=su.size)
    surv = ranks_k >= (m_of[sidx[:k]] - assoc)
    if two_l:
        n_m0 = int((mode[:k] == 0).sum())
    else:
        n_m0 = 0
    # -- one scatter installs the window: every touched slot ends with
    # its last install (a survivor), reads are clean, stamps are
    # age0 + row index --
    stamps = age0 + np.arange(k, dtype=np.int64)
    l1.age[0] = age0 + k
    sv = np.flatnonzero(surv)
    s_slots = tslot_k[sv]
    s_lines = line_k[sv]
    if two_l:
        s_meta = (stamps[sv] << 16) | ((s_lines >> 2) & 2) | 1
    else:
        s_meta = (stamps[sv] << 16) | 1
    tags_view[s_slots] = s_lines
    meta_view[s_slots] = s_meta
    slots_d = l1.slot_of
    if two_l:
        tile_count = l1.tile_count
        if n_pre_evict:
            for vl in victim_lines:
                del slots_d[vl]
                key = vl >> 3
                cnt = tile_count[key] - 1
                if cnt:
                    tile_count[key] = cnt
                else:
                    del tile_count[key]
        # else: cold/dense fill fast path — no occupants to surgere.
        for ln, slot in zip(s_lines.tolist(), s_slots.tolist()):
            slots_d[ln] = slot
            key = ln >> 3
            cnt = tile_count.get(key)
            tile_count[key] = 1 if cnt is None else cnt + 1
    else:
        if n_pre_evict:
            for vl in victim_lines:
                del slots_d[vl]
        for ln, slot in zip(s_lines.tolist(), s_slots.tolist()):
            slots_d[ln] = slot
    # -- counters, lower-level serves, histogram --
    st.n_misses += k
    st.n_tracked += n_tracked
    l1.c_mshr_coalesced.value += n_coal
    ns = k if fast else len(serves)
    l1.c_allocations.value += ns
    l1.c_fills.value += ns
    l1.c_full_stalls.value += n_stall
    l1.c_evictions.value += n_evict
    if two_l:
        st.n_probes += 9 * (k - n_m0)
        l1.c_tag_probes.value += 2 * n_m0
    else:
        st.n_probes += k
    if ns:
        if fast:
            _apply_serves(sm, l2slot[:k])
        else:
            _apply_serves(sm, l2slot[:k][np.asarray(serves,
                                                    dtype=np.int64)])
    if sm.prefetching:
        store_l2.prefetcher.apply_state(0, pf_state)
    hist = st.hist
    if fast:
        hist[lat_bucket(lat_c)] += k
    else:
        for bucket, cnt in lat_hist_counts(lats):
            hist[bucket] += cnt
    BULK_MISS_ROWS[0] += k
    return k


class VectorEngine(kernels.KernelEngine):
    """A :class:`KernelEngine` whose replay retires hit windows in bulk.

    Construction swaps the L1 metadata list for an ``array('Q')`` so
    numpy can alias it in place (``tags`` already is one); the scalar
    tails keep reading boxed Python ints from it, so every slow path
    stays byte-for-byte the kernel's.
    """

    def __init__(self, hierarchy) -> None:
        super().__init__(hierarchy)
        l1 = self.levels[0]
        if isinstance(l1, kernels._Kernel2P2L):
            raise kernels.SimulationError(
                "VectorEngine requires a physically 1-D L1; "
                "use KernelEngine for 2P2L-L1 designs")
        if self.l1_predictor is not None:
            raise kernels.SimulationError(
                "VectorEngine does not cover dynamic orientation; "
                "use KernelEngine for predictor-enabled designs")
        l1.meta = array("Q", l1.meta)
        # Writable aliases: scalar-path writes through l1.tags/l1.meta
        # are immediately visible to the gathers and vice versa.
        self._tags_view = _np.frombuffer(l1.tags, dtype=_np.int64)
        self._meta_view = _np.frombuffer(l1.meta, dtype=_np.int64)
        # Bulk miss windows additionally alias the level below the L1
        # (when its hit path is closed-form; None sends miss spans to
        # the fused kernel span unconditionally).
        lower = l1.lower
        self._serve = _make_serve_model(lower) \
            if isinstance(lower, kernels._FlatStore) else None

    def replay(self, trace, cpu_config, cpu_group) -> int:
        """Drive a packed trace through the vector loop; returns cycles."""
        if isinstance(self.levels[0], kernels._Kernel2L):
            return _replay_vector(self, trace, cpu_config, cpu_group)
        return _replay_vector_1l(self, trace, cpu_config, cpu_group)


def _replay_vector(engine: VectorEngine, trace, cpu_config,
                   cpu_group) -> int:
    """Chunked window replay over a logically 2-D (1P2L) L1.

    Structure per chunk: classify every request against the live L1
    arrays, then walk the chunk executing maximal bulk windows with
    numpy scatters and everything else scalar — long scalar runs (and
    the whole remainder once every set is poisoned) through the fused
    kernel span, isolated rows through the per-row step.
    """
    np = _np
    l1 = engine.levels[0]
    meta_view = engine._meta_view
    window_size = cpu_config.mlp_window
    issue_cost = cpu_config.cycles_per_op
    cfg = l1.cfg
    pipelined = cfg.hit_latency + 3 * cfg.tag_latency
    hit_latency = l1.hit_latency
    swrite_latency = 2 * l1.tag_latency + l1.data_write_latency
    vwrite_latency = 9 * l1.tag_latency + l1.data_write_latency
    hb_hit = hit_latency.bit_length()
    hb_sw = swrite_latency.bit_length()
    hb_vw = vwrite_latency.bit_length()
    slots_get = l1.slot_of.get
    meta_arr = l1.meta
    ready_at = l1.ready_at
    ready_get = ready_at.get
    tile_get = l1.tile_count.get
    age_cell = l1.age
    age_limit = kernels.AGE_LIMIT
    compact = l1._compact_ages
    c_early = l1.c_early_hit_waits
    scalar_read_tail = l1.scalar_read_tail
    scalar_write_tail = l1.scalar_write_tail
    vector_read_tail = l1.vector_read_tail
    vector_write_tail = l1.vector_write_tail
    lvl1 = l1.level_index
    same_set = l1.same_set
    num_sets = l1.num_sets
    span_replay = kernels._replay_2l_span
    serve = engine._serve

    st = kernels._Span2L()
    window = st.window
    hist = st.hist

    packed, demand = kernels._predecode_2l(trace.words)
    total = len(packed)
    p_all = np.asarray(packed, dtype=np.int64) if total \
        else np.zeros(0, dtype=np.int64)
    k8 = np.arange(8, dtype=np.int64)

    # Sets that scalar work may have restructured (install/evict/fill)
    # this chunk; classified hits in these sets re-probe scalar.
    # Cleared at every chunk boundary.
    dirty_sets = set()

    def poison(line: int, mode: int, p: int) -> None:
        """Poison every L1 set the completed scalar step can have
        restructured: the preferred line's set, the perpendicular
        duplicate's set (scalar modes), and — for vector accesses,
        whose tails may duplicate-evict the whole crossing tile — the
        sets of all eight perpendicular lines."""
        if same_set:
            dirty_sets.add((line >> 4) % num_sets)
            return
        tile_row = line >> 4
        if mode & 2:  # vector: perp lines k=0..7 live in 8 spread sets
            for k in range(8):
                dirty_sets.add((tile_row + k) % num_sets)
        else:
            dirty_sets.add((tile_row + (line & 7)) % num_sets)
            # perpendicular duplicate: other & 7 == p & 7
            dirty_sets.add((tile_row + (p & 7)) % num_sets)

    def step(idx: int) -> None:
        """One ``_replay_2l`` iteration for request ``idx``, verbatim.

        Unlike the fused loop this calls the miss tails instead of
        inlining them — the counters land in the same cells either
        way — and poisons the touched sets when a tail ran.  Scalar
        state lives on ``st`` so steps interleave exactly with fused
        spans and bulk windows.
        """
        p = packed[idx]
        line = p >> 7
        mode = (p >> 4) & 3
        now = st.now + issue_cost
        st.now = now
        if mode == 2:  # vector read
            slot = slots_get(line)
            if slot is not None:
                st.n_probes += 1
                st.n_hits += 1
                stamp = age_cell[0]
                if stamp >= age_limit:
                    compact()
                    stamp = age_cell[0]
                age_cell[0] = stamp + 1
                meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                    | (stamp << 16)
                ready = ready_get(line)
                if ready is None:
                    hist[hb_hit] += 1
                    return
                if ready <= now:
                    del ready_at[line]
                    hist[hb_hit] += 1
                    return
                c_early.value += 1
                latency = ready + hit_latency - now
            else:
                completion, level = vector_read_tail(line, now)
                if level == lvl1:
                    st.n_hits += 1
                else:
                    st.n_misses += 1
                latency = completion - now
                poison(line, mode, p)
            hist[latency.bit_length()] += 1
            if latency > pipelined:
                heappush(window, now + latency)
                st.n_tracked += 1
                while len(window) > window_size:
                    earliest = heappop(window)
                    if earliest > now:
                        st.stalled += earliest - now
                        now = earliest
                st.now = now
        elif mode == 0:  # scalar read
            slot = slots_get(line)
            if slot is not None:
                st.n_probes += 1
                st.n_hits += 1
                stamp = age_cell[0]
                if stamp >= age_limit:
                    compact()
                    stamp = age_cell[0]
                age_cell[0] = stamp + 1
                meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                    | (stamp << 16)
                ready = ready_get(line)
                if ready is None:
                    hist[hb_hit] += 1
                    return
                if ready <= now:
                    del ready_at[line]
                    hist[hb_hit] += 1
                    return
                c_early.value += 1
                latency = ready + hit_latency - now
            else:
                other = (line & -16) | (p & 15)
                completion, level = scalar_read_tail(line, other, now)
                if level == lvl1:
                    st.n_hits += 1
                else:
                    st.n_misses += 1
                latency = completion - now
                poison(line, mode, p)
            hist[latency.bit_length()] += 1
            if latency > pipelined:
                heappush(window, now + latency)
                st.n_tracked += 1
                while len(window) > window_size:
                    earliest = heappop(window)
                    if earliest > now:
                        st.stalled += earliest - now
                        now = earliest
                st.now = now
        elif mode == 1:  # scalar write (posted; never stalls the core)
            slot = slots_get(line)
            offset = p & 7
            other = (line & -16) | (p & 15)
            if slot is not None and slots_get(other) is None:
                st.n_probes += 2
                st.n_hits += 1
                stamp = age_cell[0]
                if stamp >= age_limit:
                    compact()
                    stamp = age_cell[0]
                age_cell[0] = stamp + 1
                meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                    | (256 << offset) | (stamp << 16)
                hist[hb_sw] += 1
                return
            completion, level = scalar_write_tail(
                line, other, 1 << offset, 1 << (line & 7), now)
            if level == lvl1:
                st.n_hits += 1
            else:
                st.n_misses += 1
            hist[(completion - now).bit_length()] += 1
            poison(line, mode, p)
        else:  # vector write (posted)
            slot = slots_get(line)
            if slot is not None and tile_get((line >> 3) ^ 1) is None:
                st.n_probes += 9
                st.n_hits += 1
                stamp = age_cell[0]
                if stamp >= age_limit:
                    compact()
                    stamp = age_cell[0]
                age_cell[0] = stamp + 1
                meta_arr[slot] = (meta_arr[slot] & 0xFFFF) | 0xFF00 \
                    | (stamp << 16)
                hist[hb_vw] += 1
                return
            completion, level = vector_write_tail(line, now)
            if level == lvl1:
                st.n_hits += 1
            else:
                st.n_misses += 1
            hist[(completion - now).bit_length()] += 1
            poison(line, mode, p)

    for start in range(0, total, CHUNK):
        stop = min(start + CHUNK, total)
        # Drop ready entries that are stale for every request of this
        # chunk (``now`` only advances).  Deleting one is inert: every
        # consumer treats ready <= now exactly like absence.  What
        # remains is small and marks the in-flight lines whose reads
        # must take a scalar path.
        if ready_at:
            stale = [k for k, v in ready_at.items() if v <= st.now]
            for k in stale:
                del ready_at[k]
        if serve is not None and serve.store.ready_at:
            # Same purge for the serving level: live entries disqualify
            # bulk miss rows, stale ones are inert.
            l2_ready = serve.store.ready_at
            stale = [k for k, v in l2_ready.items() if v <= st.now]
            for k in stale:
                del l2_ready[k]
        p_np = p_all[start:stop]
        bulk, slot_np, setn_np, osetn_np = _classify(engine, l1, p_np,
                                                     st.now)
        mode_np = (p_np >> 4) & 3
        dirty_sets.clear()
        dirty_cache: List = [None]
        n = stop - start
        # Maximal constant-eligibility spans; set-poisoning can only
        # split bulk spans further, never extend them.
        if n > 1:
            flips = np.flatnonzero(bulk[1:] != bulk[:-1]) + 1
            bounds = [0] + flips.tolist() + [n]
        else:
            bounds = [0, n]
        first_bulk = bool(bulk[0]) if n else False

        def dirty_arr():
            da = dirty_cache[0]
            if da is None or da.size != len(dirty_sets):
                da = np.fromiter(dirty_sets, dtype=np.int64,
                                 count=len(dirty_sets))
                dirty_cache[0] = da
            return da

        def poison_span(a: int, b: int) -> None:
            """Poison the union of sets the rows of [a, b) can touch.

            Used after a fused span call, which does not report which
            rows actually restructured; conservatively charges every
            row (plain hits included) — over-poisoning only sends more
            rows down the exact scalar path.
            """
            if same_set:
                dirty_sets.update(np.unique(setn_np[a:b]).tolist())
                return
            m = mode_np[a:b]
            vec = m >= 2
            if vec.any():
                trow = p_np[a:b][vec] >> 11  # line >> 4
                dirty_sets.update(np.unique(
                    (trow[:, None] + k8) % num_sets).tolist())
            if not vec.all():
                sc = ~vec
                dirty_sets.update(np.unique(setn_np[a:b][sc]).tolist())
                dirty_sets.update(
                    np.unique(osetn_np[a:b][sc]).tolist())

        def screen(a: int, b: int):
            """Poisoned-set mask for classified-hit rows [a, b)."""
            fl = np.isin(setn_np[a:b], dirty_arr())
            m1 = mode_np[a:b] == 1
            if m1.any():
                fl |= m1 & np.isin(osetn_np[a:b], dirty_arr())
            return fl

        def bulk_exec(i: int, t: int) -> None:
            """Retire guaranteed plain hits [i, t) in bulk.

            Never poisons: plain hits only touch stamps and dirty
            bits.  The age-limit guard drops to per-row steps so the
            stamp compaction lands exactly where the fused loop would
            put it.
            """
            w = t - i
            stamp0 = age_cell[0]
            if stamp0 + w > age_limit:
                for r in range(i, t):
                    step(start + r)
                return
            if w <= SMALL_WINDOW:
                probes = 0
                for r in range(i, t):
                    p = packed[start + r]
                    slot = slots_get(p >> 7)
                    if (p >> 4) & 1:
                        meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                            | (256 << (p & 7)) | (age_cell[0] << 16)
                        hist[hb_sw] += 1
                        probes += 2
                    else:
                        meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                            | (age_cell[0] << 16)
                        hist[hb_hit] += 1
                        probes += 1
                    age_cell[0] += 1
                st.now += issue_cost * w
                st.n_hits += w
                st.n_probes += probes
                return
            sl = slot_np[i:t]
            age_cell[0] = stamp0 + w
            # Group the window by slot (stable, so each group keeps
            # request order); the last touch carries the highest
            # stamp, dirty bits OR together.
            order = np.argsort(sl, kind="stable")
            ssl = sl[order]
            seg = np.flatnonzero(ssl[1:] != ssl[:-1]) + 1
            starts = np.concatenate(([0], seg))
            usl = ssl[starts]
            ends = np.concatenate((seg, [w])) - 1
            # stamps are stamp0 + row offset, so the max stamp per
            # group is stamp0 + its last row.
            ms = stamp0 + order[ends]
            m1w = mode_np[i:t] == 1
            w1 = int(m1w.sum()) if m1w.any() else 0
            if w1:
                dirty_add = np.where(
                    m1w, np.int64(256) << (p_np[i:t] & 7),
                    np.int64(0))
                od = np.bitwise_or.reduceat(dirty_add[order], starts)
                meta_view[usl] = (meta_view[usl] & 0xFFFF) | od \
                    | (ms << 16)
            else:
                meta_view[usl] = (meta_view[usl] & 0xFFFF) \
                    | (ms << 16)
            st.now += issue_cost * w
            w02 = w - w1
            st.n_hits += w
            st.n_probes += w02 + 2 * w1
            hist[hb_hit] += w02
            hist[hb_sw] += w1

        for si in range(len(bounds) - 1):
            a = bounds[si]
            b = bounds[si + 1]
            if len(dirty_sets) >= num_sets and serve is None:
                # Every set is poisoned and there is no bulk miss
                # executor: nothing can retire in bulk before the next
                # chunk re-classifies.  Replay the remainder as one
                # fused kernel span.  (With a serve model, classified-
                # miss spans still qualify against live state, so the
                # loop keeps walking spans instead.)
                span_replay(engine, packed, start + a, stop,
                            cpu_config, st)
                break
            if first_bulk == bool(si & 1):  # classified-miss span
                if serve is not None:
                    # Bulk miss windows qualify against live state, so
                    # poisoned sets don't block them; each consumed
                    # prefix restructures only its rows' own sets.
                    while b - a >= MISS_SPAN_MIN:
                        k = _bulk_miss(engine, l1, serve, st, p_np,
                                       setn_np, osetn_np, a, b, True,
                                       window_size, issue_cost,
                                       pipelined)
                        if not k:
                            break
                        dirty_sets.update(
                            np.unique(setn_np[a:a + k]).tolist())
                        a += k
                if b - a >= SPAN_MIN:
                    span_replay(engine, packed, start + a, start + b,
                                cpu_config, st)
                    poison_span(a, b)
                else:
                    for r in range(a, b):
                        step(start + r)
                continue
            # Classified-hit span.
            if not dirty_sets:
                bulk_exec(a, b)
                continue
            flagged = screen(a, b)
            cnt = int(flagged.sum())
            if cnt == 0:
                bulk_exec(a, b)
                continue
            if 2 * cnt >= b - a:
                # Mostly poisoned: the stale classification says hit,
                # but poisoned rows often miss live (installs evicted
                # them since the chunk started) — let the bulk miss
                # executor drain what qualifies before falling back to
                # one fused span.
                if serve is not None:
                    while b - a >= MISS_BULK_MIN:
                        k = _bulk_miss(engine, l1, serve, st, p_np,
                                       setn_np, osetn_np, a, b, True,
                                       window_size, issue_cost,
                                       pipelined)
                        if not k:
                            break
                        dirty_sets.update(
                            np.unique(setn_np[a:a + k]).tolist())
                        a += k
                    if a >= b:
                        continue
                span_replay(engine, packed, start + a, start + b,
                            cpu_config, st)
                poison_span(a, b)
                continue
            # Mixed: walk flagged rows scalar, unflagged runs in bulk.
            # A scalar step can grow the poisoned set, so the
            # remainder re-screens whenever it does (bounded: the set
            # can grow at most num_sets times per chunk).
            fl = flagged.tolist()
            dn = len(dirty_sets)
            i = a
            while i < b:
                if fl[i - a]:
                    step(start + i)
                    i += 1
                    if len(dirty_sets) != dn and i < b:
                        dn = len(dirty_sets)
                        fl[i - a:] = screen(i, b).tolist()
                    continue
                j = i + 1
                while j < b and not fl[j - a]:
                    j += 1
                bulk_exec(i, j)
                i = j

    now = st.now
    while window:
        earliest = heappop(window)
        if earliest > now:
            now = earliest
    horizon = engine.hierarchy.finish(now)
    if horizon > now:
        now = horizon
    kernels._flush_shared(cpu_group, l1, len(trace), now, st.stalled,
                          st.n_tracked, st.n_hits, st.n_misses,
                          st.n_probes, demand, st.hist)
    return now


def _classify_1l(engine, l1, p_np, now):
    """Vectorized plain-hit classification for a 1P1L chunk.

    Exact by construction: a 1-D L1 has no perpendicular state, so a
    request is bulk-eligible iff its line is resident and no fill for
    it is still in flight.  Unlike the 2-D classify, *writes* are also
    screened against live ``ready_at`` entries — the 1-D hit path
    consults them for every mode.  Returns ``(bulk, slot, setn)``.
    """
    np = _np
    tags_view = engine._tags_view
    meta_view = engine._meta_view
    assoc = l1.assoc
    num_sets = l1.num_sets
    line = p_np >> 5
    # Dense row-line set mapping, as _Kernel1L._set_base.
    setn = (((line >> 4) << 3) | (line & 7)) % num_sets
    lane = np.arange(assoc, dtype=np.int64)
    g = setn * assoc
    g = g[:, None] + lane
    hitm = (tags_view[g] == line[:, None]) & ((meta_view[g] & 1) == 1)
    has_hit = hitm.any(axis=1)
    slot = setn * assoc + np.argmax(hitm, axis=1)
    bulk = has_hit
    ready_at = l1.ready_at
    if ready_at:
        live = [k for k, v in ready_at.items() if v > now]
        if live:
            live_np = np.fromiter(live, dtype=np.int64, count=len(live))
            bulk = bulk & ~np.isin(line, live_np)
    return bulk, slot, setn


def _replay_vector_1l(engine: VectorEngine, trace, cpu_config,
                      cpu_group) -> int:
    """Chunked window replay over a conventional (1P1L) L1.

    The same plan/execute machinery as :func:`_replay_vector` with the
    simpler classify of :func:`_classify_1l`: one probe per request,
    no perpendicular duplicates, so a scalar miss poisons only the
    missed line's own set and every mode is window-eligible.  Scalar
    work routes through :func:`repro.core.kernels._replay_1l_span` /
    a per-row mirror of its loop body.
    """
    np = _np
    l1 = engine.levels[0]
    meta_view = engine._meta_view
    window_size = cpu_config.mlp_window
    issue_cost = cpu_config.cycles_per_op
    cfg = l1.cfg
    pipelined = cfg.hit_latency + 3 * cfg.tag_latency
    hit_latency = l1.hit_latency
    write_latency = l1.write_latency
    hb_read = hit_latency.bit_length()
    hb_write = write_latency.bit_length()
    slots_get = l1.slot_of.get
    meta_arr = l1.meta
    ready_at = l1.ready_at
    ready_get = ready_at.get
    age_cell = l1.age
    age_limit = kernels.AGE_LIMIT
    compact = l1._compact_ages
    c_early = l1.c_early_hit_waits
    get_line_miss = l1.get_line_miss
    lvl1 = l1.level_index
    num_sets = l1.num_sets
    scalar, vector = kernels._SCALAR, kernels._VECTOR
    span_replay = kernels._replay_1l_span
    serve = engine._serve

    st = kernels._Span2L()
    window = st.window
    hist = st.hist

    packed, demand = kernels._predecode_1l(trace.words)
    total = len(packed)
    p_all = np.asarray(packed, dtype=np.int64) if total \
        else np.zeros(0, dtype=np.int64)

    # Sets that scalar work may have restructured this chunk (a 1-D
    # miss installs and evicts only within the missed line's set).
    dirty_sets = set()

    def step(idx: int) -> None:
        """One ``_replay_1l_span`` iteration for request ``idx``."""
        p = packed[idx]
        line = p >> 5
        mode = (p >> 3) & 3
        is_write = mode & 1
        now = st.now + issue_cost
        st.now = now
        st.n_probes += 1
        slot = slots_get(line)
        if slot is not None:
            st.n_hits += 1
            if is_write:
                meta_arr[slot] |= 0xFF00 if mode == 3 \
                    else 256 << (p & 7)
                latency = write_latency
                bucket = hb_write
            else:
                latency = hit_latency
                bucket = hb_read
            stamp = age_cell[0]
            if stamp >= age_limit:
                compact()
                stamp = age_cell[0]
            age_cell[0] = stamp + 1
            meta_arr[slot] = (meta_arr[slot] & 0xFFFF) | (stamp << 16)
            ready = ready_get(line)
            if ready is None:
                hist[bucket] += 1
                return
            if ready <= now:
                del ready_at[line]
                hist[bucket] += 1
                return
            c_early.value += 1
            latency = ready + latency - now
        else:
            if is_write:
                dirty = 0xFF if mode == 3 else 1 << (p & 7)
            else:
                dirty = 0
            completion, level = get_line_miss(
                line, now, vector if mode & 2 else scalar, dirty)
            if level == lvl1:
                st.n_hits += 1
            else:
                st.n_misses += 1
            latency = completion - now
            dirty_sets.add(
                ((((line >> 4) << 3) | (line & 7)) % num_sets))
        hist[latency.bit_length()] += 1
        if latency > pipelined and not is_write:
            heappush(window, now + latency)
            st.n_tracked += 1
            while len(window) > window_size:
                earliest = heappop(window)
                if earliest > now:
                    st.stalled += earliest - now
                    now = earliest
            st.now = now

    for start in range(0, total, CHUNK):
        stop = min(start + CHUNK, total)
        if ready_at:
            stale = [k for k, v in ready_at.items() if v <= st.now]
            for k in stale:
                del ready_at[k]
        if serve is not None and serve.store.ready_at:
            l2_ready = serve.store.ready_at
            stale = [k for k, v in l2_ready.items() if v <= st.now]
            for k in stale:
                del l2_ready[k]
        p_np = p_all[start:stop]
        bulk, slot_np, setn_np = _classify_1l(engine, l1, p_np, st.now)
        mode_np = (p_np >> 3) & 3
        dirty_sets.clear()
        dirty_cache: List = [None]
        n = stop - start
        if n > 1:
            flips = np.flatnonzero(bulk[1:] != bulk[:-1]) + 1
            bounds = [0] + flips.tolist() + [n]
        else:
            bounds = [0, n]
        first_bulk = bool(bulk[0]) if n else False

        def dirty_arr():
            da = dirty_cache[0]
            if da is None or da.size != len(dirty_sets):
                da = np.fromiter(dirty_sets, dtype=np.int64,
                                 count=len(dirty_sets))
                dirty_cache[0] = da
            return da

        def screen(a: int, b: int):
            """Poisoned-set mask for classified-hit rows [a, b)."""
            return np.isin(setn_np[a:b], dirty_arr())

        def poison_span(a: int, b: int) -> None:
            dirty_sets.update(np.unique(setn_np[a:b]).tolist())

        def bulk_exec(i: int, t: int) -> None:
            """Retire guaranteed plain hits [i, t) in bulk."""
            w = t - i
            stamp0 = age_cell[0]
            if stamp0 + w > age_limit:
                for r in range(i, t):
                    step(start + r)
                return
            if w <= SMALL_WINDOW:
                for r in range(i, t):
                    p = packed[start + r]
                    slot = slots_get(p >> 5)
                    if (p >> 3) & 1:
                        meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                            | (0xFF00 if (p >> 3) & 2
                               else 256 << (p & 7)) \
                            | (age_cell[0] << 16)
                        hist[hb_write] += 1
                    else:
                        meta_arr[slot] = (meta_arr[slot] & 0xFFFF) \
                            | (age_cell[0] << 16)
                        hist[hb_read] += 1
                    age_cell[0] += 1
                st.now += issue_cost * w
                st.n_hits += w
                st.n_probes += w
                return
            sl = slot_np[i:t]
            age_cell[0] = stamp0 + w
            order = np.argsort(sl, kind="stable")
            ssl = sl[order]
            seg = np.flatnonzero(ssl[1:] != ssl[:-1]) + 1
            starts = np.concatenate(([0], seg))
            usl = ssl[starts]
            ends = np.concatenate((seg, [w])) - 1
            ms = stamp0 + order[ends]
            mw = mode_np[i:t]
            wr = (mw & 1) == 1
            nw = int(wr.sum()) if wr.any() else 0
            if nw:
                dirty_add = np.where(
                    wr,
                    np.where(mw == 3, np.int64(0xFF00),
                             np.int64(256) << (p_np[i:t] & 7)),
                    np.int64(0))
                od = np.bitwise_or.reduceat(dirty_add[order], starts)
                meta_view[usl] = (meta_view[usl] & 0xFFFF) | od \
                    | (ms << 16)
            else:
                meta_view[usl] = (meta_view[usl] & 0xFFFF) \
                    | (ms << 16)
            st.now += issue_cost * w
            st.n_hits += w
            st.n_probes += w
            hist[hb_read] += w - nw
            hist[hb_write] += nw

        for si in range(len(bounds) - 1):
            a = bounds[si]
            b = bounds[si + 1]
            if len(dirty_sets) >= num_sets and serve is None:
                span_replay(engine, packed, start + a, stop,
                            cpu_config, st)
                break
            if first_bulk == bool(si & 1):  # classified-miss span
                if serve is not None:
                    while b - a >= MISS_SPAN_MIN:
                        k = _bulk_miss(engine, l1, serve, st, p_np,
                                       setn_np, None, a, b, False,
                                       window_size, issue_cost,
                                       pipelined)
                        if not k:
                            break
                        dirty_sets.update(
                            np.unique(setn_np[a:a + k]).tolist())
                        a += k
                if b - a >= SPAN_MIN:
                    span_replay(engine, packed, start + a, start + b,
                                cpu_config, st)
                    poison_span(a, b)
                else:
                    for r in range(a, b):
                        step(start + r)
                continue
            if not dirty_sets:
                bulk_exec(a, b)
                continue
            flagged = screen(a, b)
            cnt = int(flagged.sum())
            if cnt == 0:
                bulk_exec(a, b)
                continue
            if 2 * cnt >= b - a:
                # Mostly poisoned: try the bulk miss executor against
                # live state first (the stale hit classification often
                # hides evicted-since-chunk-start misses).
                if serve is not None:
                    while b - a >= MISS_BULK_MIN:
                        k = _bulk_miss(engine, l1, serve, st, p_np,
                                       setn_np, None, a, b, False,
                                       window_size, issue_cost,
                                       pipelined)
                        if not k:
                            break
                        dirty_sets.update(
                            np.unique(setn_np[a:a + k]).tolist())
                        a += k
                    if a >= b:
                        continue
                span_replay(engine, packed, start + a, start + b,
                            cpu_config, st)
                poison_span(a, b)
                continue
            fl = flagged.tolist()
            dn = len(dirty_sets)
            i = a
            while i < b:
                if fl[i - a]:
                    step(start + i)
                    i += 1
                    if len(dirty_sets) != dn and i < b:
                        dn = len(dirty_sets)
                        fl[i - a:] = screen(i, b).tolist()
                    continue
                j = i + 1
                while j < b and not fl[j - a]:
                    j += 1
                bulk_exec(i, j)
                i = j

    now = st.now
    while window:
        earliest = heappop(window)
        if earliest > now:
            now = earliest
    horizon = engine.hierarchy.finish(now)
    if horizon > now:
        now = horizon
    kernels._flush_shared(cpu_group, l1, len(trace), now, st.stalled,
                          st.n_tracked, st.n_hits, st.n_misses,
                          st.n_probes, demand, st.hist)
    return now
