"""The batched, array-vectorized replay path (PR-6 acceptance).

Covers :mod:`repro.core.vector`: coverage
(:func:`repro.core.vector.supports` and the ``vector_disabled`` pin),
three-way bit-identity between the object path, the scalar
``run_kernel`` loop, and the vector loop, the dependency-window
planner's boundary cases (windows of size 1, a chunk that is one full
window, miss-dominated demotion to the fused kernel span), and the
numpy-absent replay on ``run_kernel``.  ``TraceDrivenCpu.run`` never
dispatches to the vector loop, so the vector legs call
``run_vector`` directly (``tests.conftest.run_trace_vector``), and the
dispatch tests check that ``run`` keeps every trace on the kernel.
"""

from __future__ import annotations

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.common.stats import StatRegistry
from repro.common.types import (
    AccessWidth,
    Orientation,
    PackedTrace,
    Request,
)
from repro.core import kernels, vector
from repro.core.cpu import TraceDrivenCpu
from repro.core.simulator import run_trace
from repro.core.system import make_system
from repro.sw.tracegen import generate_packed_trace, generate_trace
from repro.workloads.registry import build_workload
from tests.conftest import run_trace_vector

try:
    from hypothesis import given, settings
    from hypothesis import strategies as some
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the env
    HAVE_HYPOTHESIS = False

#: Designs the vector loop covers (everything the kernel covers except
#: dynamic orientation) and kernel-covered designs that must stay on
#: run_kernel.
COVERED = ("1P1L", "1P2L", "1P2L_SameSet", "2P2L", "2P2L_Dense",
           "2P2L_SlowWrite")
KERNEL_ONLY = ("1P2L_Dyn",)
UNCOVERED = ("2P2L_L1",)


def _hierarchy(design, replacement="lru"):
    system = make_system(design, 1.0)
    return system, CacheHierarchy(system, StatRegistry(), replacement)


def _row_vector(tile, row):
    """A vector read of row line ``row`` in ``tile`` (see decoder.py)."""
    return Request(addr=((tile << 6) | (row << 3)) << 3,
                   orientation=Orientation.ROW,
                   width=AccessWidth.VECTOR,
                   is_write=False, ref_id=0)


def _hot_trace(n):
    """Vector reads cycling one tile's 8 row lines: hits after warmup."""
    return PackedTrace.from_requests(
        [_row_vector(0, i & 7) for i in range(n)])


def _miss_trace(n):
    """Vector reads striding distinct tiles: miss-dominated."""
    return PackedTrace.from_requests(
        [_row_vector(i % 4096, i & 7) for i in range(n)])


class TestSupports:
    @pytest.mark.parametrize("design", COVERED)
    def test_covered_designs(self, design):
        _, hierarchy = _hierarchy(design)
        assert vector.supports(hierarchy)

    @pytest.mark.parametrize("design", KERNEL_ONLY)
    def test_kernel_only_designs_stay_scalar(self, design):
        # Dynamic orientation is kernel-only: the predictor trains on
        # every scalar access in program order, which no bulk window
        # can honor.
        _, hierarchy = _hierarchy(design)
        assert kernels.supports(hierarchy)
        assert not vector.supports(hierarchy)

    @pytest.mark.parametrize("design", UNCOVERED)
    def test_kernel_uncovered_designs_fall_back(self, design):
        _, hierarchy = _hierarchy(design)
        assert not vector.supports(hierarchy)

    def test_numpy_absent_falls_back(self, monkeypatch):
        _, hierarchy = _hierarchy("1P2L")
        monkeypatch.setattr(vector, "_np", None)
        assert not vector.supports(hierarchy)
        # The scalar kernel does not need numpy for dispatch.
        assert kernels.supports(hierarchy)

    def test_vector_disabled_pin(self):
        _, hierarchy = _hierarchy("1P2L")
        assert vector.supports(hierarchy)
        with vector.vector_disabled():
            assert not vector.supports(hierarchy)
        assert vector.supports(hierarchy)

    def test_vector_disabled_restores_on_exception(self):
        prior = vector.VECTOR_ENABLED
        with pytest.raises(RuntimeError, match="boom"):
            with vector.vector_disabled():
                assert not vector.VECTOR_ENABLED
                raise RuntimeError("boom")
        assert vector.VECTOR_ENABLED == prior

    def test_vector_disabled_nests(self):
        with vector.vector_disabled():
            with vector.vector_disabled():
                assert not vector.VECTOR_ENABLED
            assert not vector.VECTOR_ENABLED
        assert vector.VECTOR_ENABLED

    def test_vector_disabled_rejects_reentry(self):
        cm = vector.vector_disabled()
        with cm:
            with pytest.raises(RuntimeError, match="entered twice"):
                cm.__enter__()
        assert vector.VECTOR_ENABLED

    def test_vector_disabled_restores_on_gc(self):
        cm = vector.vector_disabled()
        cm.__enter__()
        assert not vector.VECTOR_ENABLED
        del cm
        assert vector.VECTOR_ENABLED

    def test_engine_rejects_2d_l1(self):
        # A physically 2-D L1 has per-request block-state bookkeeping
        # the bulk windows do not model.
        _, hierarchy = _hierarchy("2P2L_L1")
        with pytest.raises(SimulationError):
            vector.VectorEngine(hierarchy)

    def test_engine_rejects_dynamic_orientation(self):
        _, hierarchy = _hierarchy("1P2L_Dyn")
        with pytest.raises(SimulationError, match="dynamic"):
            vector.VectorEngine(hierarchy)


class TestVectorParity:
    @pytest.mark.parametrize("design", COVERED)
    @pytest.mark.parametrize("workload", ["sobel", "htap1", "sgemm"])
    def test_three_way_bit_identity(self, design, workload):
        """Object path, run_kernel, and run_vector agree exactly."""
        system = make_system(design, 1.0)
        dims = system.logical_dims
        program = build_workload(workload, "small")
        objects = list(generate_trace(program, dims))
        packed = generate_packed_trace(program, dims)

        via_objects = run_trace(make_system(design, 1.0), objects,
                                name="t")
        with vector.vector_disabled():
            via_kernel = run_trace(make_system(design, 1.0), packed,
                                   name="t")
        via_vector = run_trace_vector(make_system(design, 1.0), packed)
        assert via_vector.cycles == via_objects.cycles
        assert via_vector.ops == via_objects.ops
        assert via_vector.stats.flat() == via_objects.stats.flat()
        assert via_vector.stats.flat() == via_kernel.stats.flat()

    def test_numpy_absent_run_matches_vector_run(self, monkeypatch):
        """Without numpy, cpu.run still replays on run_kernel — the
        same stats as run_vector with numpy."""
        system = make_system("1P2L", 1.0)
        packed = generate_packed_trace(build_workload("sobel", "small"),
                                       system.logical_dims)
        via_vector = run_trace_vector(make_system("1P2L", 1.0), packed)
        monkeypatch.setattr(vector, "_np", None)
        via_fallback = run_trace(make_system("1P2L", 1.0), packed,
                                 name="t")
        assert via_fallback.cycles == via_vector.cycles
        assert via_fallback.stats.flat() == via_vector.stats.flat()

    @pytest.mark.parametrize("design", COVERED)
    def test_age_saturation_identity(self, monkeypatch, design):
        """Stamp compaction lands exactly where the fused loop puts it.

        The bulk path's age guard must drop saturating windows to
        per-row steps; shrinking AGE_LIMIT forces that constantly.
        """
        monkeypatch.setattr(kernels, "AGE_LIMIT", 300)
        system = make_system(design, 1.0)
        packed = generate_packed_trace(build_workload("sgemm", "small"),
                                       system.logical_dims)
        via_vector = run_trace_vector(make_system(design, 1.0), packed)
        with vector.vector_disabled():
            reference = run_trace(make_system(design, 1.0), packed,
                                  name="t")
        assert via_vector.cycles == reference.cycles
        assert via_vector.stats.flat() == reference.stats.flat()

    def test_hot_trace_full_window_identity(self):
        """Chunks that are one full bulk window replay identically."""
        packed = _hot_trace(3 * vector.CHUNK)
        via_vector = run_trace_vector(make_system("1P2L", 1.0), packed)
        with vector.vector_disabled():
            reference = run_trace(make_system("1P2L", 1.0), packed,
                                  name="t")
        assert via_vector.cycles == reference.cycles
        assert via_vector.stats.flat() == reference.stats.flat()
        # Sanity: the trace really is hit-dense after the 8-line warmup.
        flat = via_vector.stats.flat()
        assert flat["cache.L1.hits"] >= 3 * vector.CHUNK - 8

    def test_miss_trace_identity_no_demotion_guard(self):
        """Miss-dominated traces stay on the vector path bit-exactly.

        The scalar-demotion guard (DEMOTE_AFTER/DEMOTE_FRACTION) is
        gone — misses that reach memory replay through the fused
        kernel span per chunk, never by abandoning the vector loop —
        and results must stay bit-identical.
        """
        assert not hasattr(vector, "DEMOTE_AFTER")
        assert not hasattr(vector, "DEMOTE_FRACTION")
        packed = _miss_trace(6 * vector.CHUNK + 7)
        via_vector = run_trace_vector(make_system("1P2L", 1.0), packed)
        with vector.vector_disabled():
            reference = run_trace(make_system("1P2L", 1.0), packed,
                                  name="t")
        assert via_vector.cycles == reference.cycles
        assert via_vector.stats.flat() == reference.stats.flat()

    def test_single_row_windows_identity(self):
        """Alternating hit/miss rows: every window has size 1."""
        reqs = []
        for i in range(2048):
            reqs.append(_row_vector(0, i & 7))       # hot tile: hit
            reqs.append(_row_vector(16 + (i % 512), i & 7))  # stride
        packed = PackedTrace.from_requests(reqs)
        via_vector = run_trace_vector(make_system("1P2L", 1.0), packed)
        with vector.vector_disabled():
            reference = run_trace(make_system("1P2L", 1.0), packed,
                                  name="t")
        assert via_vector.cycles == reference.cycles
        assert via_vector.stats.flat() == reference.stats.flat()

    def test_cpu_dispatches_kernel_for_covered_design(self, monkeypatch):
        """cpu.run replays a vector-covered design on run_kernel.

        Dispatch no longer reads ``MIN_VECTOR_TRACE``: even with the
        floor at 0 the trace enters the scalar kernel, never the
        vector engine.
        """
        monkeypatch.setattr(vector, "MIN_VECTOR_TRACE", 0)
        engines = _count_engines(monkeypatch)
        system = make_system("1P2L", 1.0)
        packed = generate_packed_trace(build_workload("sobel", "small"),
                                       system.logical_dims)
        stats = StatRegistry()
        hierarchy = CacheHierarchy(system, stats)
        assert vector.supports(hierarchy)
        TraceDrivenCpu(system.cpu, hierarchy, stats).run(packed)
        assert engines == [kernels.KernelEngine]

    def test_cpu_keeps_short_traces_on_the_kernel(self, monkeypatch):
        """Traces on both sides of MIN_VECTOR_TRACE run on run_kernel.

        The vector engine measures slower than the kernel on the
        figure traces at every length, so the trace length no longer
        decides dispatch.  Results are identical either way, so the
        check observes the engine choice directly.
        """
        engines = _count_engines(monkeypatch)

        def run(n):
            del engines[:]
            system = make_system("1P2L", 1.0)
            stats = StatRegistry()
            cpu = TraceDrivenCpu(system.cpu,
                                 CacheHierarchy(system, stats), stats)
            cpu.run(_hot_trace(n))
            return engines

        assert run(vector.MIN_VECTOR_TRACE - 1) == [kernels.KernelEngine]
        assert run(vector.MIN_VECTOR_TRACE) == [kernels.KernelEngine]


def _count_engines(monkeypatch):
    """Record the engine class of every kernel or vector replay."""
    engines = []
    for cls in (vector.VectorEngine, kernels.KernelEngine):
        original = cls.replay

        def counting(self, trace, cpu_config, cpu_group,
                     _orig=original):
            engines.append(type(self))
            return _orig(self, trace, cpu_config, cpu_group)

        monkeypatch.setattr(cls, "replay", counting)
    return engines


class TestWindowSpans:
    def test_empty_mask(self):
        assert vector.window_spans([]) == []

    @pytest.mark.parametrize("mask,expect", [
        ([True], [(0, 1, True)]),
        ([False], [(0, 1, False)]),
        ([True] * 4, [(0, 4, True)]),
        ([False] * 4, [(0, 4, False)]),
        ([True, False, True],
         [(0, 1, True), (1, 2, False), (2, 3, True)]),
        ([False, False, True, True, False],
         [(0, 2, False), (2, 4, True), (4, 5, False)]),
    ])
    def test_known_masks(self, mask, expect):
        assert vector.window_spans(mask) == expect

    if HAVE_HYPOTHESIS:
        @settings(max_examples=200, deadline=None)
        @given(some.lists(some.booleans(), max_size=64))
        def test_spans_tile_and_alternate(self, mask):
            spans = vector.window_spans(mask)
            if not mask:
                assert spans == []
                return
            # Spans tile the mask exactly, in order.
            assert [s for s, _, _ in spans] == \
                [0] + [t for _, t, _ in spans[:-1]]
            assert spans[-1][1] == len(mask)
            # Each span is constant and maximal (kinds alternate).
            for (start, stop, is_bulk), nxt in zip(
                    spans, spans[1:] + [None]):
                assert all(bool(m) == is_bulk
                           for m in mask[start:stop])
                if nxt is not None:
                    assert nxt[2] != is_bulk


class TestClassify:
    @pytest.mark.parametrize("design", ["1P2L", "1P1L"])
    def test_cold_cache_classifies_nothing(self, design):
        _, hierarchy = _hierarchy(design)
        engine = vector.VectorEngine(hierarchy)
        packed = _hot_trace(64)
        bulk = vector.classify_chunk(engine, packed.words)
        assert len(bulk) == 64
        assert not bulk.any()

    @pytest.mark.parametrize("design", ["1P2L", "1P1L"])
    def test_warm_cache_classifies_hits(self, design):
        system, hierarchy = _hierarchy(design)
        engine = vector.VectorEngine(hierarchy)
        packed = _hot_trace(64)
        registry = StatRegistry()
        engine.replay(packed, system.cpu, registry.group("cpu"))
        # Replay leftovers: stale in-flight markers would mask the
        # re-read as scalar; classification treats them as live
        # relative to its own start time.
        engine.levels[0].ready_at.clear()
        bulk = vector.classify_chunk(engine, packed.words)
        assert bulk.all()


def _miss_system():
    """Two-level system whose 256KB SRAM second level (512 sets x 8
    ways) holds a multi-thousand-tile working set: every access is an
    L1 miss served by the second level, so classification chunks
    retire through the bulk-miss path."""
    from repro.common.config import CpuConfig, MemoryConfig, \
        SystemConfig
    from repro.core.system import _l1, _llc_sram
    return SystemConfig(
        levels=[_l1(2),
                _llc_sram(256 * 1024, 2, "different_set", name="L2")],
        memory=MemoryConfig(), cpu=CpuConfig())


def _wide_miss_trace(n, tiles=3584):
    """Row-0 vector reads cycling ``tiles`` distinct tiles."""
    return PackedTrace.from_requests(
        [_row_vector(i % tiles, 0) for i in range(n)])


class TestMissPath:
    """The vectorized miss path (PR-9): array-side MSHR/fill retire."""

    def _identity(self, system_factory, packed, expect_bulk=None):
        vector.BULK_MISS_ROWS[0] = 0
        via_vector = run_trace_vector(system_factory(), packed)
        bulk = vector.BULK_MISS_ROWS[0]
        with vector.vector_disabled():
            reference = run_trace(system_factory(), packed, name="t")
        assert via_vector.cycles == reference.cycles
        assert via_vector.stats.flat() == reference.stats.flat()
        if expect_bulk is not None:
            assert bulk >= expect_bulk
        return via_vector

    def test_uniform_window_fast_path_identity(self):
        """Pure L1-miss/L2-hit stream: whole chunks retire through the
        uniform-window fast path, bit-identical to the scalar kernel."""
        result = self._identity(
            _miss_system, _wide_miss_trace(4 * vector.CHUNK),
            # Chunk 0 classifies cold (scalar); the rest retire in bulk.
            expect_bulk=2 * vector.CHUNK)
        flat = result.stats.flat()
        assert flat["cache.L1.misses"] >= 4 * vector.CHUNK - 8

    def test_mixed_hit_miss_windows_identity(self):
        """Windows mixing resident hits with miss runs: the bulk path
        must retire the miss spans and drain the poisoned hits without
        perturbing a single counter."""
        reqs = []
        for i in range(4 * vector.CHUNK):
            if (i >> 6) & 1:
                reqs.append(_row_vector(i & 7, (i >> 3) & 7))  # hot set
            else:
                reqs.append(_row_vector(64 + (i % 3072), 0))   # stride
        self._identity(_miss_system, PackedTrace.from_requests(reqs),
                       expect_bulk=1)

    def test_all_sets_saturated_identity(self):
        """More distinct tiles than the second level holds: every set
        is full, so each bulk fill evicts a victim.  The install
        scatter and the scalar loop must pick identical victims."""
        # 512 sets x 8 ways = 4096 lines; 4608 tiles thrash every set.
        self._identity(_miss_system,
                       _wide_miss_trace(4 * vector.CHUNK, tiles=4608))

    def test_stamp_collision_identity(self, monkeypatch):
        """LRU stamp saturation mid-window: compaction must land where
        the scalar kernel puts it even when fills race the limit.

        The limit is shrunk enough that a window's fills cross it many
        times per replay, but not so far that every access recompacts
        the 4096-line store (that would be quadratic, not edgier).
        """
        monkeypatch.setattr(kernels, "AGE_LIMIT", 20_000)
        self._identity(_miss_system, _wide_miss_trace(4 * vector.CHUNK))

    def test_cold_cache_sharded_epochs_no_demotion(self):
        """Every cold-cache epoch of a sharded replay retires misses in
        bulk — the scalar-demotion guard is gone, not just dormant —
        and each epoch stays bit-identical to the pinned kernel."""
        assert not hasattr(vector, "DEMOTE_AFTER")
        assert not hasattr(vector, "DEMOTE_FRACTION")
        from repro.common.types import ShardPlan
        packed = _wide_miss_trace(8 * vector.CHUNK)
        plan = ShardPlan.plan(len(packed), 2)
        assert len(plan.bounds) == 3
        for begin, end in zip(plan.bounds, plan.bounds[1:]):
            shard = PackedTrace(packed.words[begin:end])
            assert len(shard) >= vector.MIN_VECTOR_TRACE
            self._identity(_miss_system, shard,
                           expect_bulk=vector.CHUNK)
