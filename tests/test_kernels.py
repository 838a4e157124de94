"""The structure-of-arrays cache kernels (PR-4/PR-7 acceptance).

Covers the fused flat-store replay path: coverage dispatch
(:func:`repro.core.kernels.supports`, the ``kernel_disabled`` pin, and
``cpu.run`` entering the kernel whatever the trace length), three-way
bit-identity between the object path, ``run_packed``, and
``run_kernel`` — on generated workloads and synthetic hit-dense,
miss-dominated, and alternating streams, including the 2P2L family
(dense and sparse block fill, duplicate-copy coherence) and dynamic
orientation prediction — the flat-store replacement edge cases (LRU age
saturation and compaction, stamp collisions under a fill on every
access, eviction tie-breaking, orientation-bit preservation across
evictions in same-set mode), the packed presence/dirty block-word
round-trips, and the numpy / pure-Python predecode equivalence.
"""

from __future__ import annotations

import pytest

from repro.cache.cache_2p2l import (
    BlockState,
    pack_block_word,
    unpack_block_word,
)
from repro.cache.hierarchy import CacheHierarchy
from repro.common.errors import SimulationError
from repro.common.stats import StatRegistry
from repro.common.types import (
    AccessWidth,
    Orientation,
    PackedTrace,
    Request,
)
from repro.core import kernels
from repro.core.cpu import TraceDrivenCpu
from repro.core.simulator import run_trace
from repro.core.system import make_system
from repro.sw.tracegen import generate_packed_trace, generate_trace
from repro.workloads.registry import build_workload

try:
    from hypothesis import given, settings
    from hypothesis import strategies as some
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis ships with the env
    HAVE_HYPOTHESIS = False

#: Designs the fused kernel covers (a physically 1-D L1, optionally a
#: 2P2L last level and dynamic orientation, LRU) and the ones that must
#: fall back to run_packed (a physically 2-D L1 needs per-request
#: block-state bookkeeping the flat stores do not model at L1).
COVERED = ("1P1L", "1P2L", "1P2L_SameSet", "1P2L_Dyn", "2P2L",
           "2P2L_Dense", "2P2L_SlowWrite")
UNCOVERED = ("2P2L_L1",)


#: Design name of :func:`_miss_system`, for parametrized cases.
MISS_SYSTEM = "L1+L2"


def _hierarchy(design, replacement="lru"):
    system = make_system(design, 1.0)
    return system, CacheHierarchy(system, StatRegistry(), replacement)


def _miss_system():
    """Two-level system whose 256KB SRAM second level (512 sets x 8
    ways) holds a multi-thousand-tile working set: every access of
    :func:`_wide_miss_trace` is an L1 miss served by the second
    level."""
    from repro.common.config import CpuConfig, MemoryConfig, \
        SystemConfig
    from repro.core.system import _l1, _llc_sram
    return SystemConfig(
        levels=[_l1(2),
                _llc_sram(256 * 1024, 2, "different_set", name="L2")],
        memory=MemoryConfig(), cpu=CpuConfig())


def _system(design):
    if design == MISS_SYSTEM:
        return _miss_system()
    return make_system(design, 1.0)


def _row_vector(tile, row):
    """A vector read of row line ``row`` in ``tile`` (see decoder.py)."""
    return Request(addr=((tile << 6) | (row << 3)) << 3,
                   orientation=Orientation.ROW,
                   width=AccessWidth.VECTOR,
                   is_write=False, ref_id=0)


def _hot_trace(n):
    """Vector reads cycling one tile's 8 row lines: hits after warmup."""
    return [_row_vector(0, i & 7) for i in range(n)]


def _strided_trace(n):
    """Vector reads striding distinct tiles: miss-dominated."""
    return [_row_vector(i % 4096, i & 7) for i in range(n)]


def _alternating_trace(n):
    """Alternating hit/miss rows: a hot tile interleaved with a stride."""
    reqs = []
    for i in range(n // 2):
        reqs.append(_row_vector(0, i & 7))
        reqs.append(_row_vector(16 + (i % 512), i & 7))
    return reqs


def _wide_miss_trace(n, tiles=3584):
    """Row-0 vector reads cycling ``tiles`` distinct tiles."""
    return [_row_vector(i % tiles, 0) for i in range(n)]


def _mixed_trace(n):
    """Runs of 64 hot-set reads alternating with runs of 64 misses."""
    return [_row_vector(i & 7, (i >> 3) & 7) if (i >> 6) & 1
            else _row_vector(64 + (i % 3072), 0) for i in range(n)]


#: Synthetic request streams replayed next to the generated workloads.
SYNTHETIC = {
    "hot": lambda: _hot_trace(12_288),
    "strided_miss": lambda: _strided_trace(24_583),
    "alternating": lambda: _alternating_trace(4096),
    "wide_miss": lambda: _wide_miss_trace(16_384),
    # 4608 tiles overflow the 4096-line second level: every set is
    # full, so every fill there evicts a victim.
    "thrash": lambda: _wide_miss_trace(16_384, tiles=4608),
    "mixed": lambda: _mixed_trace(16_384),
}


def _traces(workload, dims):
    """``(request list, packed trace)`` of a workload or synthetic
    stream, for the object and packed replay paths."""
    if workload in SYNTHETIC:
        objects = SYNTHETIC[workload]()
        return objects, PackedTrace.from_requests(objects)
    program = build_workload(workload, "small")
    return (list(generate_trace(program, dims)),
            generate_packed_trace(program, dims))


def _count_engines(monkeypatch):
    """Record the engine class of every kernel replay."""
    engines = []
    original = kernels.KernelEngine.replay

    def counting(self, trace, cpu_config, cpu_group):
        engines.append(type(self))
        return original(self, trace, cpu_config, cpu_group)

    monkeypatch.setattr(kernels.KernelEngine, "replay", counting)
    return engines


class TestSupports:
    @pytest.mark.parametrize("design", COVERED)
    def test_covered_designs(self, design):
        _, hierarchy = _hierarchy(design)
        assert kernels.supports(hierarchy)

    @pytest.mark.parametrize("design", UNCOVERED)
    def test_uncovered_designs_fall_back(self, design):
        _, hierarchy = _hierarchy(design)
        assert not kernels.supports(hierarchy)

    def test_non_lru_replacement_falls_back(self):
        _, hierarchy = _hierarchy("1P2L", replacement="fifo")
        assert not kernels.supports(hierarchy)

    def test_kernel_disabled_pin(self):
        _, hierarchy = _hierarchy("1P2L")
        assert kernels.supports(hierarchy)
        with kernels.kernel_disabled():
            assert not kernels.supports(hierarchy)
        assert kernels.supports(hierarchy)

    def test_kernel_disabled_restores_on_exception(self):
        # A failing test body inside the pin must not leak the pin
        # into the rest of the process.
        prior = kernels.KERNEL_ENABLED
        with pytest.raises(RuntimeError, match="boom"):
            with kernels.kernel_disabled():
                assert not kernels.KERNEL_ENABLED
                raise RuntimeError("boom")
        assert kernels.KERNEL_ENABLED == prior

    def test_kernel_disabled_nests(self):
        # Each block restores what *it* saw, so nesting is safe.
        with kernels.kernel_disabled():
            with kernels.kernel_disabled():
                assert not kernels.KERNEL_ENABLED
            assert not kernels.KERNEL_ENABLED
        assert kernels.KERNEL_ENABLED

    def test_kernel_disabled_rejects_reentry(self):
        cm = kernels.kernel_disabled()
        with cm:
            with pytest.raises(RuntimeError, match="entered twice"):
                cm.__enter__()
        assert kernels.KERNEL_ENABLED

    def test_kernel_disabled_restores_on_gc(self):
        # Belt-and-braces: an abandoned, entered context restores the
        # pin when collected (e.g. a generator-holding test that never
        # reached __exit__).
        cm = kernels.kernel_disabled()
        cm.__enter__()
        assert not kernels.KERNEL_ENABLED
        del cm
        assert kernels.KERNEL_ENABLED

    def test_sampler_falls_back_to_packed(self):
        # Occupancy sampling needs per-request callbacks the fused
        # loop elides; cpu.run must route sampled runs to run_packed
        # (observable: the kernel path never invokes the sampler).
        system = make_system("1P2L", 1.0)
        packed = generate_packed_trace(build_workload("sobel", "small"),
                                       system.logical_dims)
        stats = StatRegistry()
        cpu = TraceDrivenCpu(system.cpu,
                             CacheHierarchy(system, stats), stats)
        samples = []
        cpu.run(packed, sampler=lambda ops, now: samples.append(ops),
                sample_every=256)
        assert samples

    @pytest.mark.parametrize("length", [8191, 8192])
    def test_run_enters_the_kernel(self, monkeypatch, length):
        """``cpu.run`` replays a covered design on ``run_kernel`` on
        both sides of the 8192-request floor a batched engine once
        used: dispatch reads only the hierarchy and whether a sampler
        is attached, never the trace length."""
        engines = _count_engines(monkeypatch)
        system = make_system("1P2L", 1.0)
        stats = StatRegistry()
        cpu = TraceDrivenCpu(system.cpu,
                             CacheHierarchy(system, stats), stats)
        cpu.run(PackedTrace.from_requests(_hot_trace(length)))
        assert engines == [kernels.KernelEngine]


class TestKernelParity:
    @pytest.mark.parametrize("workload,design", [
        *((workload, design) for workload in ("htap1", "sobel", "sgemm")
          for design in COVERED),
        # Hit-dense, miss-dominated, and alternating hit/miss streams;
        # a pure L1-miss / L2-hit stream, one that thrashes the second
        # level, and runs of hits between runs of misses.
        ("hot", "1P2L"),
        ("strided_miss", "1P2L"),
        ("alternating", "1P2L"),
        ("wide_miss", MISS_SYSTEM),
        ("thrash", MISS_SYSTEM),
        ("mixed", MISS_SYSTEM),
    ])
    def test_three_way_bit_identity(self, workload, design):
        """Object path, run_packed, and run_kernel agree exactly."""
        objects, packed = _traces(workload,
                                  _system(design).logical_dims)

        via_objects = run_trace(_system(design), objects, name="t")
        with kernels.kernel_disabled():
            via_packed = run_trace(_system(design), packed, name="t")
        # run_trace replays covered designs on the scalar kernel.
        via_kernel = run_trace(_system(design), packed, name="t")
        assert via_kernel.cycles == via_objects.cycles
        assert via_kernel.ops == via_objects.ops
        assert via_kernel.stats.flat() == via_objects.stats.flat()
        assert via_kernel.stats.flat() == via_packed.stats.flat()

    @pytest.mark.parametrize("design,workload,age_limit", [
        *((design, "sgemm", 300) for design in COVERED),
        # Stamp collision: every access fills a line, so fills race
        # the limit.  It is shrunk enough to cross it about a dozen
        # times per replay, not so far that every access recompacts
        # the 3584 lines resident in the second level.
        (MISS_SYSTEM, "wide_miss", 5_000),
    ], ids=[*COVERED, "stamp_collision"])
    def test_age_saturation_compacts_and_preserves_order(
            self, monkeypatch, design, workload, age_limit):
        """Hitting AGE_LIMIT mid-run must not disturb LRU order.

        Shrinking the limit forces many in-place compactions; the run
        must stay bit-identical to the object path, whose LruSet never
        saturates.
        """
        compactions = []
        original = kernels._FlatStore._compact_ages

        def counting(store):
            compactions.append(store.level_index)
            original(store)

        monkeypatch.setattr(kernels, "AGE_LIMIT", age_limit)
        monkeypatch.setattr(kernels._FlatStore, "_compact_ages",
                            counting)
        _, packed = _traces(workload, _system(design).logical_dims)
        via_kernel = run_trace(_system(design), packed, name="t")
        assert compactions, "a shrunk AGE_LIMIT must force compactions"
        with kernels.kernel_disabled():
            reference = run_trace(_system(design), packed, name="t")
        assert via_kernel.cycles == reference.cycles
        assert via_kernel.stats.flat() == reference.stats.flat()


class TestReplacementEdgeCases:
    def test_lru_eviction_order_and_tie_break(self):
        """The single victim scan reproduces exact LRU order.

        Fill one L1 set, touch the oldest line (now MRU), then force
        two evictions; which lines survive pins down the victim choice
        (a first-minimal tie-break over the flat set scan, matching
        the insertion-ordered LruSet).
        """
        system = make_system("1P1L", 1.0)
        l1_cfg = system.levels[0]
        assoc, stride = l1_cfg.assoc, l1_cfg.num_sets
        # Tiles ``k * stride`` all map their row 0 to L1 set 0.
        tiles = [k * stride for k in range(assoc + 1)]
        reqs = [_row_vector(t, 0) for t in tiles[:assoc]]
        reqs.append(_row_vector(tiles[0], 0))   # touch A -> MRU
        reqs.append(_row_vector(tiles[-1], 0))  # miss: evicts B
        reqs.append(_row_vector(tiles[1], 0))   # B again: miss, evicts C
        reqs.append(_row_vector(tiles[0], 0))   # A survived: hit
        packed = PackedTrace.from_requests(reqs)

        via_kernel = run_trace(make_system("1P1L", 1.0), packed,
                               name="t")
        with kernels.kernel_disabled():
            reference = run_trace(make_system("1P1L", 1.0), packed,
                                  name="t")
        assert via_kernel.stats.flat() == reference.stats.flat()
        flat = via_kernel.stats.flat()
        assert flat["cache.L1.hits"] == 2
        assert flat["cache.L1.misses"] == assoc + 2
        assert flat["cache.L1.evictions"] == 2

    def test_orientation_bits_preserved_across_evictions(self):
        """Same-set mode: meta orientation always mirrors the tag.

        Rows and columns share sets under the same-set mapping, so
        evictions constantly replace one orientation with the other;
        every valid slot's orientation bit (meta bit 1) must track the
        installed tag's orientation bit, and ``slot_of`` must stay a
        perfect inverse of the tag array.
        """
        system = make_system("1P2L_SameSet", 1.0)
        stats = StatRegistry()
        hierarchy = CacheHierarchy(system, stats)
        packed = generate_packed_trace(build_workload("sgemm", "small"),
                                       system.logical_dims)
        engine = kernels.KernelEngine(hierarchy)
        engine.replay(packed, system.cpu, stats.group("cpu"))

        assert stats.flat()["cache.L1.evictions"] > 0
        l1_orients = set()
        for store in engine.levels:
            if not isinstance(store, kernels._Kernel2L):
                continue
            valid = 0
            for slot, meta in enumerate(store.meta):
                if not meta & 1:
                    continue
                valid += 1
                line = store.tags[slot]
                assert (meta >> 1) & 1 == (line >> 3) & 1
                assert store.slot_of[line] == slot
                if store is engine.levels[0]:
                    l1_orients.add((line >> 3) & 1)
            assert valid == len(store.slot_of)
        # The check is only meaningful if both orientations are live.
        assert l1_orients == {0, 1}


def _word(r, c, tile=0):
    """Byte address of tile cell (r, c) (see decoder.py)."""
    return ((tile << 6) | (r << 3) | c) << 3


def _scalar(addr, orientation, is_write=False, ref_id=0):
    return Request(addr=addr, orientation=orientation,
                   width=AccessWidth.SCALAR, is_write=is_write,
                   ref_id=ref_id)


class TestKernel2P2L:
    """The 2P2L family on the kernel path (PR-7 tentpole)."""

    def _three_way(self, design, reqs):
        packed = PackedTrace.from_requests(reqs)
        via_objects = run_trace(make_system(design, 1.0), list(reqs),
                                name="t")
        with kernels.kernel_disabled():
            via_packed = run_trace(make_system(design, 1.0), packed,
                                   name="t")
        via_kernel = run_trace(make_system(design, 1.0), packed,
                               name="t")
        for run in (via_packed, via_kernel):
            assert run.cycles == via_objects.cycles
            assert run.stats.flat() == via_objects.stats.flat()
        return via_objects.stats.flat()

    def test_duplicate_coherence_counters(self):
        """Duplicate evictions and cleans stay bit-identical.

        The trace forces both Fig. 9 transitions in the 1P2L levels
        above the 2P2L last level: a scalar write to a word resident
        in both orientations (Clean -> Invalid, ``duplicate_evictions``)
        and a vector-read fill crossing a dirty perpendicular line
        (Modified -> Clean, ``duplicate_cleans``).
        """
        R, C = Orientation.ROW, Orientation.COLUMN
        reqs = [
            _scalar(_word(0, 0), R),                  # row 0 resident
            _scalar(_word(1, 0), C),                  # col 0 resident
            _scalar(_word(0, 0), R, is_write=True),   # dup eviction
            _scalar(_word(2, 1), C, is_write=True),   # dirty col 1
            _row_vector(0, 2),                        # fill cleans it
        ]
        flat = self._three_way("2P2L", reqs)
        assert flat["cache.L1.duplicate_evictions"] == 1
        assert flat["cache.L1.duplicate_cleans"] == 1

    @pytest.mark.parametrize("design,key", [
        ("2P2L", "partial_block_hits"),
        ("2P2L_Dense", "dense_fill_lines"),
    ])
    def test_fill_mode_counters_exercised(self, design, key):
        """Sparse fills take partial-block hits; dense fills stream
        whole blocks — each mode's signature counter must fire (and
        match the object path bit for bit) on a real workload."""
        system = make_system(design, 1.0)
        packed = generate_packed_trace(build_workload("sgemm", "small"),
                                       system.logical_dims)
        via_kernel = run_trace(make_system(design, 1.0), packed,
                               name="t")
        with kernels.kernel_disabled():
            reference = run_trace(make_system(design, 1.0), packed,
                                  name="t")
        assert via_kernel.stats.flat() == reference.stats.flat()
        llc = system.levels[-1].name
        assert via_kernel.stats.flat()[f"cache.{llc}.{key}"] > 0

    def test_block_words_mirror_object_state(self):
        """The kernel's packed presence/dirty words reproduce the
        object path's per-block masks slot for slot after a replay."""
        system = make_system("2P2L", 1.0)
        stats = StatRegistry()
        hierarchy = CacheHierarchy(system, stats)
        packed = generate_packed_trace(build_workload("sgemm", "small"),
                                       system.logical_dims)
        engine = kernels.KernelEngine(hierarchy)
        engine.replay(packed, system.cpu, stats.group("cpu"))
        store = engine.levels[-1]
        assert isinstance(store, kernels._Kernel2P2L)

        ref_stats = StatRegistry()
        ref_hierarchy = CacheHierarchy(make_system("2P2L", 1.0),
                                       ref_stats)
        with kernels.kernel_disabled():
            cpu = TraceDrivenCpu(system.cpu, ref_hierarchy, ref_stats)
            cpu.run(packed)
        blocks = ref_hierarchy.levels[-1]._blocks
        assert blocks, "the workload must leave resident blocks"
        assert set(blocks) == set(store.slot_of)
        for tile, state in blocks.items():
            slot = store.slot_of[tile]
            assert store.present[slot] == state.presence_word()
            assert store.dirty[slot] == state.dirty_word()


class TestDynamicOrientation:
    """The flat orientation-predictor mirror (PR-7 tentpole)."""

    def _two_way(self, reqs):
        packed = PackedTrace.from_requests(reqs)
        via_objects = run_trace(make_system("1P2L_Dyn", 1.0),
                                list(reqs), name="t")
        via_kernel = run_trace(make_system("1P2L_Dyn", 1.0), packed,
                               name="t")
        assert via_kernel.cycles == via_objects.cycles
        assert via_kernel.stats.flat() == via_objects.stats.flat()
        return via_objects.stats.flat()

    def test_phase_relearning(self):
        """A column-walk phase overrides the static row preference;
        the following row-walk phase decays through the neutral band
        (static fallbacks) and re-learns ROW — counters bit-identical
        to the object predictor throughout."""
        R = Orientation.ROW
        reqs = [_scalar(_word(i % 8, 0), R, ref_id=7)
                for i in range(24)]
        reqs += [_scalar(_word(0, i % 8), R, ref_id=7)
                 for i in range(24)]
        flat = self._two_way(reqs)
        assert flat["cache.L1.orientation.overrides"] > 0
        assert flat["cache.L1.orientation.static_fallbacks"] > 0
        assert flat["cache.L1.orientation.predictions"] > 0

    def test_table_fifo_eviction(self):
        """More live references than table entries: the flat mirror
        must reproduce the object table's FIFO eviction order (and
        the resulting re-learning churn) exactly."""
        R = Orientation.ROW
        reqs = []
        for ref in range(100):
            for i in range(2):
                reqs.append(_scalar(_word(i, ref % 8, tile=ref % 4),
                                    R, ref_id=ref))
        flat = self._two_way(reqs)
        assert flat["cache.L1.orientation.table_evictions"] > 0


class TestPackedBlockWords:
    """Packed presence/dirty block words (cache_2p2l helpers)."""

    def test_known_packing(self):
        assert pack_block_word(0, 0) == 0
        assert pack_block_word(0xFF, 0) == 0x00FF
        assert pack_block_word(0, 0xFF) == 0xFF00
        assert unpack_block_word(0xA55A) == (0x5A, 0xA5)

    def test_bit_layout_matches_line_ids(self):
        # Bit ``line & 15``: rows (orientation 0) in the low byte,
        # columns (orientation 1) in the high byte.
        word = pack_block_word(1 << 3, 1 << 5)
        assert word & (1 << 3)        # row index 3
        assert word & (1 << (8 + 5))  # column index 5

    if HAVE_HYPOTHESIS:
        @settings(max_examples=200, deadline=None)
        @given(some.integers(0, 0xFF), some.integers(0, 0xFF))
        def test_pack_round_trip(self, rows, cols):
            word = pack_block_word(rows, cols)
            assert 0 <= word < (1 << 16)
            assert unpack_block_word(word) == (rows, cols)

        @settings(max_examples=200, deadline=None)
        @given(some.integers(0, 0xFFFF), some.integers(0, 0xFFFF))
        def test_block_state_round_trip(self, presence, dirty):
            state = BlockState.from_words(presence, dirty)
            assert state.presence_word() == presence
            assert state.dirty_word() == dirty


class TestPredecode:
    @pytest.mark.skipif(kernels._np is None, reason="numpy not present")
    def test_numpy_and_fallback_agree(self, monkeypatch):
        program = build_workload("sobel", "small")
        packed_2d = generate_packed_trace(program, 2)
        packed_1d = generate_packed_trace(program, 1)
        with_np_2l = kernels._predecode_2l(packed_2d.words)
        with_np_1l = kernels._predecode_1l(packed_1d.words)
        monkeypatch.setattr(kernels, "_np", None)
        assert kernels._predecode_2l(packed_2d.words) == with_np_2l
        assert kernels._predecode_1l(packed_1d.words) == with_np_1l

    def test_1l_rejects_column_lines(self, monkeypatch):
        column = Request(addr=0, orientation=Orientation.COLUMN,
                         width=AccessWidth.VECTOR, is_write=False,
                         ref_id=0)
        words = PackedTrace.from_requests([column]).words
        if kernels._np is not None:
            with pytest.raises(SimulationError):
                kernels._predecode_1l(words)
        monkeypatch.setattr(kernels, "_np", None)
        with pytest.raises(SimulationError):
            kernels._predecode_1l(words)
