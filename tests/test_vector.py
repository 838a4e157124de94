"""The residue of the retired batched window replay engine.

:mod:`repro.core.vector` keeps only ``MIN_VECTOR_TRACE`` and a no-op
``vector_disabled`` pin, which the benchmark's engine census still
wraps runs in, and :meth:`repro.core.cpu.TraceDrivenCpu.run_vector` is a
stub that raises.  These cases check that the pin leaves replay
untouched: a covered design replays bit-identically on the object path,
on ``run_kernel``, and on ``run_kernel`` inside the pin, also under a
shrunk ``AGE_LIMIT`` that forces constant LRU stamp compaction, and the
run never reaches the stub.
"""

from __future__ import annotations

import pytest

from repro.core import kernels, vector
from repro.core.cpu import TraceDrivenCpu
from repro.core.simulator import run_trace
from repro.core.system import make_system
from repro.sw.tracegen import generate_packed_trace, generate_trace
from repro.workloads.registry import build_workload

#: Kernel-covered designs without dynamic orientation.
COVERED = ("1P1L", "1P2L", "1P2L_SameSet", "2P2L", "2P2L_Dense",
           "2P2L_SlowWrite")


def _count_engines(monkeypatch):
    """Record the engine class of every kernel replay, and fail on any
    call of the ``run_vector`` stub."""
    engines = []
    original = kernels.KernelEngine.replay

    def counting(self, trace, cpu_config, cpu_group):
        engines.append(type(self))
        return original(self, trace, cpu_config, cpu_group)

    def forbidden(self, trace):
        raise AssertionError("run() reached the run_vector stub")

    monkeypatch.setattr(kernels.KernelEngine, "replay", counting)
    monkeypatch.setattr(TraceDrivenCpu, "run_vector", forbidden)
    return engines


def _packed(design, workload):
    return generate_packed_trace(build_workload(workload, "small"),
                                 make_system(design, 1.0).logical_dims)


class TestVectorParity:
    @pytest.mark.parametrize("design", COVERED)
    @pytest.mark.parametrize("workload", ["sobel", "htap1"])
    def test_three_way_bit_identity(self, monkeypatch, design, workload):
        """Object path, run_kernel, and run_kernel under the pin agree."""
        system = make_system(design, 1.0)
        objects = list(generate_trace(build_workload(workload, "small"),
                                      system.logical_dims))
        packed = _packed(design, workload)

        via_objects = run_trace(make_system(design, 1.0), objects,
                                name="t")
        engines = _count_engines(monkeypatch)
        via_kernel = run_trace(make_system(design, 1.0), packed, name="t")
        with vector.vector_disabled():
            via_pinned = run_trace(make_system(design, 1.0), packed,
                                   name="t")
        assert engines == [kernels.KernelEngine] * 2
        assert via_kernel.cycles == via_objects.cycles
        assert via_kernel.ops == via_objects.ops
        assert via_kernel.stats.flat() == via_objects.stats.flat()
        assert via_pinned.cycles == via_kernel.cycles
        assert via_pinned.stats.flat() == via_kernel.stats.flat()

    @pytest.mark.parametrize("design", COVERED)
    def test_age_saturation_identity(self, monkeypatch, design):
        """Stamp compaction under the pin lands where it does outside.

        Shrinking AGE_LIMIT forces compaction constantly; the pinned
        run must match the unpinned kernel run and the object path,
        whose LruSet never saturates.
        """
        monkeypatch.setattr(kernels, "AGE_LIMIT", 300)
        system = make_system(design, 1.0)
        objects = list(generate_trace(build_workload("sgemm", "small"),
                                      system.logical_dims))
        packed = _packed(design, "sgemm")

        engines = _count_engines(monkeypatch)
        with vector.vector_disabled():
            via_pinned = run_trace(make_system(design, 1.0), packed,
                                   name="t")
        reference = run_trace(make_system(design, 1.0), packed, name="t")
        via_objects = run_trace(make_system(design, 1.0), objects,
                                name="t")
        assert engines == [kernels.KernelEngine] * 2
        assert via_pinned.cycles == reference.cycles
        assert via_pinned.stats.flat() == reference.stats.flat()
        assert via_pinned.cycles == via_objects.cycles
        assert via_pinned.stats.flat() == via_objects.stats.flat()
