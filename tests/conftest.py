"""Shared fixtures and fakes for the test suite."""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro.common.config import CacheLevelConfig, MemoryConfig
from repro.common.stats import StatRegistry
from repro.common.types import AccessWidth


class FakeLower:
    """A scripted lower level: fixed-latency fills, recorded writebacks.

    Stands in for the next cache level / memory in unit tests so a cache
    can be exercised in isolation.
    """

    level_index = 0

    def __init__(self, latency: int = 100) -> None:
        self.latency = latency
        self.fetches: List[Tuple[int, int]] = []      # (line_id, at)
        self.writebacks: List[Tuple[int, int, int]] = []  # (line, mask, at)

    def fetch_line(self, line_id: int, now: int,
                   width: AccessWidth) -> Tuple[int, int]:
        self.fetches.append((line_id, now))
        return now + self.latency, 0

    def writeback_line(self, line_id: int, dirty_mask: int,
                       now: int) -> int:
        self.writebacks.append((line_id, dirty_mask, now))
        return now + 1

    # -- convenience assertions -------------------------------------------

    def fetched_lines(self) -> List[int]:
        return [line for line, _ in self.fetches]

    def written_lines(self) -> List[int]:
        return [line for line, _, _ in self.writebacks]

    def written_words(self) -> set:
        """Every word covered by a writeback's dirty mask."""
        from repro.common.types import line_words
        words = set()
        for line, mask, _ in self.writebacks:
            for offset, word in enumerate(line_words(line)):
                if mask & (1 << offset):
                    words.add(word)
        return words


@pytest.fixture(autouse=True)
def _hermetic_faults(monkeypatch):
    """Keep fault injection out of tests that did not ask for it.

    ``REPRO_FAULTS`` arms the deterministic fault harness process-wide
    (by design — that is how the CI fault job exercises recovery
    paths), but unit tests asserting exact cache hit counts must stay
    hermetic; tests that want faults arm a plan explicitly via
    ``repro.experiments.faults.arm``.
    """
    from repro.experiments import faults
    monkeypatch.delenv(faults.ENV_VAR, raising=False)
    faults.disarm()
    yield
    faults.disarm()


@pytest.fixture(autouse=True)
def _restore_kernel_pin():
    """Restore the kernel-dispatch pin after every test.

    ``kernel_disabled()`` restores on exit itself, but a test that
    flips :data:`repro.core.kernels.KERNEL_ENABLED` directly and then
    fails would leak the pin into every later test; this snapshot makes
    the suite order-independent.
    """
    from repro.core import kernels
    prior = kernels.KERNEL_ENABLED
    yield
    kernels.KERNEL_ENABLED = prior


@pytest.fixture
def stats() -> StatRegistry:
    return StatRegistry()


@pytest.fixture
def lower() -> FakeLower:
    return FakeLower()


def small_config(name: str = "L1", size_kb: int = 1, assoc: int = 4,
                 logical_dims: int = 1, physical_dims: int = 1,
                 **kwargs) -> CacheLevelConfig:
    """A small cache level config for unit tests."""
    defaults = dict(
        name=name,
        size_bytes=size_kb * 1024,
        assoc=assoc,
        tag_latency=1,
        data_latency=1,
        sequential_tag_data=False,
        logical_dims=logical_dims,
        physical_dims=physical_dims,
    )
    defaults.update(kwargs)
    return CacheLevelConfig(**defaults)


@pytest.fixture
def memory_config() -> MemoryConfig:
    return MemoryConfig()


def run_trace_vector(system, trace, name: str = "t"):
    """:func:`repro.core.simulator.run_trace` pinned to the vector engine.

    ``TraceDrivenCpu.run`` never dispatches to the batched window
    replay, so tests holding it bit-identical to the other engines
    call :meth:`TraceDrivenCpu.run_vector` through this helper.
    """
    from repro.cache.hierarchy import CacheHierarchy
    from repro.core.cpu import TraceDrivenCpu
    from repro.core.simulator import RunResult
    stats = StatRegistry()
    cpu = TraceDrivenCpu(system.cpu, CacheHierarchy(system, stats), stats)
    cycles = cpu.run_vector(trace)
    return RunResult(system=system, workload=name, cycles=cycles,
                     ops=stats.group("cpu").get("ops"), stats=stats)
