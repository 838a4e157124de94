"""Residue of the retired batched window replay engine.

The engine measured slower than the scalar kernel
(:mod:`repro.core.kernels`) on every figure family, so it was deleted
(docs/PERFORMANCE.md §6).  Two names remain because the benchmark's
engine census still reads them: ``perfbench/figure_points.py`` and
``perfbench/test_perfbench.py`` are their only readers.  The benchmark
change that drops the census's vector pin deletes this module, together
with the :meth:`repro.core.cpu.TraceDrivenCpu.run_vector` stub.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from ..common.types import WINDOW_ALIGN

#: Trace-length landmark the benchmark draws around (8192 requests).
#: Dispatch does not read it.
MIN_VECTOR_TRACE = 2 * WINDOW_ALIGN


@contextmanager
def vector_disabled() -> Iterator[None]:
    """No-op: there is no vector engine left to disable."""
    yield
