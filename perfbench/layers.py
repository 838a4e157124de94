"""The layer table: which public entry points a traced run wraps.

Names follow ``<layer>.<entry>``; :mod:`metrics` turns the aggregates
into the per-layer metrics listed in ``BENCHMARK.json``.  Every class
in a group shares the group's name, so ``cache.lower`` covers the
inter-level ``fetch_line`` / ``writeback_line`` protocol of every
level class the object hierarchy or a replay engine builds (nothing
calls level 1 through it, so only levels below L1 are counted).
"""

from __future__ import annotations

from importlib import import_module

#: Replay entries of ``TraceDrivenCpu`` and their metric names.
CPU_ENTRIES = (("run_vector", "cpu.run_vector"),
               ("run_kernel", "cpu.run_kernel"),
               ("run_packed", "cpu.run_packed"),
               ("run", "cpu.run"))


def import_layers() -> None:
    """Import every module whose entry points are wrapped, so that a
    module-level function is patched in all modules that import it."""
    import repro.experiments.run_all  # noqa: F401
    import repro.service.master  # noqa: F401
    import repro.service.server  # noqa: F401


def install_layers(tracer) -> None:
    import_layers()
    from repro.cache.base import MemoryPort
    from repro.cache.cache_1p1l import Cache1P1L
    from repro.cache.cache_1p2l import Cache1P2L
    from repro.cache.cache_2p2l import Cache2P2L
    from repro.cache.hierarchy import CacheHierarchy
    from repro.common.types import PackedTrace
    from repro.core.cpu import TraceDrivenCpu
    from repro.mem.bank import CrosspointBank
    from repro.mem.controller import MemoryController
    from repro.mem.decoder import AddressDecoder
    from repro.mem.mda_memory import MdaMemory
    from repro.sw.tracestore import TraceStore
    from repro.tier.stacked import DieStackedTier
    # Packages re-export functions under their submodules' names
    # (``repro.experiments.run_all`` is also a function), so modules
    # are looked up by full name.
    kernels = import_module("repro.core.kernels")
    simulator = import_module("repro.core.simulator")
    run_all = import_module("repro.experiments.run_all")
    runner = import_module("repro.experiments.runner")
    supervisor = import_module("repro.experiments.supervisor")
    master = import_module("repro.service.master")
    tracegen = import_module("repro.sw.tracegen")

    def packed_words(_args, trace) -> None:
        tracer.count("tracegen.words", len(trace))

    def store_hit(_args, entry) -> None:
        if entry is not None:
            tracer.count("tracestore.hits")

    def runcache_hit(_args, result) -> None:
        if result is not None:
            tracer.count("runcache.hits")

    def object_point(args) -> None:
        if len(args) > 1 and not isinstance(args[1], PackedTrace):
            tracer.count("cpu.run.points")

    def engine_point(entry):
        def hook(_args) -> None:
            tracer.count(f"{entry}.points")
        return hook

    def keep_stats(args) -> None:
        tracer.keep_registry(args[2])

    def wq_depth(args) -> None:
        tracer.sample_wq_depth(args[0])

    tracer.wrap_function(tracegen, "generate_packed_trace",
                         "tracegen.packed", after=packed_words)
    tracer.wrap_function(tracegen, "generate_trace", "tracegen.object")
    tracer.wrap_method(TraceStore, "load", "tracestore.load",
                       after=store_hit)
    tracer.wrap_method(TraceStore, "store", "tracestore.store")
    tracer.wrap_method(CacheHierarchy, "__init__", "hierarchy.build")
    tracer.wrap_function(simulator, "run_simulation",
                         "simulator.run_simulation")
    for attr, name in CPU_ENTRIES:
        hook = object_point if attr == "run" else engine_point(name)
        tracer.wrap_method(TraceDrivenCpu, attr, name, before=hook)
    for cls in (Cache1P1L, Cache1P2L, Cache2P2L, kernels._Kernel1L,
                kernels._Kernel2L, kernels._Kernel2P2L):
        for attr in ("fetch_line", "writeback_line"):
            tracer.wrap_method(cls, attr, "cache.lower")
    for attr in ("fetch_line", "writeback_line"):
        tracer.wrap_method(DieStackedTier, attr, f"tier.{attr}")
        tracer.wrap_method(MemoryPort, attr, f"port.{attr}")
    for attr in ("read_line", "write_line", "finish"):
        tracer.wrap_method(MdaMemory, attr, f"memory.{attr}")
    tracer.wrap_method(MemoryController, "__init__", "controller.build",
                       before=keep_stats)
    tracer.wrap_method(MemoryController, "read_line",
                       "controller.read_line", before=wq_depth)
    tracer.wrap_method(MemoryController, "write_line",
                       "controller.write_line")
    tracer.wrap_method(CrosspointBank, "access", "bank.access")
    tracer.wrap_method(AddressDecoder, "decode_line",
                       "decoder.decode_line")
    tracer.wrap_function(runner, "simulate_run_key",
                         "runner.simulate_run_key")
    tracer.wrap_method(runner.RunCache, "load", "runcache.load",
                       after=runcache_hit)
    tracer.wrap_method(runner.RunCache, "store", "runcache.store")
    tracer.wrap_method(supervisor.Supervisor, "supervise",
                       "suite.supervise")
    tracer.wrap_function(master, "_worker_main", "serve.worker")

    # run_all looks its experiments up in a fresh table per call; wrap
    # each thunk so the parent-side time of every experiment is a span.
    table = run_all._experiments

    def experiments(runner_):
        return {name: (tracer.make_span(thunk, f"suite.exp.{name}"),
                       extract)
                for name, (thunk, extract) in table(runner_).items()}

    tracer.replace(run_all, "_experiments", experiments)
