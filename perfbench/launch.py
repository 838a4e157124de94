"""Run a program entry point with the layer tracer installed.

``python3 perfbench/launch.py run_all ARGS...`` runs
``repro.experiments.run_all``; ``python3 perfbench/launch.py serve
ARGS...`` runs ``repro serve``.  Wrappers are installed before the
entry point starts (forked pool and serving workers inherit them) and
every process writes its span aggregate to ``$PERFBENCH_TRACE_DIR``.
Used only by the traced runs; untraced runs start the entry points
directly with ``python -m``.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from tracing import Tracer  # noqa: E402


def main() -> int:
    target, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(os.environ["PERFBENCH_TRACE_DIR"]).install()
    try:
        if target == "run_all":
            from repro.experiments.run_all import main as run_all_main
            run_all_main(argv)
            return 0
        if target == "serve":
            from repro.__main__ import main as repro_main
            return repro_main(["serve", *argv])
        raise SystemExit(f"unknown target {target!r}")
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main())
