"""Regenerate ``expected_digests.json``: the ``(cycles, ops,
stats.flat())`` digest of every figure point the draw can pick.

Run from the root of a checkout whose simulated results are the
reference (a change that claims only speed must leave them alone)::

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import harness  # noqa: E402
from draws import LARGE_2D, SHORT_1D, family_pools  # noqa: E402

#: Simulation processes (the reference host has 2 cores).
JOBS = 2


def candidates():
    """Every key some seed's draw can produce."""
    keys = []
    for family, pool in family_pools().items():
        if family == "1p1l":
            pool = [k for k in pool if k.workload in SHORT_1D]
        elif family not in LARGE_2D + ("resident", "sampled"):
            raise RuntimeError(f"unhandled family {family!r}")
        keys.extend(pool)
    return list(dict.fromkeys(keys))


def _digest(key):
    from repro.experiments.runner import simulate_run_key
    return harness.key_id(key), harness.result_digest(simulate_run_key(key))


def main() -> None:
    keys = candidates()
    with multiprocessing.get_context("spawn").Pool(JOBS) as pool:
        digests = dict(pool.map(_digest, keys, chunksize=1))
    path = os.path.join(HERE, "expected_digests.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(digests)} digests to {path}")


if __name__ == "__main__":
    main()
