#!/usr/bin/env python
"""CI gate: every figure configuration replays on its measured engine.

Usage::

    PYTHONPATH=src python benchmarks/check_kernel_coverage.py [BASELINE]

Recomputes the replay-engine dispatch of every planned figure
configuration (``repro.experiments.run_all.coverage_report``, the same
classification ``run_all --dry-run`` prints) and requires it to equal
the committed baseline (default:
``benchmarks/kernel_coverage_baseline.json``).

The baseline records the engine measured fastest on the figure traces
(docs/PERFORMANCE.md, "Kernel-coverage gate"), so a move in *either*
direction fails the build: a refactor pushed a figure config off the
kernel, or put it on an engine nobody measured for it.  A baseline
configuration missing from the current plan also fails.  Brand-new
configurations are reported and pass.  Every deliberate change
regenerates the baseline via
``python -m repro.experiments.run_all --dry-run --quiet``.

Exit status: 0 = OK, 1 = coverage regression, 2 = usage / unreadable
baseline.
"""

import json
import sys

DEFAULT_BASELINE = "benchmarks/kernel_coverage_baseline.json"


def _load(path):
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def check(baseline, current):
    """Diff dispatch maps; returns a list of hard failures."""
    failures = []
    for label, base_engine in sorted(baseline.items()):
        curr_engine = current.get(label)
        if curr_engine is None:
            failures.append(f"{label}: in the baseline ({base_engine}) "
                            f"but no longer planned — regenerate the "
                            f"baseline if this is deliberate")
        elif curr_engine != base_engine:
            failures.append(f"{label}: dispatched to {base_engine}, "
                            f"now {curr_engine}")
        else:
            print(f"  ok     {label}: {curr_engine}")
    for label in sorted(set(current) - set(baseline)):
        print(f"  new    {label}: {current[label]} (no baseline)")
    return failures


def print_dispatch_diff(baseline, current, out=None):
    """Full per-config dispatch table (old engine -> new engine).

    Printed on failure so the log shows every config's movement, not
    just the failing ones — a dispatch change usually moves several
    configs at once, and the unchanged rows locate which layer moved.
    """
    out = out or sys.stderr
    print("  per-config dispatch (old -> new):", file=out)
    for label in sorted(set(baseline) | set(current)):
        base = baseline.get(label, "absent")
        curr = current.get(label, "absent")
        marker = "  " if base == curr else "->"
        print(f"    {marker} {label}: {base} -> {curr}", file=out)


def main(argv):
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    baseline_path = argv[1] if len(argv) == 2 else DEFAULT_BASELINE
    baseline = _load(baseline_path)
    from repro.experiments.run_all import coverage_report
    current = coverage_report()
    print(f"kernel coverage gate: live plan vs baseline "
          f"{baseline_path}")
    failures = check(baseline, current)
    if failures:
        for failure in failures:
            print(f"  FAIL   {failure}", file=sys.stderr)
        print_dispatch_diff(baseline, current)
        return 1
    print("  coverage gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
