#!/usr/bin/env python
"""CI perf gate: compare a fresh bench run against the committed baseline.

Reads two ``bench_engine.py`` JSON payloads and fails (exit 1) if any
scenario present in the baseline regressed by more than ``--tolerance``
(default 25%) in wall-clock reqs/s, or disappeared from the fresh run.
Improvements and new scenarios pass.

The committed baseline was produced on one specific machine; CI runners
differ in absolute speed, which is exactly what the tolerance absorbs —
it is a guard against order-of-magnitude hot-path regressions, not a
microbenchmark court.  Tune with ``--tolerance`` (a fraction: 0.25 =
25%) if a runner class is persistently slower.

Scenario pairs ``X`` / ``X-scalar`` (a batched canonical row plus its
per-request oracle) are additionally gated on their *speedup ratio*,
which is immune to runner-speed differences: both numbers come from the
same machine and run.  ``--min-speedup NAME=FLOOR`` (repeatable) fails
the run if ``X``'s reqs/s falls below ``FLOOR x`` its ``X-scalar``
companion — the default floors guard the batched SRC write path from
silently decaying back toward the interpreter loop, and the cluster's
small-window row loop from falling back to engine declines.

Usage::

    python scripts/check_bench_regression.py \
        --baseline BENCH_engine.json --fresh BENCH_fresh.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load_scenarios(path: Path) -> dict:
    payload = json.loads(path.read_text())
    return {s["scenario"]: s for s in payload.get("scenarios", [])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="committed BENCH_engine.json")
    parser.add_argument("--fresh", type=Path, required=True,
                        help="JSON from the bench run under test")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional reqs/s drop per "
                             "scenario (default 0.25 = 25%%)")
    parser.add_argument("--min-speedup", action="append",
                        metavar="NAME=FLOOR",
                        default=None,
                        help="minimum batched/scalar reqs/s ratio for "
                             "scenario NAME (whose oracle is "
                             "NAME-scalar); repeatable; defaults "
                             "src/randwrite4k=5.0, "
                             "src/randwrite4k-obs=2.0 and "
                             "cluster/zipf-mixed=0.9")
    args = parser.parse_args(argv)
    speedup_floors = {}
    for spec in (args.min_speedup
                 if args.min_speedup is not None
                 else ["src/randwrite4k=5.0", "src/randwrite4k-obs=2.0",
                       "cluster/zipf-mixed=0.9"]):
        name, _, floor = spec.partition("=")
        try:
            speedup_floors[name] = float(floor)
        except ValueError:
            print(f"error: bad --min-speedup spec {spec!r}",
                  file=sys.stderr)
            return 2

    baseline = load_scenarios(args.baseline)
    fresh = load_scenarios(args.fresh)
    if not baseline:
        print(f"error: no scenarios in baseline {args.baseline}",
              file=sys.stderr)
        return 2

    failures = []
    width = max(len(name) for name in baseline)
    for name, base in sorted(baseline.items()):
        base_rps = base.get("reqs_per_sec") or 0
        got = fresh.get(name)
        if got is None:
            failures.append(name)
            print(f"{name:>{width}}: MISSING from fresh run (baseline "
                  f"{base_rps:,} req/s)")
            continue
        got_rps = got.get("reqs_per_sec") or 0
        change = (got_rps - base_rps) / base_rps if base_rps else 0.0
        verdict = "ok"
        if change < -args.tolerance:
            verdict = "REGRESSION"
            failures.append(name)
        print(f"{name:>{width}}: {base_rps:>9,} -> {got_rps:>9,} req/s "
              f"({change:+.1%})  {verdict}")

    # Batched-vs-scalar speedup gate: pairs come from the fresh run so
    # the ratio reflects one machine; floors are set far enough below
    # the recorded speedup that runner noise cannot trip them, while a
    # batch path that quietly fell back to the interpreter loop will.
    for name in sorted(n for n in fresh if f"{n}-scalar" in fresh):
        fast = fresh[name].get("reqs_per_sec") or 0
        slow = fresh[f"{name}-scalar"].get("reqs_per_sec") or 0
        ratio = fast / slow if slow else 0.0
        floor = speedup_floors.get(name)
        verdict = "ok" if floor is None else (
            "ok" if ratio >= floor else "BELOW FLOOR")
        if floor is not None and ratio < floor:
            failures.append(f"{name} speedup")
        floor_note = f" (floor {floor:.1f}x)" if floor is not None else ""
        print(f"{name:>{width}}: batched/scalar speedup "
              f"{ratio:.2f}x{floor_note}  {verdict}")

    if failures:
        print(f"\nFAIL: {len(failures)} scenario(s) regressed beyond "
              f"{args.tolerance:.0%}: {', '.join(failures)}",
              file=sys.stderr)
        return 1
    print(f"\nOK: no scenario regressed beyond {args.tolerance:.0%}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
