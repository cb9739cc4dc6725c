"""The repository's benchmark: steady-state SRC workloads, one command.

    python3 perfbench/run.py --workload randwrite-destage --seed 101 \\
        --seconds 10 --trace 0

``--trace 0`` builds three fresh stacks (one sub-seed each), warms each
up, measures one fixed window on each (about
``--seconds`` of host time in all) and prints every end-to-end metric.
``--trace 1`` measures one window untraced and one traced, on fresh
stacks of the same sub-seed, prints the per-layer metrics and writes the
spans to ``.perfbench/spans-<workload>-seed<seed>.npz``.  A table comes
first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Exit status: 0 when every correctness check passed, 1 when one failed
(the JSON line is still printed, with every op counted as failed), 2
when the simulator sources are not present next to this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS_DIR = Path(".perfbench")

PER_LAYER_UNITS = {
    "self_s": "s", "rows": "count", "us_per_row": "us", "windows": "count",
    "rows_per_window": "rows", "declined_windows": "count",
    "scalar_rows": "count", "batched_share": "fraction", "calls": "count",
    "shard_calls": "count", "rows_per_shard_call": "rows",
    "vector_rows": "count", "vector_share": "fraction",
    "throttle_wait_s": "s", "us_per_call": "us", "write_mb": "MB",
    "read_mb": "MB", "overhead_frac": "fraction",
}


def _unit(name: str, described: dict) -> str:
    if name in described:
        return described[name][0]
    return PER_LAYER_UNITS.get(name.split(".", 1)[1], "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="size of the measured window, in host "
                             "seconds at the reference speed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench   # noqa: E402 - needs the sources on sys.path

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(bench.WORKLOADS)}")

    if args.trace:
        out = bench.run_traced(args.workload, args.seed, args.seconds,
                               spans_dir=SPANS_DIR)
    else:
        out = bench.run_untraced(args.workload, args.seed, args.seconds)
    errors = out["errors"]
    correct = not errors
    attempted = out["attempted"]
    failed = 0 if correct else attempted

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  repetitions passed {len(out['reps'])}")
    described = {**bench.END_TO_END, **bench.REPORTED}
    for name, value in out["metrics"].items():
        unit = _unit(name, described)
        better = described.get(name, ("", ""))[1]
        print(f"  {name:<30} {value:>16.6g} {unit:<9} {better}")
    print(f"  {'failed_ops_frac':<30} {failed / attempted:>16.6g} "
          f"{'fraction':<9} lower")
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)

    # The JSON carries the end-to-end or per-layer set only.
    names = (list(out["metrics"]) if args.trace else
             [n for n in bench.END_TO_END if n in out["metrics"]])
    metrics = {n: {"value": out["metrics"][n], "unit": _unit(n, described)}
               for n in names}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
