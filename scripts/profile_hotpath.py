#!/usr/bin/env python
"""cProfile harness for the simulator's per-request hot paths.

Profiles the same stacks ``bench_engine.py`` measures and prints the
top functions by cumulative and internal time, so "where does a
request's wall-clock go?" has a one-command answer.  Use it before and
after touching the engine, the block layer, the FTL or SRC, and record
the before/after summary in ``docs/performance.md``.

Usage::

    PYTHONPATH=src python scripts/profile_hotpath.py                # engine
    PYTHONPATH=src python scripts/profile_hotpath.py --scenario src
    PYTHONPATH=src python scripts/profile_hotpath.py --scenario src-destage
    PYTHONPATH=src python scripts/profile_hotpath.py --scenario cluster-zipf
    PYTHONPATH=src python scripts/profile_hotpath.py --scenario msr-mixed
    PYTHONPATH=src python scripts/profile_hotpath.py --requests 50000 \
        --sort tottime --limit 40
    PYTHONPATH=src python scripts/profile_hotpath.py --out hot.pstats
    # then e.g.: python -m pstats hot.pstats   (or snakeviz/pyinstrument)

If ``pyinstrument`` happens to be installed, ``--pyinstrument`` renders
a wall-clock call tree instead; the cProfile path has no dependencies
beyond the standard library.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.common.chunks import DEFAULT_CHUNK_REQUESTS  # noqa: E402
from repro.common.units import KIB                      # noqa: E402
from repro.harness.context import build_src             # noqa: E402
from repro.obs.recorder import ObsRecorder, use         # noqa: E402
from repro.sim.engine import run_chunk_streams, run_streams  # noqa: E402
from repro.ssd.device import SSDDevice, precondition    # noqa: E402
from repro.ssd.spec import SATA_MLC_128                 # noqa: E402
from repro.workloads.fio import (uniform_random,        # noqa: E402
                                 uniform_random_chunks)
from repro.workloads.replay import replay_group         # noqa: E402

from bench_engine import (after_warmup, run_after_warmup,  # noqa: E402
                          zipf_cluster)

SCALE = 1 / 32
FILL = 0.90
# Requests that carry a fresh SRC stack past its first S2D collection.
DESTAGE_WARMUP = 150_000
# Requests that warm the cluster-zipf caches before profiling starts.
CLUSTER_WARMUP = 100_000
# Simulated seconds of msr-mixed replay before profiling starts (past
# the first S2S and S2D collections), and the replay's approximate row
# rate, which turns ``--requests`` into a simulated window.
MSR_WARMUP_S = 4.0
MSR_ROWS_PER_SIM_S = 12_000


def workload_engine(requests: int, seed: int, chunk_requests: int) -> None:
    """Single-SSD 4 KiB random writes — the raw engine/FTL path."""
    ssd = SSDDevice(SATA_MLC_128.scaled(SCALE))
    precondition(ssd, fill_fraction=FILL)
    stream = uniform_random(int(ssd.size * FILL), request_size=4 * KIB,
                            seed=seed)
    run_streams(lambda req, now: ssd.submit(req, now), [stream],
                duration=float("inf"), max_requests=requests)


def workload_src(requests: int, seed: int, chunk_requests: int) -> None:
    """Full SRC stack under 4 KiB random writes (scalar oracle loop)."""
    src = build_src(SCALE)
    span = min(src.size, 4 * src.config.cache_space)
    stream = uniform_random(span, request_size=4 * KIB, seed=seed)
    run_streams(lambda req, now: src.submit(req, now), [stream],
                duration=float("inf"), max_requests=requests)


def _src_batched(requests: int, seed: int, chunk_requests: int) -> None:
    src = build_src(SCALE)
    span = min(src.size, 4 * src.config.cache_space)
    stream = uniform_random_chunks(span, request_size=4 * KIB, seed=seed,
                                   chunk_requests=chunk_requests)
    run_chunk_streams(lambda req, now: src.submit(req, now), [stream],
                      duration=float("inf"), max_requests=requests,
                      issue_chunk=src.submit_chunk)


def workload_src_batched(requests: int, seed: int,
                         chunk_requests: int) -> None:
    """SRC stack through the chunked loop — the ``submit_chunk`` path."""
    _src_batched(requests, seed, chunk_requests)


def workload_src_obs_batched(requests: int, seed: int,
                             chunk_requests: int) -> None:
    """Chunked SRC run with telemetry attached (obs bulk paths)."""
    with use(ObsRecorder()):
        _src_batched(requests, seed, chunk_requests)


def workload_replay(requests: int, seed: int, chunk_requests: int) -> None:
    """MSR-style trace replay against the SRC stack."""
    src = build_src(SCALE)
    replay_group(src, "write", scale=SCALE, duration=float("inf"),
                 seed=seed, max_requests=requests)


def workload_replay_batched(requests: int, seed: int,
                            chunk_requests: int) -> None:
    """Chunked MSR replay — columnar generation + ``submit_chunk``."""
    src = build_src(SCALE)
    replay_group(src, "write", scale=SCALE, duration=float("inf"),
                 seed=seed, max_requests=requests, batched=True)


def workload_src_destage(requests: int, seed: int, chunk_requests: int,
                         begin) -> None:
    """Steady-state reclaim: S2S/S2D collections and origin destage.

    The default 20k-request scenarios never reach reclaim.  Here the
    batched SRC stack first runs ``DESTAGE_WARMUP`` requests (past its
    first S2D) unprofiled, then the same stream runs ``requests`` more
    under the profiler.
    """
    src = build_src(SCALE)
    stream = uniform_random_chunks(4 * src.config.cache_space,
                                   request_size=4 * KIB, seed=seed,
                                   chunk_requests=chunk_requests)
    run_after_warmup(src, [stream], DESTAGE_WARMUP, requests, begin)


def workload_cluster_zipf(requests: int, seed: int, chunk_requests: int,
                          begin) -> None:
    """``bench_engine.py``'s ``cluster/zipf-mixed`` stack, warm.

    Four closed-loop Zipf clients leave each engine call a horizon of
    a few rows: the router's row loop and the shards' ``submit_row``.
    ``CLUSTER_WARMUP`` requests (to a hit ratio of about 0.85) run
    unprofiled first.
    """
    router, sources = zipf_cluster(seed, chunk_requests)
    run_after_warmup(router, sources, CLUSTER_WARMUP, requests, begin)


def workload_msr_mixed(requests: int, seed: int, chunk_requests: int,
                       begin) -> None:
    """The paper's Table-6 "mixed" group, batched, warm.

    28 lockstep closed-loop threads leave each engine call a window of
    a few rows: SRC's short-window row service and the engine's
    per-window bookkeeping.  ``MSR_WARMUP_S`` simulated seconds run
    unprofiled first; then about ``requests`` rows are profiled (the
    window is simulated time, as in the replay itself).
    """
    src = build_src(SCALE)
    # replay_group declines every chunk call before its warm-up ends,
    # so the first submit_chunk call opens the profiled window.
    src.submit, src.submit_chunk = after_warmup(
        src.submit, src.submit_chunk, begin, sim_time=MSR_WARMUP_S)
    replay_group(src, "mixed", scale=SCALE,
                 duration=requests / MSR_ROWS_PER_SIM_S,
                 warmup=MSR_WARMUP_S, seed=seed, batched=True)


def _whole(workload):
    """A scenario profiled from stack construction on."""
    def run(requests: int, seed: int, chunk_requests: int, begin) -> None:
        begin()
        workload(requests, seed, chunk_requests)
    return run


# Each scenario calls ``begin`` where its profiled window opens.
SCENARIOS = {
    "engine": _whole(workload_engine),
    "src": _whole(workload_src),
    "src-batched": _whole(workload_src_batched),
    "src-obs-batched": _whole(workload_src_obs_batched),
    "src-destage": workload_src_destage,
    "cluster-zipf": workload_cluster_zipf,
    "msr-mixed": workload_msr_mixed,
    "replay": _whole(workload_replay),
    "replay-batched": _whole(workload_replay_batched),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scenario", choices=sorted(SCENARIOS),
                        default="engine")
    parser.add_argument("--requests", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--chunk-requests", type=int,
                        default=DEFAULT_CHUNK_REQUESTS,
                        help="rows per generated chunk in the batched "
                             "scenarios (default "
                             f"{DEFAULT_CHUNK_REQUESTS}); smaller "
                             "chunks stress the per-call dispatch, "
                             "larger ones the vector window")
    parser.add_argument("--sort", choices=("cumulative", "tottime"),
                        default="cumulative")
    parser.add_argument("--limit", type=int, default=25,
                        help="rows of profile output (default 25)")
    parser.add_argument("--out", type=Path, default=None,
                        help="also dump raw pstats data to this file")
    parser.add_argument("--pyinstrument", action="store_true",
                        help="use pyinstrument if installed (optional "
                             "dependency; cProfile needs nothing extra)")
    args = parser.parse_args(argv)

    workload = SCENARIOS[args.scenario]

    if args.pyinstrument:
        try:
            from pyinstrument import Profiler
        except ImportError:
            print("pyinstrument is not installed; falling back to "
                  "cProfile", file=sys.stderr)
        else:
            profiler = Profiler()
            workload(args.requests, args.seed, args.chunk_requests,
                     profiler.start)
            profiler.stop()
            print(profiler.output_text(unicode=True, color=False))
            return 0

    profile = cProfile.Profile()
    workload(args.requests, args.seed, args.chunk_requests, profile.enable)
    profile.disable()

    stats = pstats.Stats(profile)
    if args.out:
        stats.dump_stats(args.out)
        print(f"# wrote raw profile to {args.out}")
    print(f"# scenario={args.scenario} requests={args.requests} "
          f"seed={args.seed} sort={args.sort}")
    stats.sort_stats(args.sort).print_stats(args.limit)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
