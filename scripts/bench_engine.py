#!/usr/bin/env python
"""Host-throughput benchmark for the simulator's hot paths.

Measures *wall-clock* requests per second — how fast the simulator
itself chews through the pipeline (issue → admit → service → retire),
not the simulated MB/s.  The numbers are the guard rail for hot-path
regressions; run it before and after touching ``repro.sim.engine``,
``repro.block.device``, ``repro.block.lifecycle``, ``repro.ssd.ftl``
or ``repro.core.src``, and let CI compare the result against the
committed baseline (``scripts/check_bench_regression.py``).

Scenarios
---------
* ``float/depth1``, ``float/depth32`` — Figure-2-style single-SSD
  stack, plain-float fast path (``submit``), 4 KiB random writes;
* ``submission/depth1``, ``submission/depth32`` — same stack through
  the split-phase ``Submission`` path (``submit_request``);
* ``src/randwrite4k`` — the full SRC stack (4 SSDs + origin) under
  4 KiB uniform-random writes, catching cache-layer and FTL
  regressions the raw-engine scenarios miss;
* ``src/randwrite4k-obs`` — the same stack with a live
  :class:`~repro.obs.recorder.ObsRecorder` attached, gating the
  telemetry bulk paths (the batched loop must keep its vector window
  with obs on, not decline to the scalar oracle);
* ``replay/msr-write`` — an MSR-style trace-replay segment (the Table
  6 "write" group) against the SRC stack: the trace-parsing + replay +
  cache path the paper's sweeps actually exercise;
* ``cluster/passthrough`` — the same random-write workload through a
  2-shard :class:`~repro.cluster.router.ShardRouter`, so the router's
  per-request overhead (hash, run-splitting, health checks) is gated
  against regressions alongside the stacks it fronts;
* ``cluster/zipf-mixed`` — 4 shards, 4 closed-loop Zipf(0.99) clients
  with 30% reads over half the cache: every engine window is a few
  rows, so this gates the router's row loop and ``submit_row``.

The stack scenarios run in *both* engine modes: the canonical
row measures the batched chunk path (``submit_chunk``), and a
``-scalar`` companion row measures the per-request oracle loop the
differential tests compare against, so a regression in either mode —
or in the batched/scalar speedup itself — trips the CI gate.  The
``float/*`` and ``submission/*`` scenarios stay scalar-only: they
benchmark the raw per-request engine against a bare SSD, which has no
vectorized submission surface.

The output JSON records the git SHA and the repro config (scale, fill,
seed) so BENCH artifacts from different CI runs are comparable::

    python scripts/bench_engine.py --requests 20000 --out BENCH_engine.json
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.common.chunks import DEFAULT_CHUNK_REQUESTS  # noqa: E402
from repro.common.units import KIB                      # noqa: E402
from repro.core.config import SrcConfig                 # noqa: E402
from repro.harness.context import (CACHE_SPACE,         # noqa: E402
                                   build_cluster, build_src)
from repro.obs.recorder import ObsRecorder, use         # noqa: E402
from repro.sim.engine import run_chunk_streams, run_streams  # noqa: E402
from repro.ssd.device import SSDDevice, precondition    # noqa: E402
from repro.ssd.spec import SATA_MLC_128                 # noqa: E402
from repro.workloads.fio import (uniform_random,        # noqa: E402
                                 uniform_random_chunks)
from repro.workloads.replay import replay_group         # noqa: E402
from repro.workloads.zipf import zipf_mixed_chunks      # noqa: E402

SCALE = 1 / 32
FILL = 0.90          # leave GC headroom so service cost stays typical
ZIPF_SHARDS = 4      # cluster/zipf-mixed: shards and clients
ZIPF_READ_FRACTION = 0.3
ZIPF_WARMUP = 30_000  # untimed requests before the cluster/zipf-mixed window


def _git_sha() -> str:
    try:
        return subprocess.check_output(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            stderr=subprocess.DEVNULL).decode().strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _build_ssd(seed: int) -> SSDDevice:
    ssd = SSDDevice(SATA_MLC_128.scaled(SCALE))
    precondition(ssd, fill_fraction=FILL)
    return ssd


def _best_of(times: int, scenario, *args, **kwargs) -> dict:
    """Run ``scenario`` ``times`` times, keep the fastest row.

    The speedup-gated pairs ride on ~0.2 s wall measurements, which on
    a shared host can swing ±30% run to run; best-of-N converges both
    sides of a ratio toward the machine's warm capability so the gate
    tests the code, not the scheduler.  Classic min-wall benchmarking.
    """
    rows = [scenario(*args, **kwargs) for _ in range(times)]
    return max(rows, key=lambda r: r["reqs_per_sec"] or 0)


def _best_of_pair(times: int, scenario, name: str, batched_requests: int,
                  scalar_requests: int, seed: int) -> list:
    """Best-of-``times`` rows for the pair ``name`` / ``name-scalar``.

    The two sides alternate (batched, scalar, batched, ...) so a swing
    in host speed lands on both halves of the speedup ratio instead of
    on whichever side happened to run during it.
    """
    fast, slow = [], []
    for _ in range(times):
        fast.append(scenario(name, batched_requests, seed, batched=True))
        slow.append(scenario(f"{name}-scalar", scalar_requests, seed))
    return [max(rows, key=lambda r: r["reqs_per_sec"] or 0)
            for rows in (fast, slow)]


def _result_row(name: str, extra: dict, completed: int, wall: float,
                simulated: float, queue_delay_us: float = 0.0) -> dict:
    return {
        "scenario": name,
        **extra,
        "requests": completed,
        "wall_seconds": round(wall, 4),
        "reqs_per_sec": round(completed / wall) if wall else None,
        "simulated_seconds": round(simulated, 4),
        "mean_queue_delay_us": queue_delay_us,
    }


def _scenario_engine(name: str, requests: int, iodepth: int,
                     submission: bool, seed: int) -> dict:
    ssd = _build_ssd(seed)
    span = int(ssd.size * FILL)
    if submission:
        def issue(req, now):
            return ssd.submit_request(req, now)
    else:
        def issue(req, now):
            return ssd.submit(req, now)
    stream = uniform_random(span, request_size=4 * KIB, seed=seed)
    wall_start = time.perf_counter()
    result = run_streams(issue, [stream], duration=float("inf"),
                         max_requests=requests, iodepth=iodepth)
    wall = time.perf_counter() - wall_start
    return _result_row(
        name, {"iodepth": iodepth, "submission_path": submission},
        result.completed_ops, wall, result.elapsed,
        round(result.queue_delay.mean * 1e6, 2)
        if result.queue_delay.count else 0.0)


def _run_target(target, span: int, requests: int, seed: int,
                batched: bool):
    """Drive ``target`` with 4 KiB random writes in either engine mode."""
    def issue(req, now):
        return target.submit(req, now)

    wall_start = time.perf_counter()
    if batched:
        stream = uniform_random_chunks(span, request_size=4 * KIB,
                                       seed=seed)
        result = run_chunk_streams(issue, [stream],
                                   duration=float("inf"),
                                   max_requests=requests,
                                   issue_chunk=target.submit_chunk)
    else:
        stream = uniform_random(span, request_size=4 * KIB, seed=seed)
        result = run_streams(issue, [stream], duration=float("inf"),
                             max_requests=requests)
    return result, time.perf_counter() - wall_start


def _scenario_src(name: str, requests: int, seed: int,
                  batched: bool = False) -> dict:
    """Full SRC stack under 4 KiB random writes.

    The span covers 4x the scaled cache window so the workload
    exercises segment appends, GC and destage rather than pure
    cold-miss traffic.
    """
    src = build_src(SCALE)
    span = min(src.size, 4 * src.config.cache_space)
    result, wall = _run_target(src, span, requests, seed, batched)
    return _result_row(name, {"stack": "src", "batched": batched},
                       result.completed_ops, wall, result.elapsed)


def _scenario_src_obs(name: str, requests: int, seed: int,
                      batched: bool = False) -> dict:
    """``src/randwrite4k`` with a live :class:`ObsRecorder` attached.

    Gates the telemetry bulk paths: with obs enabled the batched loop
    must stay on the vector window (histogram ``record_many``, chunked
    ``observe_io_chunk``) instead of declining to the scalar oracle,
    and the recorded telemetry is differential-tested to be
    bit-identical between the modes.
    """
    recorder = ObsRecorder()
    with use(recorder):
        src = build_src(SCALE)
    span = min(src.size, 4 * src.config.cache_space)
    result, wall = _run_target(src, span, requests, seed, batched)
    return _result_row(name, {"stack": "src", "obs": True,
                              "batched": batched},
                       result.completed_ops, wall, result.elapsed)


def _scenario_cluster(name: str, requests: int, seed: int,
                      batched: bool = False) -> dict:
    """Router overhead: random writes through a 2-shard cluster.

    Same workload shape as ``src/randwrite4k``; the delta between the
    two scenarios is the consistent-hash routing layer itself.
    """
    router = build_cluster(SCALE, n_shards=2)
    span = min(router.size,
               4 * next(iter(router.shards.values())).config.cache_space
               * len(router.shards))
    result, wall = _run_target(router, span, requests, seed, batched)
    return _result_row(name, {"stack": "cluster", "shards": 2,
                              "batched": batched},
                       result.completed_ops, wall, result.elapsed)


def zipf_cluster(seed: int,
                 chunk_requests: int = DEFAULT_CHUNK_REQUESTS):
    """The ``cluster/zipf-mixed`` stack and its clients.

    ``ZIPF_SHARDS`` shards split the cache window and the erase group
    (so each keeps the single stack's segment-group count), and as
    many Zipf(0.99) clients with ``ZIPF_READ_FRACTION`` reads share
    one hot set over half the cache.  Returns ``(router, sources)``.
    """
    config = SrcConfig(cache_space=CACHE_SPACE // ZIPF_SHARDS,
                       erase_group_size=(SrcConfig().erase_group_size
                                         // ZIPF_SHARDS))
    router = build_cluster(SCALE, n_shards=ZIPF_SHARDS, config=config)
    cache = sum(s.config.cache_space for s in router.shards.values())
    sources = zipf_mixed_chunks(cache // 2, ZIPF_READ_FRACTION,
                                n_streams=ZIPF_SHARDS, seed=seed,
                                chunk_requests=chunk_requests)
    return router, sources


def after_warmup(submit, submit_chunk, begin, warm_rows: int = 0,
                 sim_time: float = None):
    """Wrap a target's ``submit``/``submit_chunk`` so ``begin()`` runs
    once, at the first call after the warm-up.

    The warm-up ends after ``warm_rows`` served rows (a chunk call that
    would cross that count is clamped to end exactly there) or, with
    ``sim_time`` set, at the first call issued at or after that
    simulated time.  Returns the wrapped ``(submit, submit_chunk)``.
    """
    left = warm_rows
    started = False

    def tick(n: int, now: float) -> None:
        nonlocal left, started
        if not started and (left <= 0 if sim_time is None
                            else now >= sim_time):
            started = True
            begin()
        left -= n

    def issue(req, now):
        tick(1, now)
        return submit(req, now)

    def issue_chunk(rows, start, think, deadline, limit):
        nonlocal left
        if sim_time is None and left > 0:
            limit = min(limit, left) if limit else left
        tick(0, start)
        issue_t, done_t, n = submit_chunk(rows, start, think, deadline,
                                          limit)
        left -= n
        return issue_t, done_t, n

    return issue, issue_chunk


def run_after_warmup(target, sources, warmup: int, requests: int, begin,
                     batched: bool = True):
    """Run chunked ``sources`` through ``target`` for ``warmup`` then
    ``requests`` more requests, calling ``begin()`` at the first engine
    call after the warm-up.

    ``batched`` picks the engine loop: ``submit_chunk`` windows (clamped
    at the warm-up boundary, so it is exact) or the per-request loop
    over the same rows.
    """
    issue, issue_chunk = after_warmup(target.submit, target.submit_chunk,
                                      begin, warm_rows=warmup)
    return run_chunk_streams(
        issue, sources, duration=float("inf"),
        max_requests=warmup + requests,
        issue_chunk=issue_chunk if batched else None)


def _scenario_cluster_zipf(name: str, requests: int, seed: int,
                           batched: bool = False,
                           warmup: int = ZIPF_WARMUP) -> dict:
    """Many clients, small windows: the router's row loop, warm.

    Both modes drive the same chunked clients; the scalar twin runs
    them through the per-request loop.  The first ``warmup`` requests
    fill the caches and are not timed, so the row measures the warm
    steady state.
    """
    router, sources = zipf_cluster(seed)
    clock = []
    result = run_after_warmup(router, sources, warmup, requests,
                              lambda: clock.append(time.perf_counter()),
                              batched)
    end = time.perf_counter()
    wall = end - (clock[0] if clock else end)
    return _result_row(name, {"stack": "cluster", "shards": ZIPF_SHARDS,
                              "streams": ZIPF_SHARDS,
                              "read_fraction": ZIPF_READ_FRACTION,
                              "warmup": warmup, "batched": batched},
                       result.completed_ops - warmup, wall, result.elapsed)


def _scenario_replay(name: str, requests: int, seed: int,
                     batched: bool = False) -> dict:
    """MSR-style trace-replay segment against the SRC stack."""
    src = build_src(SCALE)
    wall_start = time.perf_counter()
    result = replay_group(src, "write", scale=SCALE,
                          duration=float("inf"), seed=seed,
                          max_requests=requests, batched=batched)
    wall = time.perf_counter() - wall_start
    return _result_row(name, {"stack": "src", "trace_group": "write",
                              "batched": batched},
                       result.completed_ops, wall, result.elapsed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=20000,
                        help="requests per scenario (default 20000; the "
                             "SRC/replay scenarios run half as many — "
                             "they cost more wall time per request)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path,
                        default=Path("BENCH_engine.json"))
    args = parser.parse_args(argv)

    # Every row runs best-of-2 (see _best_of; pairs alternate their
    # sides, see _best_of_pair): the absolute gate then compares
    # warm-machine numbers against warm-machine numbers, and the
    # speedup floors divide two measurements that both saw the machine
    # at its best.  src/randwrite4k runs best-of-3 to trim its worst
    # samples: its batched side is ~0.1 s of wall time, and its ratio
    # straddles the 5.0 floor on a small VM (docs/performance.md,
    # "What CI enforces").  Canonical stack rows measure the batched
    # chunk path; the -scalar companions gate the per-request oracle
    # loop.  The batched randwrite runs get more requests so their
    # (much shorter) wall time stays measurable.
    scenarios = [
        _best_of(2, _scenario_engine, "float/depth1", args.requests, 1,
                 False, args.seed),
        _best_of(2, _scenario_engine, "float/depth32", args.requests,
                 32, False, args.seed),
        _best_of(2, _scenario_engine, "submission/depth1",
                 args.requests, 1, True, args.seed),
        _best_of(2, _scenario_engine, "submission/depth32",
                 args.requests, 32, True, args.seed),
        *_best_of_pair(3, _scenario_src, "src/randwrite4k",
                       args.requests * 2, args.requests // 2, args.seed),
        *_best_of_pair(2, _scenario_src_obs, "src/randwrite4k-obs",
                       args.requests * 2, args.requests // 2, args.seed),
        *_best_of_pair(2, _scenario_replay, "replay/msr-write",
                       args.requests // 2, args.requests // 2, args.seed),
        *_best_of_pair(2, _scenario_cluster, "cluster/passthrough",
                       args.requests // 2, args.requests // 2, args.seed),
        *_best_of_pair(2, _scenario_cluster_zipf, "cluster/zipf-mixed",
                       args.requests // 2, args.requests // 2, args.seed),
    ]
    headline = min(s["reqs_per_sec"] for s in scenarios)
    payload = {
        "benchmark": "simulator host throughput (engine + SRC stack)",
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "config": {"scale": "1/32", "fill": FILL, "seed": args.seed},
        "requests_per_scenario": args.requests,
        "reqs_per_sec_min": headline,
        "scenarios": scenarios,
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    for s in scenarios:
        print(f"{s['scenario']:>20}: {s['reqs_per_sec']:>9,} req/s wall "
              f"({s['requests']} reqs in {s['wall_seconds']}s)")
    print(f"wrote {args.out} (min {headline:,} req/s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
