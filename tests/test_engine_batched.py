"""Batched engine loop vs the scalar oracle, end to end (PR 8).

Every test runs the *same* chunked workload twice — once through the
batched loop (``issue_chunk`` wired to the target's ``submit_chunk``)
and once through the scalar loop (same ``ChunkStream`` sources, rows
materialized one ``Request`` at a time) — and requires the two runs to
be bit-identical: engine results, cache counters, mapping contents,
buffer order, device stats.  The scalar path is the oracle; the batch
path exists only as a faster spelling of it.

Also hosts the streaming-generator audit (satellite 3): workload
sources must be constant-memory iterators, and the bench scenarios must
never materialize full request lists.
"""

import importlib.util
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ShardRouter
from repro.common.chunks import (OP_CODE, OP_FLUSH, OP_READ,
                                 OP_TRIM, OP_WRITE, make_chunk, op_of,
                                 requests_from_chunk)
from repro.common.errors import DeviceFailedError
from repro.common.types import IoStats, LatencyStats, Op, Request
from repro.common.units import KIB, MIB, PAGE_SIZE
from repro.core.src import SrcCache
from repro.faults import FaultInjector, FaultPlan
from repro.hdd.backend import PrimaryStorage
from repro.obs import ObsRecorder
from repro.obs.recorder import attach
from repro.sim.engine import (ChunkStream, DeferredStats, Engine,
                              run_chunk_streams)
from repro.ssd.device import SSDDevice
from repro.tenancy import TenantRegistry
from repro.workloads.fio import (fio_job_chunk_streams, fio_job_streams,
                                 mixed_chunks, sequential, sequential_chunks,
                                 uniform_random, uniform_random_chunks)
from repro.workloads.msr import (MAX_REQUEST, TRACES, SyntheticTrace,
                                 build_group, build_group_chunks)
from repro.workloads.replay import replay_group
from repro.workloads.zipf import (ZipfSampler, zipf_chunks,
                                  zipf_mixed_chunks, zipf_requests)

from _stacks import TINY_DISK, TINY_SRC, TINY_SSD, make_src

REPO_ROOT = Path(__file__).resolve().parent.parent


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def _run(target, sources, batched, **kwargs):
    def issue(req, now):
        return target.submit(req, now)

    issue_chunk = target.submit_chunk if batched else None
    return run_chunk_streams(issue, sources, issue_chunk=issue_chunk,
                             **kwargs)


def _assert_src_state_equal(a, b):
    assert a.cstats.as_dict() == b.cstats.as_dict()
    assert a.srcstats.as_dict() == b.srcstats.as_dict()
    assert a.stats == b.stats
    for x, y in zip(a.ssds, b.ssds):
        assert x.stats == y.stats
    assert a.origin.stats == b.origin.stats
    assert (sorted(a.mapping.items(), key=lambda kv: kv[0])
            == sorted(b.mapping.items(), key=lambda kv: kv[0]))
    assert a.dirty_buf.peek() == b.dirty_buf.peek()
    assert a.clean_buf.peek() == b.clean_buf.peek()
    assert a.hotness.hot_count == b.hotness.hot_count
    assert a.hotness.references == b.hotness.references
    # Foreground latency samples feeding the rebuild back-off guard
    # (recorded only when rebuild_fg_p99 is set).
    assert list(a.repair.guard._samples) == list(b.repair.guard._samples)


def _differential(make_target, make_sources, check_state, **run_kwargs):
    """Run scalar and batched over fresh targets; demand bit-equality."""
    results = {}
    targets = {}
    for batched in (False, True):
        target = make_target()
        results[batched] = _run(target, make_sources(), batched,
                                **run_kwargs)
        targets[batched] = target
    assert results[True].as_dict() == results[False].as_dict()
    check_state(targets[False], targets[True])
    return results[False], targets[False]


# ----------------------------------------------------------------------
# SRC stack differentials
# ----------------------------------------------------------------------
def test_randwrite_gc_heavy_bit_identical():
    span = min(make_src().size, 4 * TINY_SRC.cache_space)
    result, src = _differential(
        make_src,
        lambda: [uniform_random_chunks(span, 4 * KIB, seed=21)],
        _assert_src_state_equal,
        max_requests=20000)
    stats = src.srcstats
    assert stats.s2s_collections + stats.s2d_collections > 0
    assert stats.segment_writes > 0
    assert result.completed_ops == 20000


def test_think_time_twait_flushes_bit_identical():
    span = min(make_src().size, 2 * TINY_SRC.cache_space)
    _, src = _differential(
        make_src,
        lambda: [uniform_random_chunks(span, 4 * KIB, seed=22)],
        _assert_src_state_equal,
        think_time=0.005, max_requests=2500)
    assert src.srcstats.timeout_flushes > 0


def test_multi_stream_interleaving_bit_identical():
    span = min(make_src().size, 4 * TINY_SRC.cache_space)

    def sources():
        return [uniform_random_chunks(span, 4 * KIB, seed=100 + i)
                for i in range(4)]

    _differential(make_src, sources, _assert_src_state_equal,
                  think_time=0.0005, max_requests=8000)


def test_mixed_reads_writes_bit_identical():
    """Read rows decline the write window: fallback paths must agree."""
    span = min(make_src().size, 2 * TINY_SRC.cache_space)
    result, src = _differential(
        make_src,
        lambda: [mixed_chunks(span, 0.5, seed=23)],
        _assert_src_state_equal,
        max_requests=8000)
    assert src.stats.read_ops > 0 and src.stats.write_ops > 0
    assert src.cstats.read_hits + src.cstats.read_misses > 0


def test_trim_rows_bit_identical():
    span = min(make_src().size, 2 * TINY_SRC.cache_space)

    def trim_mix(seed):
        rng = np.random.default_rng(seed)
        slots = span // PAGE_SIZE
        while True:
            offsets = rng.integers(0, slots, size=512) * PAGE_SIZE
            chunk = make_chunk(offsets, PAGE_SIZE)
            chunk["op"][rng.random(512) < 0.05] = OP_TRIM
            yield chunk

    _, src = _differential(
        make_src,
        lambda: [trim_mix(seed=24)],
        _assert_src_state_equal,
        max_requests=6000)
    assert src.stats.trim_ops > 0


def test_flush_rows_bit_identical():
    span = min(make_src().size, 2 * TINY_SRC.cache_space)
    _, src = _differential(
        make_src,
        lambda: [uniform_random_chunks(span, 4 * KIB, seed=25,
                                       flush_every=64)],
        _assert_src_state_equal,
        max_requests=6000)
    assert src.stats.flush_ops > 0


def test_large_requests_bit_identical():
    """Multi-page writes are non-conformant; the in-target scalar run
    must pace them exactly like per-request submission."""
    span = min(make_src().size, 2 * TINY_SRC.cache_space)
    _differential(
        make_src,
        lambda: [uniform_random_chunks(span, 32 * KIB, seed=26)],
        _assert_src_state_equal,
        max_requests=3000)


# ----------------------------------------------------------------------
# tenant admission (registry observers close the fast-path gates)
# ----------------------------------------------------------------------
def test_tenant_rows_bit_identical():
    vol_bytes = 8 * MIB
    vol_blocks = vol_bytes // PAGE_SIZE

    def build():
        cache = make_src()
        registry = TenantRegistry(cache)
        vols = [registry.create_volume(name, vol_bytes)
                for name in ("alice", "bob")]
        return cache, registry, vols

    def tenant_chunks(base_block, tenant_idx, seed):
        rng = np.random.default_rng(seed)
        while True:
            offsets = ((base_block
                        + rng.integers(0, vol_blocks, size=512))
                       * PAGE_SIZE)
            yield make_chunk(offsets, PAGE_SIZE, OP_WRITE,
                             tenant=tenant_idx)

    states = {}
    results = {}
    for batched in (False, True):
        cache, registry, vols = build()
        sources = [tenant_chunks(vols[0].base_block, 0, seed=30),
                   tenant_chunks(vols[1].base_block, 1, seed=31)]
        results[batched] = _run(cache, sources, batched,
                                max_requests=5000,
                                tenant_names=["alice", "bob"])
        states[batched] = (cache, registry)
    assert results[True].as_dict() == results[False].as_dict()
    _assert_src_state_equal(states[False][0], states[True][0])
    assert states[True][1].stats() == states[False][1].stats()
    doc = states[False][1].stats()
    assert doc["alice"]["cached_blocks"] > 0
    assert doc["bob"]["cached_blocks"] > 0


# ----------------------------------------------------------------------
# cluster passthrough
# ----------------------------------------------------------------------
_CLUSTER = ClusterConfig(n_shards=2, vnodes=8, slab_blocks=16,
                         migration_rate=0)


def _make_cluster():
    origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    shards = []
    for i in range(_CLUSTER.n_shards):
        ssds = [SSDDevice(TINY_SSD, name=f"s{i}t{j}")
                for j in range(TINY_SRC.n_ssds)]
        shards.append(SrcCache(ssds, origin, TINY_SRC))
    return ShardRouter(shards, origin, _CLUSTER)


def test_cluster_passthrough_bit_identical():
    span = min(_make_cluster().size,
               4 * TINY_SRC.cache_space * _CLUSTER.n_shards)

    def check(a, b):
        assert a.stats == b.stats
        assert a.clusterstats.as_dict() == b.clusterstats.as_dict()
        for slot in a.shards:
            _assert_src_state_equal(a.shards[slot], b.shards[slot])

    result, router = _differential(
        _make_cluster,
        lambda: [uniform_random_chunks(span, 4 * KIB, seed=27)],
        check,
        max_requests=8000)
    assert result.completed_ops == 8000
    # Both shards must have seen traffic or the run-splitting was moot.
    assert all(len(shard.mapping) > 0
               for shard in router.shards.values())


# ----------------------------------------------------------------------
# trace replay (warm-up snapshot + measurement window)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("group,warmup,think", [
    ("write", 0.0, 0.0),
    ("mixed", 0.05, 0.0),
    ("read", 0.0, 0.002),
])
def test_replay_group_batched_bit_identical(group, warmup, think):
    results = {}
    targets = {}
    for batched in (False, True):
        src = make_src()
        results[batched] = replay_group(
            src, group, scale=0.002, duration=float("inf"),
            warmup=warmup, seed=5, threads_per_trace=1,
            max_requests=5000, think_time=think, batched=batched)
        targets[batched] = src
    assert results[True].as_dict() == results[False].as_dict()
    _assert_src_state_equal(targets[False], targets[True])
    assert results[False].completed_ops > 0


# ----------------------------------------------------------------------
# engine fallback: a declining chunk fn degenerates to the scalar loop
# ----------------------------------------------------------------------
def test_always_declining_chunk_fn_matches_scalar_loop():
    span = 32 * MIB
    results = {}
    devices = {}
    for mode in ("scalar", "declining"):
        ssd = SSDDevice(TINY_SSD)

        def issue(req, now, _ssd=ssd):
            return _ssd.submit(req, now)

        issue_chunk = None
        if mode == "declining":
            def issue_chunk(rows, start, think, deadline, limit):
                return None, None, 0

        results[mode] = run_chunk_streams(
            issue, [uniform_random_chunks(span, 4 * KIB, seed=28)],
            issue_chunk=issue_chunk, max_requests=3000)
        devices[mode] = ssd
    assert (results["declining"].as_dict()
            == results["scalar"].as_dict())
    assert devices["declining"].stats == devices["scalar"].stats


# ----------------------------------------------------------------------
# generator equivalence: chunked builders vs their scalar oracles
# ----------------------------------------------------------------------
def test_zipf_sample_many_matches_repeated_sample():
    a = ZipfSampler(5000, theta=1.1, seed=42)
    b = ZipfSampler(5000, theta=1.1, seed=42)
    scalar = np.array([a.sample() for _ in range(4096)])
    assert np.array_equal(scalar, b.sample_many(4096))


def test_zipf_chunks_rows_match_zipf_requests():
    span = 16 * MIB
    chunks = zipf_chunks(span, seed=7)
    requests = zipf_requests(span, seed=7)
    rows = next(chunks)
    for i in range(len(rows)):
        req = next(requests)
        assert req.offset == int(rows["offset"][i])
        assert req.length == int(rows["length"][i])


def test_uniform_vector_rng_matches_scalar_draws():
    # The chunked generators' correctness rests on vector integer draws
    # consuming the PCG64 bitstream exactly like repeated scalar draws.
    a = np.random.default_rng(3)
    b = np.random.default_rng(3)
    vector = a.integers(0, 1000, size=256)
    scalar = np.array([b.integers(0, 1000) for _ in range(256)])
    assert np.array_equal(vector, scalar)


@pytest.mark.parametrize("name", ["prxy0", "src21"])
def test_msr_chunks_replay_the_scalar_state_machine(name):
    """Pin ``SyntheticTrace.chunks`` to an independent reimplementation
    of the columnar generator: per chunk, the draw order is (1) size
    exponentials, (2) sequential-continuation uniforms, (3) Zipf start
    candidates, (4) op uniforms; the sequential-run state machine then
    resolves each row from the precomputed draws (a continuation row's
    Zipf candidate is drawn but unused)."""
    spec = TRACES[name]
    scale, seed, n, per_chunk = 0.002, 9, 6000, 1024
    trace = SyntheticTrace(spec, region_start=128 * PAGE_SIZE,
                           scale=scale, seed=seed)
    n_blocks = trace.n_blocks
    rng = np.random.default_rng(seed)
    zipf = ZipfSampler(n_blocks, spec.skew_theta, seed=seed + 1)
    mean_pages = spec.mean_request_bytes / PAGE_SIZE
    theta = 1.0 / np.log(1.0 + 1.0 / (mean_pages - 1.0))
    next_seq = -1
    expected = []
    while len(expected) < n:
        sizes = np.minimum(
            MAX_REQUEST,
            (1 + rng.exponential(theta, per_chunk).astype(np.int64))
            * PAGE_SIZE)
        seq_hits = rng.random(per_chunk) < spec.seq_prob
        candidates = zipf.sample_many(per_chunk)
        op_draws = rng.random(per_chunk)
        for i in range(per_chunk):
            size = int(sizes[i])
            nblocks = size // PAGE_SIZE
            if next_seq >= 0 and seq_hits[i]:
                start_block = next_seq
            else:
                start_block = int(candidates[i])
            start_block = max(0, min(start_block, n_blocks - nblocks))
            next_seq = start_block + nblocks
            if next_seq + nblocks > n_blocks:
                next_seq = -1
            op = OP_READ if op_draws[i] < spec.read_ratio else OP_WRITE
            expected.append((128 * PAGE_SIZE + start_block * PAGE_SIZE,
                             size, op))
    expected = expected[:n]
    got = []
    for chunk in trace.chunks(chunk_requests=per_chunk):
        for i in range(len(chunk)):
            got.append((int(chunk["offset"][i]), int(chunk["length"][i]),
                        int(chunk["op"][i])))
            if len(got) == n:
                break
        if len(got) == n:
            break
    assert got == expected


def test_build_group_chunks_matches_build_group():
    streams, span_s = build_group("mixed", scale=0.002, seed=4,
                                  threads_per_trace=1)
    chunk_streams, span_c = build_group_chunks("mixed", scale=0.002,
                                               seed=4,
                                               threads_per_trace=1)
    assert span_s == span_c
    assert len(streams) == len(chunk_streams)
    for stream, chunk_stream in list(zip(streams, chunk_streams))[:3]:
        rows = next(chunk_stream)
        for i in range(300):
            req = next(stream)
            assert req.offset == int(rows["offset"][i])
            assert req.length == int(rows["length"][i])
            assert (req.op is Op.READ) == (int(rows["op"][i]) == OP_READ)


def test_fio_job_chunk_streams_same_seeds():
    span = 16 * MIB
    scalar = fio_job_streams(span, iodepth=2, threads=2, seed=3)
    chunked = fio_job_chunk_streams(span, iodepth=2, threads=2, seed=3)
    assert len(scalar) == len(chunked)
    for stream, chunk_stream in zip(scalar, chunked):
        rows = next(chunk_stream)
        for i in range(64):
            assert next(stream).offset == int(rows["offset"][i])


# ----------------------------------------------------------------------
# streaming audit (satellite 3): constant-memory iterators everywhere
# ----------------------------------------------------------------------
def _assert_lazy(source):
    assert iter(source) is source, f"{source!r} is not an iterator"
    assert not isinstance(source, (list, tuple))
    assert not hasattr(source, "__len__"), \
        f"{source!r} looks like a materialized sequence"


def test_workload_sources_are_lazy_iterators():
    span = 16 * MIB
    trace = SyntheticTrace(TRACES["prxy0"], scale=0.001, seed=1)
    singles = [
        uniform_random(span), uniform_random_chunks(span),
        sequential(span), sequential_chunks(span),
        mixed_chunks(span, 0.5),
        zipf_requests(span), zipf_chunks(span),
        trace.requests(), trace.chunks(),
    ]
    for source in singles:
        _assert_lazy(source)
    streams, _ = build_group("read", scale=0.001, threads_per_trace=1)
    chunk_streams, _ = build_group_chunks("read", scale=0.001,
                                          threads_per_trace=1)
    for source in streams + chunk_streams + fio_job_streams(span):
        _assert_lazy(source)


def test_chunk_generators_run_in_constant_memory():
    span = 64 * MIB
    sources = [
        uniform_random_chunks(span, seed=1),
        sequential_chunks(span),
        zipf_chunks(span, seed=2),
        mixed_chunks(span, 0.5, seed=3),
        SyntheticTrace(TRACES["prxy0"], scale=0.002, seed=4).chunks(),
    ]
    for source in sources:     # setup allocations (CDF tables, perms)
        next(source)
    tracemalloc.start()
    for _ in range(12):
        for source in sources:
            next(source)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # 60 chunks of 4096 rows streamed through ~5 sources must not
    # accumulate: peak is a few transient chunks, not 60 x 132 KiB.
    assert peak < 8 * MIB


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_engine_audit", REPO_ROOT / "scripts" / "bench_engine.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_scenarios_never_materialize_request_lists():
    from repro.common.types import IoStats, LatencyStats
    from repro.sim.engine import RunResult
    from repro.workloads.replay import ReplayResult

    bench = _load_bench_module()
    bench.precondition = lambda ssd, fill_fraction: None
    seen = []

    def fake_run_streams(issue, sources, **kwargs):
        for source in sources:
            _assert_lazy(source)
        seen.append(len(sources))
        return RunResult(elapsed=1.0, stats=IoStats(),
                         latency=LatencyStats(), completed_ops=1)

    def fake_run_chunk_streams(issue, sources, **kwargs):
        for source in sources:
            _assert_lazy(source)
        seen.append(("chunks", len(sources)))
        return RunResult(elapsed=1.0, stats=IoStats(),
                         latency=LatencyStats(), completed_ops=1)

    def fake_replay_group(target, group, **kwargs):
        seen.append("replay")
        return ReplayResult(group=group, elapsed=1.0, app_bytes=0,
                            read_bytes=0, write_bytes=0, completed_ops=1,
                            io_amplification=0.0, hit_ratio=0.0,
                            ssd_bytes=0, origin_bytes=0)

    bench.run_streams = fake_run_streams
    bench.run_chunk_streams = fake_run_chunk_streams
    bench.replay_group = fake_replay_group
    rows = [
        bench._scenario_engine("float/depth1", 10, 1, False, 1),
        bench._scenario_engine("submission/depth32", 10, 32, True, 1),
        bench._scenario_src("src/randwrite4k", 10, 1, batched=True),
        bench._scenario_src("src/randwrite4k-scalar", 10, 1),
        bench._scenario_src_obs("src/randwrite4k-obs", 10, 1,
                                batched=True),
        bench._scenario_cluster("cluster/passthrough", 10, 1,
                                batched=True),
        bench._scenario_replay("replay/msr-write", 10, 1, batched=True),
        bench._scenario_cluster_zipf("cluster/zipf-mixed", 10, 1,
                                     batched=True),
        bench._scenario_cluster_zipf("cluster/zipf-mixed-scalar", 10, 1),
    ]
    assert len(seen) == 9
    assert all(row["scenario"] for row in rows)


# ----------------------------------------------------------------------
# fault differentials (armed plans close the chunk gate; the engine's
# scalar fallback must remain bit-identical to the scalar loop)
# ----------------------------------------------------------------------
def _make_injected_src(plans=None):
    """A TINY_SRC cache whose members are FaultInjector-wrapped SSDs."""
    plans = plans or {}
    ssds = [FaultInjector(SSDDevice(TINY_SSD, name=f"tiny{i}"),
                          plans.get(i))
            for i in range(TINY_SRC.n_ssds)]
    backend = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    return SrcCache(ssds, backend, TINY_SRC)


def test_fault_plan_activation_flips_chunk_gate_mid_run():
    """Arming a member's plan by assignment must invalidate the cached
    fast-path verdict immediately — no request traffic in between."""
    src = _make_injected_src()
    assert src._chunk_fast_ok(0.0)
    rows = make_chunk([0, PAGE_SIZE], PAGE_SIZE)

    _, _, n = src.submit_chunk(rows, 0.0, 0.0, float("inf"), 0)
    assert n == 2

    src.ssds[0].plan = FaultPlan(seed=7).limp_window(0.0, 1e9, 4.0)
    assert not src._chunk_fast_ok(0.0)
    _, _, n = src.submit_chunk(rows, 1.0, 0.0, float("inf"), 0)
    assert n == 0                      # declined -> engine goes scalar

    src.ssds[0].disarm()
    assert src._chunk_fast_ok(0.0)
    _, _, n = src.submit_chunk(rows, 2.0, 0.0, float("inf"), 0)
    assert n == 2


def _fault_differential(plan_factories, seed, max_requests=6000):
    """Scalar vs batched over identically-faulted fresh stacks."""
    span = 2 * TINY_SRC.cache_space
    results = {}
    targets = {}
    for batched in (False, True):
        target = _make_injected_src(
            {i: make() for i, make in plan_factories.items()})
        sources = [mixed_chunks(span, 0.5, seed=seed)]
        results[batched] = _run(target, sources, batched,
                                max_requests=max_requests)
        targets[batched] = target
    assert results[True].as_dict() == results[False].as_dict()
    _assert_src_state_equal(targets[False], targets[True])
    for x, y in zip(targets[False].ssds, targets[True].ssds):
        assert x.injected == y.injected
    return results[False], targets[False]


def test_fail_stop_plan_bit_identical():
    """A member dying mid-run degrades the array identically in both
    paths (reads reconstruct, RAID-5, no spare to attach)."""
    _, src = _fault_differential(
        {1: lambda: FaultPlan(seed=3).fail_stop(2e-3)}, seed=41)
    assert src.ssds[1].injected["fail-stop"] > 0
    assert src.repair.missing_members() == 1
    assert not src.bypass


def test_fail_slow_plan_bit_identical():
    """A limping member stretches completions identically."""
    _, src = _fault_differential(
        {0: lambda: FaultPlan(seed=3).limp_window(0.0, 1e9, 6.0)},
        seed=42)
    assert src.ssds[0].injected["limp"] > 0


def test_transient_window_plan_bit_identical():
    """Seeded transient errors draw from the same RNG sequence in both
    paths (the gate declines, so the same requests hit the injector in
    the same order) — retries and give-ups must match exactly."""
    _, src = _fault_differential(
        {2: lambda: FaultPlan(seed=9).transient_window(0.0, 1e9, 0.2)},
        seed=43)
    assert src.ssds[2].injected["transient"] > 0
    assert src.srcstats.retries > 0


def test_mid_run_arming_switches_batched_to_scalar_fallback():
    """A plan armed partway through the stream flips the gate between
    chunks: the vectorized prefix and the scalar-fallback suffix must
    still compose to a bit-identical run."""
    span = 2 * TINY_SRC.cache_space

    def arming_chunks(cache, seed, arm_after):
        rng = np.random.default_rng(seed)
        slots = span // PAGE_SIZE
        n = 0
        while True:
            offsets = rng.integers(0, slots, size=512) * PAGE_SIZE
            yield make_chunk(offsets, PAGE_SIZE)
            n += 1
            if n == arm_after:
                cache.ssds[0].plan = (
                    FaultPlan(seed=5).limp_window(0.0, 1e9, 3.0))

    results = {}
    targets = {}
    for batched in (False, True):
        target = _make_injected_src()
        sources = [arming_chunks(target, seed=44, arm_after=4)]
        results[batched] = _run(target, sources, batched,
                                max_requests=6000)
        targets[batched] = target
    assert results[True].as_dict() == results[False].as_dict()
    _assert_src_state_equal(targets[False], targets[True])
    assert targets[True].ssds[0].injected["limp"] > 0
    assert not targets[True]._chunk_fast_ok(0.0)


# ----------------------------------------------------------------------
# row-native small windows: the router's row loop and SrcCache.submit_row
# ----------------------------------------------------------------------
_CLUSTER4 = ClusterConfig(n_shards=4, vnodes=8, slab_blocks=16,
                          migration_rate=0)


def _make_cluster4(config=TINY_SRC, plans=None):
    """A 4-shard TINY cluster; ``plans`` maps ``(shard, ssd)`` to a
    FaultPlan (those members sit behind a FaultInjector)."""
    plans = plans or {}
    origin = PrimaryStorage(n_disks=4, disk_spec=TINY_DISK)
    shards = []
    for i in range(_CLUSTER4.n_shards):
        ssds = []
        for j in range(config.n_ssds):
            ssd = SSDDevice(TINY_SSD, name=f"s{i}t{j}")
            if (i, j) in plans:
                ssd = FaultInjector(ssd, plans[(i, j)])
            ssds.append(ssd)
        shards.append(SrcCache(ssds, origin, config))
    return ShardRouter(shards, origin, _CLUSTER4)


def _run_logged(target, sources, batched, **kwargs):
    """:func:`_run` that also logs every completed row.

    Returns the engine result, the sorted per-row log of
    ``(issue, done, op, offset, length)`` — the issue/done columns,
    comparable across modes whatever order the rows completed in — and
    counts of what the chunk path itself served.
    """
    log = []
    counts = {"windows": 0, "declined": 0, "rows": 0, "reads": 0,
              "multi_page": 0}

    def issue(req, now):
        done = target.submit(req, now)
        log.append((now, done, OP_CODE[req.op], req.offset, req.length))
        return done

    def issue_chunk(rows, start, think, deadline, limit):
        issue_t, done_t, n = target.submit_chunk(rows, start, think,
                                                 deadline, limit)
        head = rows[:n]
        log.extend(zip(np.asarray(issue_t).tolist(),
                       np.asarray(done_t).tolist(), head["op"].tolist(),
                       head["offset"].tolist(), head["length"].tolist()))
        counts["windows"] += 1
        counts["declined"] += n == 0
        counts["rows"] += n
        counts["reads"] += int(np.count_nonzero(head["op"] == OP_READ))
        counts["multi_page"] += int(np.count_nonzero(
            (head["offset"] % PAGE_SIZE + head["length"]) > PAGE_SIZE))
        return issue_t, done_t, n

    result = run_chunk_streams(issue, sources,
                               issue_chunk=issue_chunk if batched else None,
                               **kwargs)
    return result, sorted(log), counts


def _assert_cluster_state_equal(a, b):
    assert a.stats == b.stats
    assert a.clusterstats.as_dict() == b.clusterstats.as_dict()
    for slot in a.shards:
        assert a.slot_serving(slot) == b.slot_serving(slot)
        _assert_src_state_equal(a.shards[slot], b.shards[slot])


def _cluster_differential(make_router, make_sources, **run_kwargs):
    """Forced-scalar vs batched over fresh clusters: engine results,
    per-row issue/done columns and every counter must match.  Returns
    the batched router and its chunk-path counts."""
    runs = {}
    for batched in (False, True):
        router = make_router()
        runs[batched] = (router,) + _run_logged(router, make_sources(),
                                                batched, **run_kwargs)
    assert runs[True][1].as_dict() == runs[False][1].as_dict()
    assert runs[True][2] == runs[False][2]
    _assert_cluster_state_equal(runs[False][0], runs[True][0])
    return runs[True][0], runs[True][3]


_ZIPF_SPAN = 2 * TINY_SRC.cache_space   # half the 4-shard cache


def test_cluster_zipf_mixed_tiny_horizons_bit_identical():
    """4 Zipf clients, 30% reads: every window is a few rows, served
    by the router's row loop — reads included — not declined."""
    router, counts = _cluster_differential(
        _make_cluster4,
        lambda: zipf_mixed_chunks(_ZIPF_SPAN, 0.3, n_streams=4, seed=51),
        max_requests=6001)   # the last window is cut by the limit
    assert counts["reads"] > 1000
    assert counts["declined"] < 0.01 * counts["rows"]
    assert counts["rows"] > 0.99 * 6001
    cs = router.clusterstats
    assert cs.routed_reads > 0 and cs.routed_writes > 0
    assert sum(s.cstats.read_hits for s in router.shards.values()) > 0
    assert sum(s.srcstats.segment_writes
               for s in router.shards.values()) > 0


def _ragged_chunks(span, seed, read_fraction=0.4):
    """Half plain 4 KiB writes, half reads/writes of 512 B..32 KiB at
    512 B alignment: multi-page, unaligned, and (16-block slabs)
    often straddling two owners."""
    rng = np.random.default_rng(seed)
    sectors = span // 512 - 64
    while True:
        n = 512
        offsets = rng.integers(0, sectors, size=n) * 512
        lengths = rng.integers(1, 65, size=n) * 512
        plain = rng.random(n) < 0.5
        offsets[plain] = offsets[plain] // PAGE_SIZE * PAGE_SIZE
        lengths[plain] = PAGE_SIZE
        chunk = make_chunk(offsets, lengths)
        chunk["op"][~plain & (rng.random(n) < 2 * read_fraction)] = OP_READ
        yield chunk


@pytest.mark.parametrize("n_streams", [1, 4])
def test_cluster_ragged_straddling_rows_bit_identical(n_streams):
    """One stream takes the non-conformant-head and short-run loops,
    four take the tiny-horizon loop; straddlers split per owner run."""
    router, counts = _cluster_differential(
        _make_cluster4,
        lambda: [_ragged_chunks(_ZIPF_SPAN, seed=60 + i)
                 for i in range(n_streams)],
        max_requests=4000)
    assert router.clusterstats.straddled_requests > 0
    assert counts["multi_page"] > 0 and counts["reads"] > 0
    assert counts["declined"] < 0.01 * counts["rows"]


def test_cluster_shard_with_obs_falls_back_bit_identical():
    """A shard with live telemetry serves router rows through its
    ``submit`` (the Request is what it observes); the recorded
    histograms and events match the forced-scalar run."""
    recorders = []

    def make():
        router = _make_cluster4()
        recorders.append(ObsRecorder())
        attach(router.shards[1], recorders[-1])
        return router

    router, counts = _cluster_differential(
        make,
        lambda: zipf_mixed_chunks(_ZIPF_SPAN, 0.3, n_streams=4, seed=52),
        max_requests=4000)
    assert not router.obs.enabled
    scalar, batched = recorders
    assert (batched.telemetry(include_events=True)
            == scalar.telemetry(include_events=True))
    assert batched.device_latency(router.shards[1].name).count > 0
    assert counts["declined"] < 0.01 * counts["rows"]


def test_cluster_failed_slot_rows_go_back_to_the_engine():
    """Rows owned by a failed slot stop the row loop; the engine's
    scalar path serves them from the origin."""
    def make():
        router = _make_cluster4()
        router.fail_shard(2, 0.0)
        return router

    router, counts = _cluster_differential(
        make,
        lambda: zipf_mixed_chunks(_ZIPF_SPAN, 0.3, n_streams=4, seed=53),
        max_requests=4000)
    cs = router.clusterstats
    assert cs.fallthrough_reads > 0 and cs.write_arounds > 0
    assert counts["declined"] > 0
    assert router.shards[2].stats.read_ops == 0


def test_cluster_deadline_cut_bit_identical():
    """A simulated-duration run: the final windows end at the run's
    deadline, inside the row loop's prefix."""
    _, counts = _cluster_differential(
        _make_cluster4,
        lambda: zipf_mixed_chunks(_ZIPF_SPAN, 0.3, n_streams=2, seed=54),
        duration=0.5, think_time=20e-6)
    assert counts["rows"] > 500


@pytest.mark.parametrize("limit,deadline", [
    (5, float("inf")),            # limit inside the bounded prefix
    (0, 300e-6),                  # deadline inside it (tiny horizon)
    (3, 300e-6),
])
def test_router_submit_chunk_cuts_match_submit(limit, deadline):
    rows = next(iter(zipf_mixed_chunks(_ZIPF_SPAN, 0.3, seed=55)[0]))[:40]
    if deadline == float("inf"):
        # All reads: no conformant row ends the non-conformant-head
        # loop early, so only the limit can stop it.
        rows["op"] = OP_READ
    batched, scalar = _make_cluster4(), _make_cluster4()
    think = 10e-6
    issue_t, done_t, n = batched.submit_chunk(rows, 0.0, think, deadline,
                                              limit)
    assert 0 < n <= (limit or 32)
    t = 0.0
    for k, req in enumerate(requests_from_chunk(rows[:n])):
        assert issue_t[k] == t
        done = scalar.submit(req, t)
        assert done_t[k] == done
        t = done + think
    assert n == limit or t >= deadline
    _assert_cluster_state_equal(scalar, batched)


def test_router_row_loop_stops_at_engine_rows():
    """Tenanted, background, FLUSH, TRIM, zero-length and out-of-range
    rows are left to the engine, in the same position."""
    router = _make_cluster4()
    base = make_chunk(np.arange(8) * PAGE_SIZE, PAGE_SIZE)
    stops = [("tenant", 0), ("origin", 2), ("op", OP_TRIM),
             ("op", OP_FLUSH), ("length", 0),
             ("offset", router.size - PAGE_SIZE // 2)]
    t = 0.0
    for column, value in stops:
        rows = base.copy()
        rows[column][3] = value
        if column == "op" and value == OP_FLUSH:
            rows["length"][3] = 0
        for deadline in (float("inf"), t + 1e-6):   # both loops
            _, done_t, n = router.submit_chunk(rows, t, 0.0, deadline, 0)
            assert n == 3 or (deadline < float("inf") and n < 3)
            if n:
                t = float(done_t[-1])


@pytest.mark.parametrize("raid_level", [5, 0])
def test_cluster_twait_and_bypass_from_row_loop_bit_identical(raid_level):
    """Think time ages the dirty buffers past TWAIT, so a row served
    through ``submit_row`` flushes a partial segment.  On RAID 0 an
    armed plan kills shard 0's first member mid-run: the segment
    write a row triggers exhausts the retry budget and the shard
    enters origin bypass inside the row loop."""
    config = replace(TINY_SRC, raid_level=raid_level)
    plans = ({(0, 0): FaultPlan().transient_window(0.05, 1e9, 1.0)}
             if raid_level == 0 else None)
    router, counts = _cluster_differential(
        lambda: _make_cluster4(config, plans),
        lambda: zipf_mixed_chunks(_ZIPF_SPAN, 0.3, n_streams=4, seed=56),
        max_requests=4000, think_time=3e-3)
    shards = list(router.shards.values())
    assert sum(s.srcstats.timeout_flushes for s in shards) > 0
    assert counts["rows"] > 0.99 * 4000
    if raid_level == 0:
        assert shards[0].bypass and not shards[1].bypass
        assert shards[0].srcstats.bypass_writes > 0


# ----------------------------------------------------------------------
# SrcCache.submit_row is submit(Request) without the Request
# ----------------------------------------------------------------------
def _submit_row_pair(cache_a, cache_b, op, offset, length, now):
    """Serve one row both ways; errors must match too."""
    try:
        expect = cache_a.submit(Request(op_of(op), offset, length), now)
    except Exception as exc:   # noqa: BLE001 - compared below
        with pytest.raises(type(exc)):
            cache_b.submit_row(op, offset, length, now)
        return now
    got = cache_b.submit_row(op, offset, length, now)
    assert got == expect
    return got


# Rebuild back-off guard on, so every foreground row leaves a sample.
_GUARDED_SRC = replace(TINY_SRC,
                       repair=replace(TINY_SRC.repair, rebuild_fg_p99=1.0))


def test_submit_row_matches_submit():
    a, b = make_src(_GUARDED_SRC), make_src(_GUARDED_SRC)
    rng = np.random.default_rng(70)
    t = 0.0
    size = a.size
    edge = [(OP_WRITE, size - PAGE_SIZE, PAGE_SIZE),
            (OP_WRITE, size - 512, PAGE_SIZE),          # AddressError
            (OP_READ, -PAGE_SIZE, PAGE_SIZE),           # ValueError
            (OP_READ, 5 * PAGE_SIZE, 0),
            (OP_FLUSH, 0, 0), (OP_TRIM, 0, 64 * PAGE_SIZE)]
    rows = edge + [(int(op), int(off) * 512, int(n) * 512)
                   for op, off, n in zip(rng.integers(0, 2, 3000),
                                         rng.integers(0, 200_000, 3000),
                                         rng.integers(1, 33, 3000))]
    for op, offset, length in rows:
        t = _submit_row_pair(a, b, op, offset, length, t) + 1e-6
    _assert_src_state_equal(a, b)
    assert a.srcstats.segment_writes > 0
    assert len(b.repair.guard._samples) == b.repair.guard.window


def test_submit_row_bypass_reserve_matches_submit():
    """An array-loss error escaping the block path enters bypass and
    re-serves the row from the origin, exactly like ``_service``."""
    pair = []
    for _ in range(2):
        cache = make_src(_GUARDED_SRC)
        real = cache.write_block
        fired = []

        def failing(block, now, _real=real, _fired=fired):
            if not _fired:
                _fired.append(block)
                raise DeviceFailedError("array lost")
            return _real(block, now)

        cache.write_block = failing
        pair.append(cache)
    a, b = pair
    t = _submit_row_pair(a, b, OP_WRITE, 3 * PAGE_SIZE, 2 * PAGE_SIZE, 0.0)
    assert a.bypass and b.bypass
    _submit_row_pair(a, b, OP_READ, 3 * PAGE_SIZE, PAGE_SIZE, t)
    _assert_src_state_equal(a, b)
    assert b.srcstats.bypass_writes == 2 and b.srcstats.bypass_reads == 1
    # The re-served write takes no foreground sample; the read does.
    assert len(b.repair.guard._samples) == 1


# ----------------------------------------------------------------------
# deferred per-window accounting (DeferredStats in the engine and replay)
# ----------------------------------------------------------------------
def _latency_state(lat):
    return lat.count, lat.total, lat.max, list(lat._reservoir)


def _engine_with_streams(batched, n_streams, decline_every=7):
    """An Engine over a TINY SRC with ``n_streams`` mixed 30%-read
    clients; the batched side declines every ``decline_every``-th
    window so scalar-fallback rows interleave with deferred ones."""
    target = make_src()
    calls = []

    def issue_chunk(rows, start, think, deadline, limit):
        calls.append(None)
        if len(calls) % decline_every == 0:
            return None, None, 0
        return target.submit_chunk(rows, start, think, deadline, limit)

    engine = Engine(lambda req, now: target.submit(req, now),
                    issue_chunk=issue_chunk if batched else None)
    # A span the cache holds: reads hit after their first miss, so a
    # short simulated window still yields thousands of rows.
    span = 4 * MIB
    for i in range(n_streams):
        engine.add_stream(ChunkStream(mixed_chunks(span, 0.3, seed=80 + i),
                                      name=f"job{i}"))
    return engine


@pytest.mark.parametrize("cut", [{"max_requests": 10_001},
                                 {"duration": 0.25}])
def test_deferred_accounting_matches_per_request_records(cut):
    """Totals and every stream's IoStats/LatencyStats — reservoirs past
    their 4,096 samples included — match per-request recording, with
    declined rows interleaved and the run cut by a request budget or a
    simulated duration."""
    runs = {}
    for batched in (False, True):
        engine = _engine_with_streams(batched, n_streams=2)
        runs[batched] = (engine, engine.run(**cut))
    (scalar, s_res), (batched, b_res) = runs[False], runs[True]
    assert b_res.as_dict() == s_res.as_dict()
    assert _latency_state(b_res.latency) == _latency_state(s_res.latency)
    for x, y in zip(scalar.streams, batched.streams):
        assert x.stats == y.stats
        assert _latency_state(x.latency) == _latency_state(y.latency)
    assert min(s.latency.count for s in batched.streams) > 4096


def test_replay_deferred_accounting_past_reservoir():
    """replay_group's window statistics match the scalar replay well
    past the latency reservoir's 4,096 samples."""
    results = {}
    for batched in (False, True):
        results[batched] = replay_group(
            make_src(), "mixed", scale=0.002, duration=float("inf"),
            warmup=0.02, seed=9, threads_per_trace=1, max_requests=9000,
            batched=batched)
    assert results[True].as_dict() == results[False].as_dict()
    assert (_latency_state(results[True].latency)
            == _latency_state(results[False].latency))
    assert results[True].latency.count > 4096


def test_deferred_stats_flushes_per_owner_in_order():
    """DeferredStats.flush equals recording each window on arrival, for
    interleaved owners and zero-byte rows."""
    class Owner:
        def __init__(self):
            self.stats = IoStats()
            self.latency = LatencyStats()

    rng = np.random.default_rng(90)
    direct = [Owner() for _ in range(3)]
    deferred = [Owner() for _ in range(3)]
    totals = (IoStats(), LatencyStats())
    pending = DeferredStats(IoStats(), LatencyStats(), deferred)
    for _ in range(400):
        n = int(rng.integers(1, 9))
        rows = make_chunk(rng.integers(0, 1000, n) * PAGE_SIZE,
                          rng.integers(0, 3, n) * PAGE_SIZE,
                          op=int(rng.integers(0, 2)))
        issue_t = np.sort(rng.random(n))
        done_t = issue_t + rng.random(n) * 1e-3
        owner = int(rng.integers(0, 3))
        for stats in (direct[owner].stats, totals[0]):
            stats.record_chunk(rows["op"], rows["length"], rows["origin"])
        for lat in (direct[owner].latency, totals[1]):
            lat.record_many(done_t - issue_t)
        pending.add(rows, issue_t, done_t, owner)
    pending.flush()
    assert pending.stats == totals[0]
    # Zero-byte rows still create their origin's key, on either side of
    # record_chunk's vector crossover.
    zero = make_chunk(np.zeros(40, np.int64), 0)
    bulk, one_by_one = IoStats(), IoStats()
    bulk.record_chunk(zero["op"], zero["length"], zero["origin"])
    for req in requests_from_chunk(zero):
        one_by_one.record(req)
    assert bulk == one_by_one
    assert _latency_state(pending.latency) == _latency_state(totals[1])
    for x, y in zip(direct, deferred):
        assert x.stats == y.stats
        assert _latency_state(x.latency) == _latency_state(y.latency)
