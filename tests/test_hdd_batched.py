"""Batched origin writes: ``PrimaryStorage.submit_writes`` vs ``submit``.

The vectorized override must leave the link, the RAID-10 array and
every disk in exactly the state a per-request ``submit`` loop leaves
them in, return the same completion time, and step aside (run the
loop) whenever a per-request hook must fire.
"""

from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.block.device import BlockDevice, StatsDevice
from repro.common.errors import AddressError, PowerCutError
from repro.common.types import IoOrigin, Op, Request
from repro.common.units import GIB, KIB, MIB, PAGE_SIZE
from repro.core.config import GcScheme
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.harness.context import build_src
from repro.hdd.backend import PrimaryStorage
from repro.hdd.disk import DiskSpec
from repro.obs.recorder import ObsRecorder, attach
from repro.sim.engine import run_chunk_streams
from repro.workloads.fio import uniform_random_chunks

from _stacks import TINY_SRC, make_src

SMALL_DISK = DiskSpec(capacity=1 * GIB)
DESTAGE = IoOrigin.DESTAGE


def loop_writes(device, offsets, lengths, now, origin=DESTAGE):
    """The reference: one ``submit`` per run (the base-class loop)."""
    return BlockDevice.submit_writes(device, offsets, lengths, now, origin)


def origin_state(primary: PrimaryStorage) -> dict:
    """Everything a write can change below the primary's interface."""
    timeline = primary.link._timeline
    state = {
        "primary": primary.stats.as_dict(),
        "array": primary.array.stats.as_dict(),
        "link": (primary.link.bytes_moved, list(timeline._free),
                 timeline.busy_time),
    }
    for disk in primary.disks:
        state[disk.name] = (
            disk.stats.as_dict(), list(disk.arm._free), disk.arm.busy_time,
            disk.qstats.as_dict(), list(disk._recent),
            sorted(disk._inflight))
    return state


def twins(**kwargs):
    return PrimaryStorage(**kwargs), PrimaryStorage(**kwargs)


def assert_same_batches(batches, **kwargs):
    """Apply each ``(offsets, lengths, now)`` batch both ways."""
    ref, fast = twins(**kwargs)
    for offsets, lengths, now in batches:
        expected = loop_writes(ref, offsets, lengths, now)
        got = fast.submit_writes(offsets, lengths, now, DESTAGE)
        assert got == expected
        assert origin_state(fast) == origin_state(ref)
    return ref, fast


def random_runs(rng, n, span, max_len):
    offsets = rng.integers(0, (span - max_len) // KIB, n) * KIB
    lengths = rng.integers(1, max_len // KIB + 1, n) * KIB
    return offsets, lengths


# ----------------------------------------------------------------------
# differential: fast path vs per-request loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_disks", [2, 4, 8])
def test_runs_crossing_chunk_boundaries(n_disks):
    rng = np.random.default_rng(n_disks)
    size = SMALL_DISK.capacity * n_disks // 2
    batches = []
    now = 0.0
    for _ in range(4):
        # Up to 300 KiB at 1 KiB alignment: most runs straddle one or
        # more 64 KiB RAID chunks, some start mid-chunk.
        offsets, lengths = random_runs(rng, 300, size, 300 * KIB)
        batches.append((offsets, lengths, now))
        now += 0.05
    ref, _ = assert_same_batches(batches, n_disks=n_disks,
                                 disk_spec=SMALL_DISK)
    pieces = sum(d.stats.write_ops for d in ref.disks) // 2
    assert pieces > ref.stats.write_ops   # some runs really were split


def test_sequential_runs_hit_near_window():
    # Consecutive runs with small gaps: every disk sees writes within
    # sequential_window of a recent position, i.e. free positioning.
    offsets = np.arange(200, dtype=np.int64) * 72 * KIB
    lengths = np.full(200, 64 * KIB, dtype=np.int64)
    ref, _ = assert_same_batches([(offsets, lengths, 0.0),
                                  (offsets + 40 * MIB, lengths, 0.01)],
                                 n_disks=4, disk_spec=SMALL_DISK)
    transfer = 64 * KIB / SMALL_DISK.transfer_bw
    # Near-window hits are what keeps the arm busy time close to the
    # pure transfer time.
    disk = ref.disks[0]
    assert disk.arm.busy_time < 2 * disk.stats.write_ops * transfer


def test_queue_depth_one_forces_queueing():
    spec = DiskSpec(capacity=1 * GIB, queue_depth=1)
    rng = np.random.default_rng(3)
    offsets, lengths = random_runs(rng, 400, 2 * GIB, 128 * KIB)
    ref, fast = assert_same_batches([(offsets, lengths, 0.0),
                                     (offsets[::-1], lengths, 0.001)],
                                    n_disks=4, disk_spec=spec)
    assert all(d.qstats.queued_ops > 0 for d in fast.disks)


def test_unbounded_queue_depth():
    spec = DiskSpec(capacity=1 * GIB, queue_depth=0)
    rng = np.random.default_rng(4)
    offsets, lengths = random_runs(rng, 200, 2 * GIB, 128 * KIB)
    assert_same_batches([(offsets, lengths, 0.0)], n_disks=4,
                        disk_spec=spec)


def test_prior_scalar_state_carries_into_batch():
    # Reads and writes issued before the batch leave positions in each
    # disk's _recent window and completions in its _inflight heap; the
    # batch must see them exactly as a submit loop would.
    ref, fast = twins(n_disks=4, disk_spec=SMALL_DISK)
    rng = np.random.default_rng(5)
    prior = (rng.integers(0, 1_000, 100) * 64 * KIB).tolist()
    for primary in (ref, fast):
        for i, offset in enumerate(prior):
            primary.read(offset, 64 * KIB, 0.0005 * i)
            primary.write(offset + 8 * MIB, 4 * KIB, 0.0005 * i)
    assert all(len(d._recent) == d._recent.maxlen for d in fast.disks)
    assert all(d._inflight for d in fast.disks)
    offsets, lengths = random_runs(rng, 250, 2 * GIB, 96 * KIB)
    # Some runs land next to the prior positions.
    offsets[:20] = np.asarray(ref.disks[0]._recent)[:20] // 2 * 2
    expected = loop_writes(ref, offsets, lengths, 0.01)
    assert fast.submit_writes(offsets, lengths, 0.01, DESTAGE) == expected
    assert origin_state(fast) == origin_state(ref)


def test_zero_length_runs_and_lists():
    # Plain lists work too; a zero-length run still costs a link frame
    # and counts as an op at the primary and the array.
    offsets = [0, 4 * KIB, 1 * MIB, 1 * MIB + 60 * KIB]
    lengths = [4 * KIB, 0, 8 * KIB, 8 * KIB]
    ref, _ = assert_same_batches([(offsets, lengths, 0.5)], n_disks=2,
                                 disk_spec=SMALL_DISK)
    assert ref.stats.write_ops == 4


def test_empty_batch_changes_nothing():
    primary = PrimaryStorage(n_disks=4, disk_spec=SMALL_DISK)
    primary.write(0, 4 * KIB, 0.0)
    before = origin_state(primary)
    assert primary.submit_writes([], [], 2.5, DESTAGE) == 2.5
    assert primary.submit_writes(np.zeros(0, np.int64),
                                 np.zeros(0, np.int64), 3.0, DESTAGE) == 3.0
    assert origin_state(primary) == before


def test_out_of_range_run_mutates_nothing():
    primary = PrimaryStorage(n_disks=4, disk_spec=SMALL_DISK)
    primary.write(0, 4 * KIB, 0.0)
    before = origin_state(primary)
    offsets = [0, 64 * KIB, primary.size - 4 * KIB]
    lengths = [4 * KIB, 4 * KIB, 8 * KIB]
    with pytest.raises(AddressError):
        primary.submit_writes(offsets, lengths, 1.0, DESTAGE)
    with pytest.raises(ValueError):
        primary.submit_writes([0, -4096], [4 * KIB, 4 * KIB], 1.0, DESTAGE)
    assert origin_state(primary) == before


def test_run_beyond_a_disk_mutates_nothing():
    # A disk size that is no multiple of the chunk leaves array
    # addresses whose piece lands past the end of its disk: only the
    # disk's own range check catches them.
    spec = DiskSpec(capacity=1 * GIB + 32 * KIB)
    ref, fast = twins(n_disks=4, disk_spec=spec)
    offsets = [0, 2 * GIB + 32 * KIB]
    lengths = [4 * KIB, 16 * KIB]
    assert offsets[1] + lengths[1] <= fast.size
    with pytest.raises(AddressError, match="disk"):
        loop_writes(ref, offsets, lengths, 0.0)
    before = origin_state(fast)
    with pytest.raises(AddressError, match="disk"):
        fast.submit_writes(offsets, lengths, 0.0, DESTAGE)
    assert origin_state(fast) == before


# ----------------------------------------------------------------------
# fallbacks: per-request hooks must still fire
# ----------------------------------------------------------------------
class IoLog(ObsRecorder):
    """Recorder that also keeps the raw ``observe_io`` stream."""

    def __init__(self):
        super().__init__()
        self.ios = []

    def observe_io(self, device, req, issued, done):
        super().observe_io(device, req, issued, done)
        self.ios.append((device.name, req.op, req.offset, req.length,
                         req.origin, issued, done))


def per_run_submits(device, offsets, lengths, now):
    """The per-run ``submit`` loop ``SrcCache`` issued before batching."""
    end = now
    for offset, length in zip(offsets, lengths):
        end = max(end, device.submit(
            Request(Op.WRITE, int(offset), int(length), origin=DESTAGE),
            now))
    return end


def test_obs_attached_origin_emits_same_io_stream():
    rng = np.random.default_rng(6)
    offsets, lengths = random_runs(rng, 120, 2 * GIB, 200 * KIB)
    logs = []
    for issue in (per_run_submits,
                  lambda d, o, n, t: d.submit_writes(o, n, t, DESTAGE)):
        log = IoLog()
        primary = attach(PrimaryStorage(n_disks=4, disk_spec=SMALL_DISK),
                         log)
        done = issue(primary, offsets, lengths, 0.25)
        logs.append((done, log.ios, log.registry.as_dict(),
                     origin_state(primary)))
    assert logs[0] == logs[1]
    assert len(logs[0][1]) > 3 * len(offsets)   # primary, array, disks


def test_obs_on_one_disk_takes_the_loop():
    ref, fast = twins(n_disks=4, disk_spec=SMALL_DISK)
    logs = [IoLog(), IoLog()]
    ref.disks[3].obs, fast.disks[3].obs = logs
    offsets, lengths = random_runs(np.random.default_rng(8), 80, 2 * GIB,
                                   128 * KIB)
    assert (fast.submit_writes(offsets, lengths, 0.0, DESTAGE)
            == per_run_submits(ref, offsets, lengths, 0.0))
    assert logs[0].ios == logs[1].ios and logs[1].ios
    assert origin_state(fast) == origin_state(ref)


@pytest.mark.parametrize("nth", [1, 7, 40])
def test_fault_injector_cuts_power_on_same_write(nth):
    offsets, lengths = random_runs(np.random.default_rng(nth), 60,
                                   2 * GIB, 64 * KIB)
    outcomes = []
    for issue in (per_run_submits,
                  lambda d, o, n, t: d.submit_writes(o, n, t, DESTAGE)):
        primary = PrimaryStorage(n_disks=4, disk_spec=SMALL_DISK)
        injector = FaultInjector(primary, FaultPlan().power_cut_on_write(nth),
                                 record_writes=True)
        with pytest.raises(PowerCutError):
            issue(injector, offsets, lengths, 0.0)
        outcomes.append((injector.writes_seen, sorted(injector.written_pages),
                         origin_state(primary)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == nth


def test_stats_tap_counts_identical_bytes():
    offsets, lengths = random_runs(np.random.default_rng(9), 150, 2 * GIB,
                                   160 * KIB)
    taps = []
    for issue in (per_run_submits,
                  lambda d, o, n, t: d.submit_writes(o, n, t, DESTAGE)):
        primary = PrimaryStorage(n_disks=4, disk_spec=SMALL_DISK)
        tap = StatsDevice(primary)
        done = issue(tap, offsets, lengths, 0.125)
        taps.append((done, tap.stats.as_dict(), tap.latency.as_dict(),
                     origin_state(primary)))
    assert taps[0] == taps[1]
    assert taps[0][1]["write_bytes"] == int(np.sum(lengths))


# ----------------------------------------------------------------------
# SRC level: batched destage is invisible in every stat
# ----------------------------------------------------------------------
def _randwrite_src(requests, per_request):
    src = build_src(1 / 32)
    if per_request:
        src.origin.submit_writes = partial(BlockDevice.submit_writes,
                                           src.origin)
    span = 4 * src.config.cache_space
    source = uniform_random_chunks(span, request_size=4 * KIB, seed=11)
    result = run_chunk_streams(lambda req, now: src.submit(req, now),
                               [source], max_requests=requests,
                               issue_chunk=src.submit_chunk)
    return src, result


def test_src_chunk_destage_batched_matches_per_request():
    (fast, fast_run), (ref, ref_run) = (_randwrite_src(150_000, False),
                                        _randwrite_src(150_000, True))
    assert fast.srcstats.s2d_collections > 0
    assert fast.srcstats.gc_destaged_blocks > 0
    assert fast.srcstats.as_dict() == ref.srcstats.as_dict()
    assert fast.cstats.as_dict() == ref.cstats.as_dict()
    assert origin_state(fast.origin) == origin_state(ref.origin)
    assert fast_run.as_dict() == ref_run.as_dict()


class _NullObserver:
    """Mapping membership observer that only closes the vector gate."""

    def block_cached(self, lba):
        pass

    def block_evicted(self, lba):
        pass


def test_src_scalar_destage_batched_matches_per_request():
    # A membership observer keeps reclaim on the per-block list path
    # (SrcCache._destage) while the stack stays single-tenant.
    config = replace(TINY_SRC, gc_scheme=GcScheme.S2D)
    caches = [make_src(config), make_src(config)]
    ref = caches[1]
    ref.origin.submit_writes = partial(BlockDevice.submit_writes,
                                       ref.origin)
    rng = np.random.default_rng(12)
    capacity = caches[0].layout.cache_data_capacity_blocks()
    blocks = rng.integers(0, 2 * capacity, int(1.8 * capacity))
    for cache in caches:
        cache.mapping.observer = _NullObserver()
        now = 0.0
        for block in blocks.tolist():
            now = cache.write(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
    fast = caches[0]
    assert fast.srcstats.gc_destaged_blocks > 0
    assert fast.srcstats.as_dict() == ref.srcstats.as_dict()
    assert fast.cstats.as_dict() == ref.cstats.as_dict()
    assert origin_state(fast.origin) == origin_state(ref.origin)
