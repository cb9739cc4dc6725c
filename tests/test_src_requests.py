"""Request-level SRC behaviour and model-based property tests."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.chunks import OP_READ, OP_WRITE, make_chunk, op_of
from repro.common.types import Op, Request
from repro.common.units import MIB, PAGE_SIZE
from repro.core.arrays import B_CLEAN, B_DIRTY, B_MAPPED, B_NONE, B_STAGING
from repro.core.src import SrcCache
from repro.faults import FaultInjector, FaultPlan
from repro.hdd.backend import PrimaryStorage
from repro.obs import ObsRecorder
from repro.obs.recorder import attach
from repro.ssd.device import SSDDevice
from repro.tenancy import TenantRegistry

from _stacks import TINY_DISK, TINY_SRC, TINY_SSD, make_src


def test_multiblock_write_buffers_every_block():
    cache = make_src()
    cache.submit(Request(Op.WRITE, 0, 8 * PAGE_SIZE), 0.0)
    assert len(cache.dirty_buf) == 8


def test_write_crossing_segment_boundary():
    cache = make_src()
    cap = cache.layout.dirty_segment_capacity()
    # Fill to one block short of a segment, then write 4 blocks.
    now = 0.0
    for i in range(cap - 1):
        now = cache.write(i * PAGE_SIZE, PAGE_SIZE, now)
    cache.submit(Request(Op.WRITE, cap * PAGE_SIZE, 4 * PAGE_SIZE), now)
    assert cache.srcstats.segment_writes == 1
    assert len(cache.dirty_buf) == 3   # overflow stays buffered


def test_unaligned_write_covers_partial_pages():
    cache = make_src()
    cache.submit(Request(Op.WRITE, PAGE_SIZE // 2, PAGE_SIZE), 0.0)
    assert len(cache.dirty_buf) == 2   # straddles two blocks


def test_large_read_mixes_hits_and_misses():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)            # block 0 cached
    cache.submit(Request(Op.READ, 0, 4 * PAGE_SIZE), 1.0)
    assert cache.cstats.read_hits == 1
    assert cache.cstats.read_misses == 3
    # The three missing blocks came in one coalesced origin read.
    assert cache.origin.stats.read_ops == 1


def test_flush_via_submit():
    cache = make_src()
    cache.write(0, PAGE_SIZE, 0.0)
    end = cache.submit(Request(Op.FLUSH), 1.0)
    assert end > 1.0
    assert cache.dirty_buf.empty


def test_reads_of_staged_blocks_hit():
    cache = make_src()
    cache.read(0, PAGE_SIZE, 0.0)      # miss, staged + clean buffer
    cache.read(0, PAGE_SIZE, 0.1)      # must hit RAM now
    assert cache.cstats.read_hits == 1


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_src_matches_reference_cache_semantics(seed):
    """Model check: after any op sequence, every block the reference
    says is cached must hit, and dirtiness must match the reference."""
    cache = make_src()
    rng = np.random.default_rng(seed)
    reference_dirty = {}
    now = 0.0
    for _ in range(400):
        block = int(rng.integers(0, 600))
        r = rng.random()
        if r < 0.55:
            now = cache.write(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
            reference_dirty[block] = True
        elif r < 0.9:
            now = cache.read(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
            reference_dirty.setdefault(block, False)
        else:
            now = cache.trim(block * PAGE_SIZE, PAGE_SIZE, now + 1e-4)
            reference_dirty.pop(block, None)
    # No GC ran (working set fits), so everything must still be cached
    # with correct dirtiness.
    assert cache.srcstats.s2s_collections == 0
    assert cache.srcstats.s2d_collections == 0
    for block, dirty in reference_dirty.items():
        entry = cache.mapping.lookup(block)
        if entry is not None:
            assert entry.dirty == dirty, f"block {block} dirtiness"
        else:
            in_dirty = block in cache.dirty_buf
            in_clean = (block in cache.clean_buf
                        or block in cache.staging)
            assert in_dirty or in_clean, f"block {block} lost"
            assert in_dirty == dirty, f"block {block} wrong buffer"
    cache.mapping.check_invariants()


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_src_invariants_survive_gc_pressure(seed):
    """Random ops over a working set larger than the cache."""
    cache = make_src()
    cap = cache.layout.cache_data_capacity_blocks()
    rng = np.random.default_rng(seed)
    now = 0.0
    for _ in range(3000):
        block = int(rng.integers(0, cap * 2))
        nblocks = int(rng.integers(1, 9))
        op = Op.WRITE if rng.random() < 0.7 else Op.READ
        now = cache.submit(
            Request(op, block * PAGE_SIZE, nblocks * PAGE_SIZE),
            now + 1e-4)
    cache.mapping.check_invariants()
    for ssd in cache.ssds:
        ssd.ftl.check_invariants()
    assert cache.free_groups >= 1


# ----------------------------------------------------------------------
# row-level service: page-run writes and lean SSD reads vs the full path
# ----------------------------------------------------------------------
def _full_path(cache):
    """Pin ``cache`` to the reference paths: one ``write_block`` per
    page and every SSD I/O through ``_ssd_submit``."""
    def per_page(first, last, now):
        end = now
        for block in range(first, last):
            end = max(end, cache.write_block(block, now))
        return end

    cache._write_pages = per_page
    cache._seal_fast_ok = lambda: False
    return cache


def _count(obj, name, calls):
    """Wrap ``obj.name`` to append its arguments to ``calls``."""
    real = getattr(obj, name)

    def wrapped(*args):
        calls.append(args)
        return real(*args)

    setattr(obj, name, wrapped)


def _member(ssd):
    return getattr(ssd, "lower", ssd)


def _assert_same_state(a, b):
    """Cache, buffer, version and device state must match exactly."""
    assert a.cstats.as_dict() == b.cstats.as_dict()
    assert a.srcstats.as_dict() == b.srcstats.as_dict()
    assert a.stats == b.stats
    assert a.bypass == b.bypass
    assert a._last_dirty_write == b._last_dirty_write
    assert (sorted(a.mapping.items(), key=lambda kv: kv[0])
            == sorted(b.mapping.items(), key=lambda kv: kv[0]))
    assert a.dirty_buf.peek() == b.dirty_buf.peek()
    assert a.clean_buf.peek() == b.clean_buf.peek()
    assert a.staging.peek() == b.staging.peek()
    for x, y in ((a._versions.a, b._versions.a), (a._state.a, b._state.a)):
        assert np.array_equal(np.trim_zeros(x, "b"), np.trim_zeros(y, "b"))
    assert a.hotness.references == b.hotness.references
    assert a.hotness.hot_count == b.hotness.hot_count
    assert a.origin.stats == b.origin.stats
    for x, y in zip(map(_member, a.ssds), map(_member, b.ssds)):
        assert x.stats == y.stats
        assert x.qstats.as_dict() == y.qstats.as_dict()
        assert x.ftl.counters == y.ftl.counters
        assert x._inflight == y._inflight
        for tx, ty in ((x.nand, y.nand), (x.nand_reads, y.nand_reads),
                       (x.link._timeline, y.link._timeline),
                       (x.read_link._timeline, y.read_link._timeline)):
            assert (tx._free, tx.busy_time) == (ty._free, ty.busy_time)


def _mixed_rows(seed, n, span_blocks, read_fraction=0.3, idle_every=0,
                t_wait=TINY_SRC.t_wait):
    """``(op, offset, length, gap)`` rows: 1-12 pages, some unaligned,
    and every ``idle_every``-th row issued after an idle gap past
    TWAIT."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        op = OP_READ if rng.random() < read_fraction else OP_WRITE
        pages = int(rng.integers(1, 13))
        offset = int(rng.integers(0, span_blocks - pages)) * PAGE_SIZE
        length = pages * PAGE_SIZE
        if rng.random() < 0.1:
            offset += 512
            length -= 1024
        gap = 2 * t_wait if idle_every and i % idle_every == 0 else 1e-6
        rows.append((op, offset, length, gap))
    return rows


def _drive(cache, rows, submit=None, stage_every=0):
    """Closed-loop service of ``rows``; every ``stage_every``-th row
    first parks a block in the staging buffer (a read miss between
    fetch and fill), so writes meet every residency code."""
    submit = submit or cache.submit_row
    log = []
    t = 0.0
    for i, (op, offset, length, gap) in enumerate(rows):
        t += gap
        if stage_every and i % stage_every == 0:
            cache.staging.put(offset // PAGE_SIZE + 1, t)
        done = submit(op, offset, length, t)
        log.append((t, done))
        t = done
    return log


def test_page_runs_and_lean_reads_match_the_full_path():
    """Multi-page rows that seal segments mid-row, start past TWAIT,
    meet every residency code and drive reclaim: page-run writes and
    lean SSD reads leave exactly the per-page/_ssd_submit state."""
    span = 2 * TINY_SRC.cache_space // PAGE_SIZE
    rows = _mixed_rows(61, 6000, span, idle_every=97)
    lean, full = make_src(), _full_path(make_src())
    codes, reloads, fast_reads = [], [], []
    real_codes = lean._row_codes

    def row_codes(first, last):
        got = real_codes(first, last)
        codes.extend(got)
        return got

    lean._row_codes = row_codes
    _count(lean, "_write_pages", reloads)
    for ssd in lean.ssds:
        _count(ssd, "submit_read_fast", fast_reads)
    assert (_drive(lean, rows, stage_every=5)
            == _drive(full, rows, stage_every=5))
    _assert_same_state(lean, full)
    assert set(codes) == {B_NONE, B_STAGING, B_CLEAN, B_DIRTY, B_MAPPED}
    # Some row reloaded its codes after sealing a segment mid-row.
    assert len(codes) > sum(last - first for first, last, _ in reloads)
    assert lean.srcstats.timeout_flushes > 0
    assert lean.srcstats.s2s_collections + lean.srcstats.s2d_collections > 0
    assert len(fast_reads) > lean.cstats.read_hits // 2
    # Reclaim's span reads went through the lean entry too.
    assert any(len(args) == 4 for args in fast_reads)


def test_page_run_seal_that_enters_bypass_finishes_row_per_page():
    """A segment write that converts a RAID-0 member mid-row enters
    bypass; the rest of that row is written around the cache, exactly
    as per-page ``write_block`` does."""
    config = replace(TINY_SRC, raid_level=0, faults=replace(
        TINY_SRC.faults, failslow_p99=1e-9, failslow_window=2))
    # 7-page rows: segments (248 blocks) seal in the middle of a row.
    rows = [(OP_WRITE, i * 7 * PAGE_SIZE, 7 * PAGE_SIZE, 1e-6)
            for i in range(200)]
    lean, full = make_src(config), _full_path(make_src(config))
    fallback = []
    real_write_block = lean.write_block
    inside = []

    def write_pages(first, last, now, _real=lean._write_pages):
        inside.append(True)
        try:
            return _real(first, last, now)
        finally:
            inside.pop()

    def write_block(block, now):
        if inside:
            fallback.append(block)
        return real_write_block(block, now)

    lean._write_pages = write_pages
    lean.write_block = write_block
    assert _drive(lean, rows) == _drive(full, rows)
    _assert_same_state(lean, full)
    assert lean.bypass and lean.srcstats.bypass_writes > 0
    assert fallback and fallback[0] % 7   # flipped inside a row


def _tenanted():
    cache = make_src()
    registry = TenantRegistry(cache)
    registry.create_volume("alice", 16 * MIB)
    return cache


def _armed():
    ssds = [FaultInjector(SSDDevice(TINY_SSD, name=f"tiny{i}"),
                          FaultPlan(seed=3).limp_window(0.0, 1e9, 2.0)
                          if i == 1 else None)
            for i in range(TINY_SRC.n_ssds)]
    return SrcCache(ssds, PrimaryStorage(n_disks=4, disk_spec=TINY_DISK),
                    TINY_SRC)


def _fail_slow():
    return make_src(replace(TINY_SRC, faults=replace(
        TINY_SRC.faults, failslow_p99=1.0)))


def _observed():
    cache = make_src()
    attach(cache, ObsRecorder())
    return cache


@pytest.mark.parametrize("build,row_loop,lean_ssd", [
    (_tenanted, False, True), (_armed, False, False),
    (_fail_slow, True, False), (_observed, True, False)])
def test_side_channels_keep_the_full_path(build, row_loop, lean_ssd):
    """Tenants and armed fault plans close the chunk gate, so writes
    stay per page; armed plans, a fail-slow detector and telemetry
    close the seal gate, so every SSD I/O keeps ``_ssd_submit``.  Each
    lean path still runs where its gate admits it and must leave the
    same state (and telemetry) as the full path."""
    span = 4096   # inside the first tenant volume
    rows = _mixed_rows(62, 1500, span)

    def submit_for(cache):
        if cache.tenants is None:
            return cache.submit_row
        return lambda op, offset, length, now: cache.submit(
            Request(op_of(op), offset, length, tenant="alice"), now)

    lean, full = build(), _full_path(build())
    page_runs, lean_io = [], []
    _count(lean, "_write_pages", page_runs)
    for ssd in map(_member, lean.ssds):
        for name in ("submit_read_fast", "submit_write_fast",
                     "submit_flush_fast"):
            _count(ssd, name, lean_io)
    assert (_drive(lean, rows, submit_for(lean))
            == _drive(full, rows, submit_for(full)))
    _assert_same_state(lean, full)
    assert bool(lean_io) == lean_ssd
    assert bool(page_runs) == row_loop
    assert lean.srcstats.segment_writes > 0
    if lean.obs.enabled:
        assert (lean.obs.telemetry(include_events=True)
                == full.obs.telemetry(include_events=True))


def test_corruption_is_detected_through_the_lean_read():
    """A block corrupted on its SSD is still caught by the checksum
    check on the lean read path and repaired by parity."""
    caches = [make_src(), _full_path(make_src())]
    fast_reads = []
    for ssd in caches[0].ssds:
        _count(ssd, "submit_read_fast", fast_reads)
    for cache in caches:
        t = cache.submit_row(OP_WRITE, 0, 16 * PAGE_SIZE, 0.0)
        t = cache.handle_flush(t)
        loc = cache.mapping.lookup(3).location
        cache.ssds[loc.ssd].inject_corruption(loc.offset, PAGE_SIZE)
        assert cache.ssds[loc.ssd].corrupted_in(loc.offset, PAGE_SIZE)
        cache.submit_row(OP_READ, 3 * PAGE_SIZE, PAGE_SIZE, t)
        assert cache.srcstats.corruption_repairs == 1
        assert cache.srcstats.parity_reconstructions == 1
        assert not cache.ssds[loc.ssd].corrupted_in(loc.offset, PAGE_SIZE)
    assert caches[0]._seal_fast_ok() and fast_reads
    _assert_same_state(*caches)


def test_corrupted_in_is_empty_without_corruption():
    ssd = SSDDevice(TINY_SSD)
    assert ssd.corrupted_in(0, 64 * PAGE_SIZE) == set()
    ssd.inject_corruption(PAGE_SIZE, PAGE_SIZE)
    assert ssd.corrupted_in(0, 64 * PAGE_SIZE) == {1}
    assert ssd.corrupted_in(2 * PAGE_SIZE, PAGE_SIZE) == set()


def test_short_window_stops_where_a_vector_span_opens():
    """submit_chunk classifies a window from its head rows: a short
    conformant head is served row by row up to the next conformant
    single-page write past it, and a window of 32+ conformant rows is
    served as one vector span."""
    cache = make_src()
    sizes = [1] * 5 + [2] + [1] * 40
    offsets = np.cumsum([0] + sizes[:-1]) * PAGE_SIZE
    rows = make_chunk(offsets, np.array(sizes) * PAGE_SIZE)
    inf = float("inf")
    issue_t, done_t, n = cache.submit_chunk(rows, 0.0, 0.0, inf, 0)
    assert n == 6
    _, _, n = cache.submit_chunk(rows[6:], float(done_t[-1]), 0.0, inf, 0)
    assert n == 40
