"""Resource timelines — the simulation core."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import ConfigError, ReproError, TimingError
from repro.sim.timeline import Link, Timeline


def test_single_server_serializes():
    t = Timeline(1)
    b1, e1 = t.acquire(0.0, 1.0)
    b2, e2 = t.acquire(0.0, 1.0)
    assert (b1, e1) == (0.0, 1.0)
    assert (b2, e2) == (1.0, 2.0)


def test_two_servers_run_in_parallel():
    t = Timeline(2)
    _, e1 = t.acquire(0.0, 1.0)
    _, e2 = t.acquire(0.0, 1.0)
    assert e1 == 1.0 and e2 == 1.0


def test_idle_gap_respected():
    t = Timeline(1)
    t.acquire(0.0, 1.0)
    b, e = t.acquire(5.0, 1.0)
    assert b == 5.0 and e == 6.0


def test_busy_time_accumulates():
    t = Timeline(1)
    t.acquire(0.0, 1.5)
    t.acquire(0.0, 0.5)
    assert t.busy_time == pytest.approx(2.0)


def test_drain_time():
    t = Timeline(2)
    t.acquire(0.0, 1.0)
    t.acquire(0.0, 3.0)
    assert t.drain_time() == pytest.approx(3.0)


def test_negative_duration_rejected():
    with pytest.raises(TimingError):
        Timeline(1).acquire(0.0, -1.0)


def test_timing_error_is_repro_and_value_error():
    # In the repo-wide hierarchy so blanket ReproError handlers see it,
    # and a ValueError so pre-hierarchy callers keep working.
    assert issubclass(TimingError, ReproError)
    assert issubclass(TimingError, ValueError)
    with pytest.raises(ReproError):
        Timeline(1).acquire(0.0, -1.0)


def test_zero_servers_rejected():
    with pytest.raises(ConfigError):
        Timeline(0)


def test_reset():
    t = Timeline(2)
    t.acquire(0.0, 5.0)
    t.reset()
    assert t.next_free() == 0.0
    assert t.busy_time == 0.0


@given(st.lists(st.tuples(st.floats(0, 100), st.floats(0, 10)),
                min_size=1, max_size=50),
       st.integers(1, 4))
def test_acquire_never_starts_before_request(ops, servers):
    t = Timeline(servers)
    for start, duration in ops:
        begin, end = t.acquire(start, duration)
        assert begin >= start
        assert end == pytest.approx(begin + duration)


def test_link_transfer_time():
    link = Link(100.0, latency_s=0.5)   # 100 B/s
    b, e = link.transfer(0.0, 100)
    assert b == 0.0
    assert e == pytest.approx(1.5)
    assert link.bytes_moved == 100


def test_link_serializes_transfers():
    link = Link(100.0)
    _, e1 = link.transfer(0.0, 100)
    _, e2 = link.transfer(0.0, 100)
    assert e2 == pytest.approx(e1 + 1.0)


def test_link_requires_positive_bandwidth():
    with pytest.raises(ConfigError):
        Link(0.0)


def test_link_reset():
    link = Link(100.0)
    link.transfer(0.0, 500)
    link.reset()
    assert link.bytes_moved == 0
    assert link.drain_time() == 0.0


@given(st.lists(st.integers(0, 10 * 2**20), max_size=60),
       st.floats(0, 5), st.floats(0, 5))
def test_link_transfer_many_matches_transfer_loop(sizes, busy_until, start):
    # Bit-identical, not approximately equal: the batched destage path
    # relies on the running sum rounding exactly like the scalar loop.
    links = [Link(125e6, latency_s=200e-6), Link(125e6, latency_s=200e-6)]
    for link in links:
        link.transfer(busy_until, 4096)
    expected = [links[0].transfer(start, n)[1] for n in sizes]
    got = links[1].transfer_many(start, np.asarray(sizes, dtype=np.int64))
    assert got.tolist() == expected
    assert links[1].bytes_moved == links[0].bytes_moved
    assert links[1]._timeline._free == links[0]._timeline._free
    assert links[1]._timeline.busy_time == links[0]._timeline.busy_time


def test_acquire_many_rejects_bad_input():
    with pytest.raises(ConfigError):
        Timeline(2).acquire_many(0.0, np.ones(3))
    t = Timeline(1)
    with pytest.raises(TimingError):
        t.acquire_many(0.0, np.array([1.0, -1.0]))
    assert t.next_free() == 0.0 and t.busy_time == 0.0
