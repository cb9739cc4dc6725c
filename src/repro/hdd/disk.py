"""Mechanical disk model.

Expected-value mechanical timing with two realism refinements that the
paper's measured baselines calibrate:

* **Queue reordering (NCQ/elevator):** the drive holds a queue and
  services it in positional order, so under concurrent load the average
  positioning cost is well below a blind seek + half rotation.  We keep
  the last few head positions and charge no positioning for requests
  landing near any of them, and a discounted positioning otherwise.
* **On-disk write cache:** writes are staged in the drive's cache and
  destaged in sorted batches, cutting their effective positioning cost
  further.  Table 2 of the paper (Flashcache write-through sustaining
  ~1.4K IOPS over the 8-disk RAID-10) pins this discount at roughly
  0.2x of the naive positioning cost.

Parameters default to the 2 TB 7.2K RPM drives of the paper's backend
(Table 1).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.block.device import BlockDevice
from repro.block.lifecycle import QueuedDevice
from repro.common.errors import ConfigError
from repro.common.types import IoOrigin, Op, Request
from repro.sim.timeline import Timeline
from repro.common.units import MB, MIB, MSEC, TIB


@dataclass(frozen=True)
class DiskSpec:
    """Mechanical drive parameters."""

    name: str = "hdd-7200"
    capacity: int = 2 * TIB
    avg_seek: float = 8.5 * MSEC
    rpm: int = 7200
    transfer_bw: float = 140 * MB        # outer-track media rate
    sequential_window: int = 1 * MIB     # "near" threshold for locality
    recent_positions: int = 32           # NCQ reordering depth proxy
    read_positioning_factor: float = 0.5   # elevator discount for reads
    write_positioning_factor: float = 0.2  # write-cache + sorted destage
    queue_depth: int = 32                  # NCQ command slots (0 = unbounded)

    def __post_init__(self) -> None:
        if self.rpm <= 0 or self.capacity <= 0 or self.transfer_bw <= 0:
            raise ConfigError("disk parameters must be positive")
        if self.queue_depth < 0:
            raise ConfigError("queue_depth must be >= 0 (0 = unbounded)")
        if not 0 < self.read_positioning_factor <= 1:
            raise ConfigError("read_positioning_factor must be in (0,1]")
        if not 0 < self.write_positioning_factor <= 1:
            raise ConfigError("write_positioning_factor must be in (0,1]")

    @property
    def avg_rotation(self) -> float:
        """Expected rotational latency: half a revolution."""
        return 0.5 * 60.0 / self.rpm


class DiskDevice(QueuedDevice, BlockDevice):
    """One simulated spinning disk (FCFS with locality credit)."""

    def __init__(self, spec: DiskSpec = DiskSpec(), name: str = ""):
        super().__init__(spec.capacity, name or spec.name)
        self.init_queue(spec.queue_depth)
        self.spec = spec
        self.arm = Timeline(1)
        self._recent: deque = deque(maxlen=spec.recent_positions)
        cost = spec.avg_seek + spec.avg_rotation
        self._read_positioning = cost * spec.read_positioning_factor
        self._write_positioning = cost * spec.write_positioning_factor

    def _positioning(self, req: Request) -> float:
        offset = req.offset
        window = self.spec.sequential_window
        for pos in self._recent:
            if abs(offset - pos) <= window:
                return 0.0
        if req.op is Op.WRITE:
            return self._write_positioning
        return self._read_positioning

    def _service(self, req: Request, now: float) -> float:
        if req.op is Op.FLUSH:
            # Drain the on-disk write cache: wait for the arm to go idle.
            _, end = self.arm.acquire(max(now, self.arm.drain_time()), 0.0)
            return end
        if req.op is Op.TRIM:
            return now  # no-op on spinning media
        duration = self._positioning(req) + req.length / self.spec.transfer_bw
        self._recent.append(req.end)
        _, end = self.arm.acquire(now, duration)
        return end

    def _near_recent(self, offsets: np.ndarray, ends: np.ndarray
                     ) -> np.ndarray:
        """Per write, :meth:`_positioning`'s near test against the
        ``_recent`` window it would see: the deque's prior positions
        followed by the end offsets of the batch's earlier writes."""
        depth = self._recent.maxlen
        n = offsets.shape[0]
        if not depth:
            return np.zeros(n, dtype=bool)
        window = self.spec.sequential_window
        prior = np.fromiter(self._recent, np.int64, len(self._recent))
        # Padding sits more than ``window`` below every offset >= 0.
        pad = np.full(depth - prior.shape[0], -(window + 1), np.int64)
        # Row j of the view is exactly the deque as write j sees it.
        views = sliding_window_view(
            np.concatenate((pad, prior, ends[:-1])), depth)
        near = np.empty(n, dtype=bool)
        step = 4096   # bounds the (step, depth) temporary
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            dist = np.abs(views[lo:hi] - offsets[lo:hi, None])
            near[lo:hi] = (dist <= window).any(axis=1)
        return near

    def _write_batch(self, times: np.ndarray, offsets: np.ndarray,
                     lengths: np.ndarray, origin: IoOrigin) -> float:
        """``submit`` a WRITE per row, in row order, without ``Request``s.

        Row ``j`` is issued at ``times[j]``.  Stats, queue admission and
        retirement, positioning, ``_recent`` and the arm advance exactly
        as that ``submit`` loop would; returns the last completion.  The
        caller validates every range and keeps obs off (no hooks fire).
        """
        n = offsets.shape[0]
        self.stats.record_writes(n, int(lengths.sum()), origin)
        ends = offsets + lengths
        positioning = np.where(self._near_recent(offsets, ends), 0.0,
                               self._write_positioning)
        durations = (positioning + lengths / self.spec.transfer_bw).tolist()
        self._recent.extend(ends.tolist())
        arm = self.arm
        free = arm._free[0]
        busy = arm.busy_time
        depth_limit = self.queue_depth
        if not depth_limit:
            for t, duration in zip(times.tolist(), durations):
                free = (t if t > free else free) + duration
                busy += duration
        else:
            # QueuedDevice._admit/_retire plus Timeline.acquire, inlined
            # with the same comparisons and accumulation order.
            heappop, heappush = heapq.heappop, heapq.heappush
            q = self._inflight
            qs = self.qstats
            max_out = qs.max_outstanding
            queued = 0
            delay = qs.queue_delay_total
            for t, duration in zip(times.tolist(), durations):
                while q and q[0] <= t:
                    heappop(q)
                begin = t
                while len(q) >= depth_limit:
                    done = heappop(q)
                    if done > begin:
                        begin = done
                free = (begin if begin > free else free) + duration
                busy += duration
                heappush(q, free)
                if len(q) > max_out:
                    max_out = len(q)
                if begin > t:
                    queued += 1
                    delay += begin - t
            qs.submissions += n
            qs.queued_ops += queued
            qs.queue_delay_total = delay
            qs.max_outstanding = max_out
        arm._free[0] = free
        arm.busy_time = busy
        return free
