"""Block-device abstraction — the Device Mapper analogue.

Every storage entity in the stack (raw simulated SSD, RAID array,
caching target, backend storage) implements :class:`BlockDevice`.  A
device consumes a :class:`~repro.common.types.Request` at a given
simulated time and returns the completion time, updating its internal
resource timelines.  Devices stack exactly like Device Mapper targets:
a cache target holds references to a cache device and an origin device
and forwards (possibly transformed) requests downward.
"""

from __future__ import annotations

import abc
from typing import List

import numpy as np

from repro.block.lifecycle import Submission
from repro.common.errors import AddressError
from repro.common.types import IoOrigin, IoStats, Op, Request
from repro.obs.metrics import Histogram
from repro.obs.recorder import NULL_RECORDER


class BlockDevice(abc.ABC):
    """Abstract simulated block device.

    Requests run a split-phase lifecycle: ``submit`` validates and
    accounts the request, asks :meth:`_admit` when service may begin
    (the base class admits immediately; the
    :class:`~repro.block.lifecycle.QueuedDevice` mixin delays admission
    past a queue-depth limit), runs :meth:`_service` from that begin
    time, and hands the completed timestamps to :meth:`_retire` for
    queue bookkeeping.  ``submit`` returns the completion time;
    ``submit_request`` returns the full
    :class:`~repro.block.lifecycle.Submission`.
    """

    def __init__(self, size: int, name: str = ""):
        self.size = size
        self.name = name or type(self).__name__
        self.stats = IoStats()
        self.obs = NULL_RECORDER

    @abc.abstractmethod
    def _service(self, req: Request, now: float) -> float:
        """Device-specific handling; returns completion time."""

    # -- lifecycle hooks (overridden by QueuedDevice) ------------------
    def _admit(self, req: Request, now: float) -> float:
        """When service may begin; the no-queue fast path is ``now``."""
        return now

    def _retire(self, req: Request, now: float, begin: float,
                done: float) -> None:
        """Completion bookkeeping; no-op without a queue."""

    def _lifecycle(self, req: Request, now: float) -> "tuple[float, float]":
        """Validate, account, admit, service, retire: (begin, done)."""
        if req.op is not Op.FLUSH and req.end > self.size:
            raise AddressError(
                f"{self.name}: request [{req.offset}, {req.end}) beyond "
                f"device size {self.size}")
        self.stats.record(req)
        begin = self._admit(req, now)
        done = self._service(req, begin)
        self._retire(req, now, begin, done)
        if self.obs.enabled:
            self.obs.observe_io(self, req, now, done)
        return begin, done

    def submit(self, req: Request, now: float) -> float:
        """Validate, account and service a request."""
        return self._lifecycle(req, now)[1]

    def submit_request(self, req: Request, now: float) -> Submission:
        """Like :meth:`submit`, but return the full lifecycle record."""
        begin, done = self._lifecycle(req, now)
        return Submission(req=req, device=self.name, issue_t=now,
                          begin_t=begin, done_t=done, origin=req.origin)

    def submit_writes(self, offsets, lengths, now: float, origin: IoOrigin,
                      tenant: "str | None" = None) -> float:
        """Issue one WRITE per ``(offset, length)`` run, all at ``now``.

        ``offsets`` and ``lengths`` are equal-length integer sequences
        or arrays, in bytes; every WRITE carries ``origin`` and
        ``tenant``.  Runs are submitted in order; returns the latest
        completion, or
        ``now`` for an empty batch.  This base version is exactly a
        :meth:`submit` loop, so wrappers (fault injectors, stats taps,
        windows, instrumented instances) see every run as one request.
        Devices with a faster equivalent override it (see
        :class:`~repro.hdd.backend.PrimaryStorage`).
        """
        end = now
        for offset, length in zip(np.asarray(offsets, np.int64).tolist(),
                                  np.asarray(lengths, np.int64).tolist()):
            done = self.submit(Request(Op.WRITE, offset, length,
                                       origin=origin, tenant=tenant), now)
            if done > end:
                end = done
        return end

    # Convenience helpers used heavily by tests and examples.
    def read(self, offset: int, length: int, now: float) -> float:
        return self.submit(Request(Op.READ, offset, length), now)

    def write(self, offset: int, length: int, now: float,
              fua: bool = False) -> float:
        return self.submit(Request(Op.WRITE, offset, length, fua=fua), now)

    def flush(self, now: float) -> float:
        return self.submit(Request(Op.FLUSH), now)

    def trim(self, offset: int, length: int, now: float) -> float:
        return self.submit(Request(Op.TRIM, offset, length), now)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} size={self.size}>"


class NullDevice(BlockDevice):
    """Infinitely fast device; useful as a stub in unit tests."""

    def __init__(self, size: int, latency: float = 0.0, name: str = "null"):
        super().__init__(size, name)
        self.latency = latency

    def _service(self, req: Request, now: float) -> float:
        return now + self.latency


class LinearDevice(BlockDevice):
    """A contiguous window onto a lower device (dm-linear)."""

    def __init__(self, lower: BlockDevice, start: int, size: int,
                 name: str = "linear"):
        if start + size > lower.size:
            raise AddressError(
                f"linear window [{start}, {start + size}) beyond "
                f"{lower.name} size {lower.size}")
        super().__init__(size, name)
        self.lower = lower
        self.start = start

    def _service(self, req: Request, now: float) -> float:
        if req.op is Op.FLUSH:
            return self.lower.submit(req, now)
        shifted = Request(req.op, req.offset + self.start, req.length,
                          fua=req.fua, origin=req.origin, tenant=req.tenant)
        return self.lower.submit(shifted, now)


class StatsDevice(BlockDevice):
    """Transparent pass-through that measures traffic and latency.

    Interposed between layers to measure I/O amplification: the paper's
    amplification metric is (bytes observed at the cache-device layer) /
    (bytes requested by the application) — :meth:`amplification` divides
    this tap's observed bytes by the application byte count.  Every
    request's service latency (completion − issue time) is recorded in
    the log-scale :attr:`latency` histogram.
    """

    def __init__(self, lower: BlockDevice, name: str = ""):
        super().__init__(lower.size, name or f"stats({lower.name})")
        self.lower = lower
        self.latency = Histogram(f"{self.name}.latency_s")

    def _service(self, req: Request, now: float) -> float:
        done = self.lower.submit(req, now)
        self.latency.record(done - now)
        return done

    def amplification(self, app_bytes: int) -> float:
        """Observed-here bytes per application byte (the paper's metric).

        ``app_bytes`` is the application-level byte count the traffic
        through this tap amplifies; 0 when nothing was requested yet.
        """
        return self.stats.total_bytes / app_bytes if app_bytes else 0.0

    def snapshot_bytes(self) -> int:
        """Current observed byte total (for windowed amplification)."""
        return self.stats.total_bytes


def total_bytes(devices: List[BlockDevice]) -> int:
    """Sum of read+write bytes observed across ``devices``."""
    return sum(d.stats.total_bytes for d in devices)
