"""Primary storage: RAID-10 disk array behind an iSCSI link.

Reproduces the paper's backend (Table 1): eight 2 TB 7.2K RPM disks in
RAID-10, exported over 1 Gbps iSCSI.  The network link serializes all
transfers (1 Gbps ~ 117 MiB/s), the array stripes across mirror pairs
and balances reads between mirror halves.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.block.device import BlockDevice
from repro.common.errors import AddressError, ConfigError
from repro.common.types import IoOrigin, Op, Request
from repro.hdd.disk import DiskDevice, DiskSpec
from repro.obs.events import FlushBarrier
from repro.sim.timeline import Link
from repro.common.units import KIB, USEC


class Raid10Array(BlockDevice):
    """Striped mirrors: disks are paired, pairs are striped."""

    def __init__(self, disks: List[DiskDevice], chunk_size: int = 64 * KIB,
                 name: str = "raid10"):
        if len(disks) < 2 or len(disks) % 2:
            raise ConfigError("RAID-10 needs an even number (>=2) of disks")
        pairs = len(disks) // 2
        super().__init__(disks[0].size * pairs, name)
        self.disks = disks
        self.pairs = pairs
        self.chunk_size = chunk_size
        self._read_toggle = 0

    def _split(self, req: Request):
        """Yield (pair_index, pair_offset, length) chunks of the request."""
        offset, remaining = req.offset, req.length
        while remaining > 0:
            chunk_index = offset // self.chunk_size
            within = offset % self.chunk_size
            take = min(self.chunk_size - within, remaining)
            pair = chunk_index % self.pairs
            row = chunk_index // self.pairs
            pair_offset = row * self.chunk_size + within
            yield pair, pair_offset, take
            offset += take
            remaining -= take

    def _split_many(self, offsets: np.ndarray, lengths: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                               np.ndarray]:
        """Vector :meth:`_split` over runs: ``(run, pair, pair_offset,
        length)`` per piece, runs in order and each run's pieces in
        address order, exactly as ``_split`` yields them."""
        chunk = self.chunk_size
        first = offsets // chunk
        counts = np.where(lengths > 0,
                          (offsets + lengths - 1) // chunk - first + 1, 0)
        run = np.repeat(np.arange(offsets.shape[0]), counts)
        piece = (np.arange(run.shape[0])
                 - np.repeat(np.cumsum(counts) - counts, counts))
        index = first[run] + piece
        base = index * chunk
        start = np.maximum(offsets[run], base)
        stop = np.minimum(offsets[run] + lengths[run], base + chunk)
        pair_offset = index // self.pairs * chunk + (start - base)
        return run, index % self.pairs, pair_offset, stop - start

    def _service(self, req: Request, now: float) -> float:
        if req.op is Op.FLUSH:
            return max(d.submit(Request(Op.FLUSH), now) for d in self.disks)
        end = now
        for pair, pair_offset, length in self._split(req):
            mirror_a = self.disks[2 * pair]
            mirror_b = self.disks[2 * pair + 1]
            sub = Request(req.op, pair_offset, length, fua=req.fua,
                          origin=req.origin, tenant=req.tenant)
            if req.op is Op.READ:
                self._read_toggle ^= 1
                disk = mirror_a if self._read_toggle else mirror_b
                end = max(end, disk.submit(sub, now))
            else:  # WRITE and TRIM go to both mirror halves
                end = max(end, mirror_a.submit(sub, now))
                end = max(end, mirror_b.submit(sub, now))
        return end


class PrimaryStorage(BlockDevice):
    """The iSCSI-attached backend volume."""

    def __init__(self, n_disks: int = 8, disk_spec: DiskSpec = DiskSpec(),
                 network_bw: float = 125e6, network_latency: float = 200 * USEC,
                 chunk_size: int = 64 * KIB, name: str = "primary"):
        disks = [DiskDevice(disk_spec, name=f"{name}-disk{i}")
                 for i in range(n_disks)]
        self.array = Raid10Array(disks, chunk_size, name=f"{name}-raid10")
        super().__init__(self.array.size, name)
        self.link = Link(network_bw, network_latency)

    @property
    def disks(self) -> List[DiskDevice]:
        return self.array.disks

    def _service(self, req: Request, now: float) -> float:
        if req.op is Op.FLUSH:
            if self.obs.enabled:
                self.obs.emit(FlushBarrier(t=now, device=self.name))
            _, link_end = self.link.transfer(now, 64)  # command frame
            return self.array.submit(req, link_end)
        if req.op is Op.WRITE:
            _, link_end = self.link.transfer(now, req.length)
            return self.array.submit(req, link_end)
        if req.op is Op.READ:
            array_end = self.array.submit(req, now)
            _, link_end = self.link.transfer(array_end, req.length)
            return link_end
        return self.array.submit(req, now)  # TRIM

    def submit_writes(self, offsets, lengths, now: float, origin: IoOrigin,
                      tenant: "str | None" = None) -> float:
        """Vectorized destage batch: one WRITE per run, all at ``now``.

        Bit-identical to the base ``submit`` loop in every return value
        and every piece of link, RAID and disk state: the link's end
        times are a sequential running sum, the RAID split is
        ``_split`` expanded per piece, and each mirror disk replays its
        pieces in issue order (see :meth:`DiskDevice._write_batch`).
        Every range is validated first, so an error changes nothing.
        With obs on anywhere in the stack the per-request hooks must
        fire, so that case takes the base loop.  ``tenant`` tags only
        telemetry, which is off here.
        """
        array = self.array
        disks = array.disks
        if (self.obs.enabled or array.obs.enabled
                or any(d.obs.enabled for d in disks)):
            return super().submit_writes(offsets, lengths, now, origin,
                                         tenant)
        offsets = np.asarray(offsets, np.int64)
        lengths = np.asarray(lengths, np.int64)
        if not offsets.shape[0]:
            return now
        if (offsets < 0).any() or (lengths < 0).any():
            raise ValueError("negative offset/length in a write batch")
        _check_ranges(self, offsets, lengths)
        run, pair, pair_offset, piece_length = array._split_many(
            offsets, lengths)
        mirrors = []
        for index in range(array.pairs):
            rows = np.nonzero(pair == index)[0]
            if not rows.shape[0]:
                continue
            piece_offsets = pair_offset[rows]
            piece_lengths = piece_length[rows]
            for disk in disks[2 * index:2 * index + 2]:
                _check_ranges(disk, piece_offsets, piece_lengths)
            mirrors.append((index, rows, piece_offsets, piece_lengths))

        link_end = self.link.transfer_many(now, lengths)
        nbytes = int(lengths.sum())
        self.stats.record_writes(offsets.shape[0], nbytes, origin)
        array.stats.record_writes(offsets.shape[0], nbytes, origin)
        end = float(link_end[-1])   # link ends never decrease
        for index, rows, piece_offsets, piece_lengths in mirrors:
            times = link_end[run[rows]]
            for disk in disks[2 * index:2 * index + 2]:
                done = disk._write_batch(times, piece_offsets,
                                         piece_lengths, origin)
                if done > end:
                    end = done
        return end


def _check_ranges(device: BlockDevice, offsets: np.ndarray,
                  lengths: np.ndarray) -> None:
    """``BlockDevice._lifecycle``'s range check over a batch of runs."""
    beyond = np.nonzero(offsets + lengths > device.size)[0]
    if beyond.shape[0]:
        i = int(beyond[0])
        raise AddressError(
            f"{device.name}: request [{offsets[i]}, "
            f"{offsets[i] + lengths[i]}) beyond device size {device.size}")
