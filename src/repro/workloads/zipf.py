"""Zipfian block popularity — the skew engine behind the trace models.

Production block workloads (MSR Cambridge and Microsoft Production
Server traces, Table 6) are highly skewed: a small hot set absorbs most
accesses.  We model per-trace skew with a bounded Zipf distribution
sampled efficiently via inverse-CDF lookup on a precomputed table, with
a per-trace shuffle so different traces hash their hot sets to
different regions of the volume.
"""

from __future__ import annotations

from typing import Iterator, List

import numpy as np

from repro.common.chunks import (DEFAULT_CHUNK_REQUESTS, OP_CODE, OP_READ,
                                 OP_WRITE, make_chunk, requests_from_chunk)
from repro.common.errors import ConfigError
from repro.common.types import Op, Request
from repro.common.units import KIB, PAGE_SIZE


class ZipfSampler:
    """Bounded Zipf(theta) over ``n`` items with O(log n) sampling."""

    def __init__(self, n: int, theta: float = 0.99, seed: int = 0,
                 shuffle: bool = True):
        if n <= 0:
            raise ConfigError("n must be positive")
        if theta < 0:
            raise ConfigError("theta must be >= 0")
        self.n = n
        self.theta = theta
        self._rng = np.random.default_rng(seed)
        ranks = np.arange(1, n + 1, dtype=np.float64)
        weights = ranks ** (-theta)
        self._cdf = np.cumsum(weights)
        self._cdf /= self._cdf[-1]
        if shuffle:
            self._perm = self._rng.permutation(n)
        else:
            self._perm = None

    def sample(self) -> int:
        """Draw one item index in [0, n)."""
        u = self._rng.random()
        rank = int(np.searchsorted(self._cdf, u))
        if self._perm is not None:
            return int(self._perm[rank])
        return rank

    def sample_many(self, count: int) -> np.ndarray:
        """Vectorised draw of ``count`` item indexes."""
        u = self._rng.random(count)
        ranks = np.searchsorted(self._cdf, u)
        if self._perm is not None:
            return self._perm[ranks]
        return ranks

    def hot_fraction(self, top: float = 0.1) -> float:
        """Probability mass of the top ``top`` fraction of items.

        Useful to sanity-check skew: theta=0.99 puts ~63% of accesses
        on the hottest 10% of blocks for n ~ 1e5.
        """
        cutoff = max(1, int(self.n * top))
        return float(self._cdf[cutoff - 1])


def zipf_chunks(span: int, request_size: int = 4 * KIB,
                theta: float = 0.99, op: Op = Op.WRITE, seed: int = 0,
                chunk_requests: int = DEFAULT_CHUNK_REQUESTS
                ) -> Iterator[np.ndarray]:
    """Chunked Zipf-skewed request stream over ``span`` bytes, forever.

    Offsets are page-aligned with Zipf(``theta``) popularity; the
    vector draw (:meth:`ZipfSampler.sample_many`) consumes the RNG
    bitstream exactly as repeated scalar :meth:`ZipfSampler.sample`
    calls do, so :func:`zipf_requests` (the flattened form) is
    bit-identical row for row.
    """
    if request_size <= 0 or span < request_size:
        raise ConfigError("span must cover at least one request")
    if chunk_requests <= 0:
        raise ConfigError("chunk_requests must be positive")
    slots = max(1, (span - request_size) // PAGE_SIZE + 1)
    sampler = ZipfSampler(slots, theta=theta, seed=seed)
    op_code = OP_CODE[op]
    while True:
        offsets = (sampler.sample_many(chunk_requests).astype(np.int64)
                   * PAGE_SIZE)
        yield make_chunk(offsets, request_size, op_code)


def zipf_mixed_chunks(span: int, read_fraction: float, n_streams: int = 1,
                      theta: float = 0.99, seed: int = 0,
                      chunk_requests: int = DEFAULT_CHUNK_REQUESTS
                      ) -> List[Iterator[np.ndarray]]:
    """``n_streams`` Zipf clients over one shared hot set (4 KiB rows).

    Every client ranks the same shuffled blocks of ``span`` bytes but
    draws its own offsets and its own read/write mix (``read_fraction``
    of rows are reads) — many users hitting one popular data set, the
    shape of a cache cluster's front door.
    """
    if not 0.0 <= read_fraction <= 1.0:
        raise ConfigError("read_fraction must be in [0,1]")
    if n_streams < 1 or chunk_requests <= 0:
        raise ConfigError("need n_streams >= 1 and chunk_requests > 0")
    slots = span // PAGE_SIZE
    if slots < 1:
        raise ConfigError("span must cover at least one page")
    perm = np.random.default_rng(seed).permutation(slots)

    def client(index: int) -> Iterator[np.ndarray]:
        sampler = ZipfSampler(slots, theta=theta, seed=[seed, index],
                              shuffle=False)
        ops_rng = np.random.default_rng([seed, index, 1])
        while True:
            offsets = perm[sampler.sample_many(chunk_requests)]
            chunk = make_chunk(offsets.astype(np.int64) * PAGE_SIZE,
                               PAGE_SIZE, OP_WRITE)
            chunk["op"][ops_rng.random(chunk_requests)
                        < read_fraction] = OP_READ
            yield chunk

    return [client(i) for i in range(n_streams)]


def zipf_requests(span: int, request_size: int = 4 * KIB,
                  theta: float = 0.99, op: Op = Op.WRITE, seed: int = 0
                  ) -> Iterator[Request]:
    """Scalar form of :func:`zipf_chunks` — same rows, Request objects."""
    for chunk in zipf_chunks(span, request_size, theta, op, seed):
        for request in requests_from_chunk(chunk):
            yield request
