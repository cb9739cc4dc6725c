"""Closed-loop workload engine.

The paper's experiments are closed-loop: FIO jobs with a fixed iodepth,
and a trace replayer where each of four threads per trace issues its
next request as soon as the previous one completes.  We model each
outstanding I/O stream as a :class:`JobStream` with its own clock, and
interleave streams through a priority queue so that requests reach the
device stack in global time order.

Throughput for a run is ``bytes completed / elapsed simulated time``,
exactly the metric the paper reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from repro.block.lifecycle import Submission
from repro.common.chunks import request_from_row
from repro.common.errors import ConfigError
from repro.common.types import IoOrigin, IoStats, LatencyStats, Request
from repro.common.units import mb_per_sec

# A workload source yields Requests forever (or until exhausted).
RequestSource = Iterator[Request]
# A chunked source yields CHUNK_DTYPE structured arrays instead.
ChunkSource = Iterator["np.ndarray"]
# The system under test: (request, issue_time) -> completion time, or a
# Submission carrying the full issue/begin/done lifecycle.
IssueFn = Callable[[Request, float], "float | Submission"]
# Vectorized variant: (rows, start, think_time, deadline, limit) ->
# (issue_times, done_times, n_processed).  Processing a prefix (or
# nothing) is always legal; the engine serves the next row through the
# scalar IssueFn and retries.
IssueChunkFn = Callable[..., "Tuple"]

# Streams are interleaved through a heap of plain (next_time, index,
# stream) tuples.  The unique per-stream index breaks time ties before
# the comparison ever reaches the JobStream, so no rich-comparison
# dataclass wrapper is needed — tuple ordering is handled entirely in
# C, which matters at one heap push/pop per request.


class JobStream:
    """One logical thread of I/O with its own clock.

    ``think_time`` is inserted between a completion and the next issue
    (zero for the paper's saturation workloads).

    ``iodepth`` is the stream's outstanding-I/O budget, matching FIO's
    parameter of the same name: up to that many requests may be in
    flight at once, and a new one is issued the moment a slot frees.
    The default of 1 is the classic one-at-a-time closed loop.

    The budget applies to *foreground* requests only.  A source may
    interleave background-origin requests (destage, GC kicks, tenant
    maintenance); those are fire-and-forget — they neither occupy an
    iodepth slot nor enter the stream's latency reservoir, so a tagged
    background write can no longer steal the foreground's budget and
    inflate its percentiles.
    """

    __slots__ = ("source", "think_time", "name", "iodepth", "stats",
                 "latency", "exhausted", "_inflight")

    def __init__(self, source: RequestSource, think_time: float = 0.0,
                 name: str = "", iodepth: int = 1):
        if iodepth < 1:
            raise ConfigError(f"iodepth must be >= 1, got {iodepth}")
        self.source = source
        self.think_time = think_time
        self.name = name
        self.iodepth = iodepth
        self.stats = IoStats()
        self.latency = LatencyStats()
        self.exhausted = False
        self._inflight: List[float] = []   # outstanding completion times

    def slot_free_after(self, issue_time: float, done: float) -> float:
        """Track an issued request; return when the next may be issued.

        Under budget the stream can issue again immediately; at the
        budget it waits for its earliest outstanding completion (plus
        think time), which is what makes iodepth contended rather than
        a free fan-out.

        The classic qd1 closed loop skips the in-flight heap entirely:
        with one slot, the request just pushed is the one popped, so
        the answer is always its own completion plus think time.
        """
        if self.iodepth == 1:
            return done + self.think_time
        heapq.heappush(self._inflight, done)
        if len(self._inflight) < self.iodepth:
            return issue_time
        return heapq.heappop(self._inflight) + self.think_time

    def next_request(self) -> Optional[Request]:
        try:
            return next(self.source)
        except StopIteration:
            self.exhausted = True
            return None


class ChunkStream:
    """A qd1 closed-loop stream fed by a chunked source.

    The source yields :data:`repro.common.chunks.CHUNK_DTYPE` arrays;
    the stream serves rows in order, handing the engine whole row
    *slices* so a vectorized target (``issue_chunk``) can process an
    entire closed-loop run in one call.  It also speaks the scalar
    protocol (:meth:`next_request` / :meth:`slot_free_after`), so the
    same source drives the per-request oracle path unchanged — which is
    how the differential tests force both modes over one workload.
    """

    iodepth = 1   # chunked batching models the classic qd1 closed loop

    __slots__ = ("source", "think_time", "name", "tenant_names", "stats",
                 "latency", "exhausted", "_chunk", "_pos")

    def __init__(self, source: ChunkSource, think_time: float = 0.0,
                 name: str = "", tenant_names: Optional[List[str]] = None):
        self.source = source
        self.think_time = think_time
        self.name = name
        self.tenant_names = tenant_names
        self.stats = IoStats()
        self.latency = LatencyStats()
        self.exhausted = False
        self._chunk = None
        self._pos = 0

    def next_rows(self):
        """Remaining rows of the current chunk (fetching the next).

        Returns ``None`` once the source is exhausted.
        """
        if self._chunk is None or self._pos >= len(self._chunk):
            try:
                self._chunk = next(self.source)
            except StopIteration:
                self.exhausted = True
                return None
            self._pos = 0
            if len(self._chunk) == 0:
                return self.next_rows()
        return self._chunk[self._pos:]

    def advance(self, n: int) -> None:
        self._pos += n

    # -- scalar-oracle protocol ----------------------------------------
    def next_request(self) -> Optional[Request]:
        rows = self.next_rows()
        if rows is None:
            return None
        self._pos += 1
        return request_from_row(rows[0], self.tenant_names)

    def slot_free_after(self, issue_time: float, done: float) -> float:
        return done + self.think_time


class DeferredStats:
    """Bulk recording of served chunk rows into IoStats/LatencyStats.

    A short closed-loop window serves a few rows, and recording each
    window on arrival costs more than serving it.  :meth:`add` queues a
    window's rows and issue/done times in global order; :meth:`flush`
    records everything queued with one ``record_chunk`` and one
    ``record_many`` per destination — into ``stats``/``latency`` and,
    when ``owners`` is given, into each owner's own ``.stats`` and
    ``.latency`` through a per-owner mask.  That is bit-identical to
    recording every window as it arrives: IoStats counters are sums,
    and ``record_many`` replays per-sample order, which the global
    queue and each owner's mask both preserve.  Callers flush before
    recording anything else into the same objects and at the end.
    Queued rows are views of the sources' chunks, so a source must not
    refill a chunk it has already yielded.
    """

    FLUSH_ROWS = 1024

    __slots__ = ("stats", "latency", "owners", "_rows", "_issue", "_done",
                 "_owner_ids", "_counts", "_n")

    def __init__(self, stats: IoStats, latency: LatencyStats,
                 owners: Optional[List] = None):
        self.stats = stats
        self.latency = latency
        self.owners = owners
        self._rows: list = []
        self._issue: list = []
        self._done: list = []
        self._owner_ids: List[int] = []
        self._counts: List[int] = []
        self._n = 0

    def add(self, rows, issue_t, done_t, owner: int = 0) -> None:
        """Queue served ``rows`` (a chunk slice) and their times."""
        n = rows.shape[0]
        self._rows.append(rows)
        self._issue.append(issue_t)
        self._done.append(done_t)
        self._owner_ids.append(owner)
        self._counts.append(n)
        self._n += n
        if self._n >= self.FLUSH_ROWS:
            self.flush()

    def flush(self) -> None:
        if not self._n:
            return
        parts = self._rows
        # Columns are gathered per field: concatenating the structured
        # slices themselves goes through numpy's slow field promotion.
        ops = np.concatenate([r["op"] for r in parts])
        lengths = np.concatenate([r["length"] for r in parts])
        origins = np.concatenate([r["origin"] for r in parts])
        lats = np.concatenate(self._done) - np.concatenate(self._issue)
        self.stats.record_chunk(ops, lengths, origins)
        self.latency.record_many(lats)
        if self.owners is not None:
            of_row = np.repeat(self._owner_ids, self._counts)
            for idx in sorted(set(self._owner_ids)):
                mask = of_row == idx
                owner = self.owners[idx]
                owner.stats.record_chunk(ops[mask], lengths[mask],
                                         origins[mask])
                owner.latency.record_many(lats[mask])
        self._rows = []
        self._issue = []
        self._done = []
        self._owner_ids = []
        self._counts = []
        self._n = 0


@dataclass
class RunResult:
    """Outcome of an engine run."""

    elapsed: float
    stats: IoStats
    latency: LatencyStats
    completed_ops: int
    # Device-queue waiting time, populated when the issue function
    # returns Submission objects (split-phase stacks); empty otherwise.
    queue_delay: LatencyStats = field(default_factory=LatencyStats)

    @property
    def throughput_mb_s(self) -> float:
        return mb_per_sec(self.stats.total_bytes, self.elapsed)

    @property
    def read_mb_s(self) -> float:
        return mb_per_sec(self.stats.read_bytes, self.elapsed)

    @property
    def write_mb_s(self) -> float:
        return mb_per_sec(self.stats.write_bytes, self.elapsed)

    def as_dict(self) -> dict:
        return {
            "elapsed": self.elapsed,
            "completed_ops": self.completed_ops,
            "throughput_mb_s": self.throughput_mb_s,
            "io": self.stats.as_dict(),
            "latency": self.latency.as_dict(),
            "queue_delay": self.queue_delay.as_dict(),
        }


class Engine:
    """Drives a set of job streams against an issue function.

    ``sampler`` (any object with ``observe(now, stats)``, normally a
    :class:`repro.obs.sampler.Sampler`) is called after request
    completions with the cumulative counters, enabling periodic
    time-series capture without touching the issue path.  By default it
    observes every completion; ``sample_stride`` decimates to every
    N-th completion, and ``sample_interval`` (seconds of simulated
    time, overriding stride when set) to at most one observation per
    interval.  Either way observations still carry the duration-clamped
    completion time, so the series never leaks past the run window.

    ``issue_chunk`` (optional) is the vectorized companion of
    ``issue``: given a structured-array row slice, a start time, the
    stream's think time, a deadline and a request budget, it issues a
    prefix of the rows in one call and returns their exact issue/done
    time columns.  When it is set, a sampler is not, and every stream
    is a :class:`ChunkStream`, :meth:`run` switches to the batched
    loop; any row the chunk path declines falls back to ``issue``
    one-at-a-time, so results are bit-identical to the scalar loop.
    """

    def __init__(self, issue: IssueFn, sampler=None,
                 sample_stride: int = 1, sample_interval: float = 0.0,
                 issue_chunk: Optional[IssueChunkFn] = None):
        if sample_stride < 1:
            raise ConfigError(
                f"sample_stride must be >= 1, got {sample_stride}")
        if sample_interval < 0:
            raise ConfigError(
                f"sample_interval must be >= 0, got {sample_interval}")
        self.issue = issue
        self.streams: List[JobStream] = []
        self.sampler = sampler
        self.sample_stride = sample_stride
        self.sample_interval = sample_interval
        self.issue_chunk = issue_chunk

    def add_stream(self, stream: JobStream) -> None:
        self.streams.append(stream)

    def run(self, duration: float = float("inf"),
            max_requests: int = 0) -> RunResult:
        """Run until simulated ``duration`` elapses or sources dry up.

        ``max_requests`` (if nonzero) bounds the total number of issued
        requests, which keeps unit tests fast.
        """
        if (self.issue_chunk is not None and self.sampler is None
                and self.streams
                and all(isinstance(s, ChunkStream) for s in self.streams)):
            return self._run_batched(duration, max_requests)
        heap: List[tuple] = [(0.0, i, stream)
                             for i, stream in enumerate(self.streams)]
        heapq.heapify(heap)

        totals = IoStats()
        latencies = LatencyStats()
        queue_delays = LatencyStats()
        completed = 0
        end_time = 0.0
        issued = 0

        # Localize everything the per-request loop touches: global and
        # attribute lookups inside the loop are a measurable fraction
        # of the engine's own overhead at millions of requests.
        issue = self.issue
        sampler = self.sampler
        sample_stride = self.sample_stride
        sample_interval = self.sample_interval
        next_sample_t = 0.0
        heappop = heapq.heappop
        heappush = heapq.heappush
        totals_record = totals.record
        latencies_record = latencies.record
        queue_delays_record = queue_delays.record
        foreground = IoOrigin.FOREGROUND

        while heap:
            issue_time, index, stream = heappop(heap)
            if issue_time >= duration:
                continue
            request = stream.next_request()
            if request is None:
                continue
            is_fg = request.origin is foreground
            result = issue(request, issue_time)
            if isinstance(result, Submission):
                done = result.done_t
                if is_fg:
                    queue_delays_record(result.begin_t - result.issue_t)
            else:
                done = result
            if done < issue_time:
                raise AssertionError(
                    f"completion {done} precedes issue {issue_time}")
            stream.stats.record(request)
            totals_record(request)
            if is_fg:
                latency = done - issue_time
                stream.latency.record(latency)
                latencies_record(latency)
            completed += 1
            issued += 1
            clipped = done if done < duration else duration
            if sampler is not None:
                # Completions can land past the run window (the last
                # in-flight requests); samples stay inside it.
                if sample_interval > 0.0:
                    if clipped >= next_sample_t:
                        sampler.observe(clipped, totals)
                        next_sample_t = clipped + sample_interval
                elif sample_stride <= 1 or completed % sample_stride == 0:
                    sampler.observe(clipped, totals)
            if clipped > end_time:
                end_time = clipped
            if max_requests and issued >= max_requests:
                break
            if is_fg:
                heappush(heap, (stream.slot_free_after(issue_time, done),
                                index, stream))
            else:
                # Background origins are budget-exempt: the next request
                # issues immediately (plus think time), without charging
                # an iodepth slot or waiting on the background I/O.
                heappush(heap, (issue_time + stream.think_time,
                                index, stream))

        elapsed = duration if duration != float("inf") else end_time
        # If every source dried up before `duration`, report actual span.
        if duration != float("inf") and end_time < duration and not heap:
            elapsed = end_time
        if max_requests and issued >= max_requests:
            elapsed = end_time
        return RunResult(elapsed=elapsed, stats=totals, latency=latencies,
                         completed_ops=completed, queue_delay=queue_delays)

    def _run_batched(self, duration: float, max_requests: int) -> RunResult:
        """Chunked closed-loop run, bit-identical to the scalar loop.

        Streams still interleave through the (time, index) heap, but
        when a stream reaches the front the whole span until the next
        stream's turn (the *horizon*) is handed to ``issue_chunk`` as
        one row slice.  The chunk path issues the longest prefix it can
        prove equivalent to per-request submission and returns exact
        issue/done columns; whatever it declines (a non-conformant row,
        a closed fast-path gate, a horizon tie) is served through the
        scalar ``issue`` function — the same code path, one row at a
        time — and the loop continues.  Ties at the horizon re-enter
        the heap, where the per-stream index restores scalar ordering.
        """
        heap: List[tuple] = [(0.0, i, stream)
                             for i, stream in enumerate(self.streams)]
        heapq.heapify(heap)

        totals = IoStats()
        latencies = LatencyStats()
        queue_delays = LatencyStats()
        completed = 0
        end_time = 0.0
        issued = 0

        issue = self.issue
        issue_chunk = self.issue_chunk
        heappop = heapq.heappop
        heappush = heapq.heappush
        foreground = IoOrigin.FOREGROUND
        # Chunk-conformant rows are foreground by construction, so every
        # served row feeds the latency reservoirs too.
        pending = DeferredStats(totals, latencies, self.streams)
        defer = pending.add

        while heap:
            issue_time, index, stream = heappop(heap)
            if issue_time >= duration:
                continue
            rows = stream.next_rows()
            if rows is None:
                continue
            deadline = duration
            if heap and heap[0][0] < deadline:
                deadline = heap[0][0]
            limit = max_requests - issued if max_requests else 0
            issue_t, done_t, n = issue_chunk(rows, issue_time,
                                             stream.think_time,
                                             deadline, limit)
            if n:
                stream.advance(n)
                defer(rows[:n], issue_t, done_t, index)
                completed += n
                issued += n
                last_done = float(done_t[-1])   # done times are monotone
                clipped = last_done if last_done < duration else duration
                if clipped > end_time:
                    end_time = clipped
                if max_requests and issued >= max_requests:
                    break
                heappush(heap, (last_done + stream.think_time,
                                index, stream))
                continue
            # Chunk path declined the head row: serve it exactly as the
            # scalar loop would and come back around.
            request = stream.next_request()
            if request is None:
                continue
            is_fg = request.origin is foreground
            result = issue(request, issue_time)
            if isinstance(result, Submission):
                done_one = result.done_t
                if is_fg:
                    queue_delays.record(result.begin_t - result.issue_t)
            else:
                done_one = result
            if done_one < issue_time:
                raise AssertionError(
                    f"completion {done_one} precedes issue {issue_time}")
            pending.flush()
            stream.stats.record(request)
            totals.record(request)
            if is_fg:
                latency = done_one - issue_time
                stream.latency.record(latency)
                latencies.record(latency)
            completed += 1
            issued += 1
            clipped = done_one if done_one < duration else duration
            if clipped > end_time:
                end_time = clipped
            if max_requests and issued >= max_requests:
                break
            if is_fg:
                heappush(heap, (stream.slot_free_after(issue_time, done_one),
                                index, stream))
            else:
                heappush(heap, (issue_time + stream.think_time,
                                index, stream))

        pending.flush()
        elapsed = duration if duration != float("inf") else end_time
        if duration != float("inf") and end_time < duration and not heap:
            elapsed = end_time
        if max_requests and issued >= max_requests:
            elapsed = end_time
        return RunResult(elapsed=elapsed, stats=totals, latency=latencies,
                         completed_ops=completed, queue_delay=queue_delays)


def run_streams(issue: IssueFn, sources: List[RequestSource],
                duration: float = float("inf"),
                think_time: float = 0.0,
                max_requests: int = 0,
                sampler=None,
                iodepth: int = 1) -> RunResult:
    """Convenience wrapper: one JobStream per source, run them all."""
    engine = Engine(issue, sampler=sampler)
    for i, source in enumerate(sources):
        engine.add_stream(JobStream(source, think_time, name=f"job{i}",
                                    iodepth=iodepth))
    return engine.run(duration=duration, max_requests=max_requests)


def run_chunk_streams(issue: IssueFn, chunk_sources: List[ChunkSource],
                      duration: float = float("inf"),
                      think_time: float = 0.0,
                      max_requests: int = 0,
                      issue_chunk: Optional[IssueChunkFn] = None,
                      tenant_names: Optional[List[str]] = None) -> RunResult:
    """Convenience wrapper for chunked sources: one ChunkStream each.

    With ``issue_chunk`` set the run takes the batched loop; without
    it the same streams drive the scalar loop row by row, which is the
    forced-scalar side of the differential tests.
    """
    engine = Engine(issue, issue_chunk=issue_chunk)
    for i, source in enumerate(chunk_sources):
        engine.add_stream(ChunkStream(source, think_time, name=f"job{i}",
                                      tenant_names=tenant_names))
    return engine.run(duration=duration, max_requests=max_requests)
