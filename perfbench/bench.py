"""Steady-state workloads, measured window, metrics and correctness gate.

Every workload builds a fresh stack through the experiments' own entry
points (``build_src``/``build_cluster``), drives it closed-loop through
``run_chunk_streams`` (directly, or inside ``replay_group``), and
measures only the window that follows a warm-up: past the first
S2S/S2D reclaims for the single stack, and to a warm cache (hit ratio
~0.85, reclaim just starting) for the cluster.  A :class:`Meter` sits at the
engine→target boundary: it finds the start of the window, snapshots the
stack's counters there, and keeps the issue/done time of every
completion in the window, from which the latency statistics come.

See ``README.md`` beside this file for why each workload exists and
what each metric means.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.workloads.replay as replay_mod
from repro.chaos.invariants import InvariantSuite
from repro.common.chunks import OP_READ, OP_WRITE, make_chunk
from repro.common.units import KIB, PAGE_SIZE, mb_per_sec
from repro.core.config import SrcConfig
from repro.harness.context import CACHE_SPACE, build_cluster, build_src
from repro.sim.engine import run_chunk_streams
from repro.workloads.fio import uniform_random_chunks
from repro.workloads.replay import replay_group
from repro.workloads.zipf import ZipfSampler

from tracing import LAYERS, Tracer, layer_report, wrap_stack

SCALE = 1 / 32
# Fresh stacks per trace-0 run, one sub-seed each: setup_s and
# host_req_per_s are medians over them, simulated metrics are pooled.
REPS = 3
MIN_SAMPLES = 10_000

# Measured work per --seconds, split over the REPS windows.  A window is
# fixed work, not a clock: simulated metrics must repeat exactly for a
# seed, so it is a request count (or a simulated duration) sized so the
# REPS windows take about --seconds of host time on a 2-core x86 host.
RANDWRITE_WARMUP_ROWS = 150_000     # first S2S ~90k rows, S2D ~95k rows
CLUSTER_WARMUP_ROWS = 100_000       # hit ratio ~0.85; first S2S ~110k rows
MSR_WARMUP_S = 4.0                  # simulated; S2S from ~2 s, S2D ~4 s
ROWS_PER_S = {"randwrite-destage": 30_000, "cluster-zipf": 14_000}
MSR_SIM_S_PER_S = 1.2

# Speed probe: this VM's single-thread speed swings up to 1.8x within
# minutes (neighbours on the host), which no window length averages
# out.  The Meter runs a fixed pure-Python/NumPy probe every
# PROBE_EVERY_S of host time and host metrics are rescaled to the
# speed at which the probe takes PROBE_REF_S; over 20 repetitions the
# IQR/median of randwrite-destage's rate fell from 0.39 to 0.12.
PROBE_EVERY_S = 0.02
PROBE_REF_S = 300e-6
_PROBE_ARRAY = np.random.default_rng(0).random(2048)

CLUSTER_SHARDS = 4
ZIPF_THETA = 0.99
ZIPF_READ_FRACTION = 0.3

END_TO_END = {
    # name: (unit, better)
    "host_req_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "sim_mb_s": ("MB/s", "higher"),
    "sim_lat_mean_us": ("us", "lower"),
    "sim_lat_tail_us": ("us", "lower"),
    "hit_ratio": ("fraction", "higher"),
    "io_amp": ("ratio", "lower"),
    "ssd_waf": ("ratio", "lower"),
}
# Printed beside the end-to-end metrics but not part of them: the
# simulator's latencies take a few discrete values (RAM absorb, one
# segment write), so these order statistics repeat exactly across seeds.
REPORTED = {
    "sim_lat_p50_us": ("us", "lower"),
    "sim_lat_p999_us": ("us", "lower"),
    "samples": ("count", ""),
    "host_req_per_s_raw": ("1/s", "higher"),   # before speed rescaling
    "setup_s_raw": ("s", "lower"),
}

CORE_COUNTERS = ("s2s_collections", "s2d_collections", "gc_copied_blocks",
                 "gc_destaged_blocks", "segment_writes",
                 "partial_segment_writes", "throttle_stalls",
                 "throttle_wait_s")
FTL_COUNTERS = ("host_pages_written", "gc_pages_copied", "superblock_erases")


class BenchFailure(Exception):
    """A correctness check failed; the run's ops all count as failed."""


def _probe() -> float:
    """Host seconds a fixed interpreter + NumPy job takes right now."""
    t0 = time.perf_counter()
    table: Dict[int, int] = {}
    total = 0
    out = []
    for i in range(1500):
        table[i & 255] = i
        total += table.get(i & 127, 0)
        out.append(total)
    np.cumsum(_PROBE_ARRAY)
    np.argsort(_PROBE_ARRAY[:512])
    return time.perf_counter() - t0


# ----------------------------------------------------------------------
# stacks
# ----------------------------------------------------------------------
@dataclass
class Stack:
    target: object
    router: Optional[object]
    caches: List
    ssds: List
    origin: object


def _src_stack() -> Stack:
    src = build_src(SCALE)
    return Stack(src, None, [src], list(src.ssds), src.origin)


def _cluster_stack() -> Stack:
    # build_cluster splits the cache window across shards but not the
    # erase group, which leaves each 1/32 shard 4 usable segment groups
    # against a reclaim target of 4 free ones: every reclaim becomes a
    # copy storm (io_amp 2-30 per 25k requests, a 100-250k request
    # cycle per shard) that no affordable window averages out.  Scaling
    # the erase group with the shard keeps the single stack's 18 groups.
    config = SrcConfig(cache_space=CACHE_SPACE // CLUSTER_SHARDS,
                       erase_group_size=(SrcConfig().erase_group_size
                                         // CLUSTER_SHARDS))
    router = build_cluster(SCALE, n_shards=CLUSTER_SHARDS, config=config)
    caches = [router.shards[slot] for slot in sorted(router.shards)]
    ssds = [ssd for cache in caches for ssd in cache.ssds]
    return Stack(router, router, caches, ssds, router.origin)


# ----------------------------------------------------------------------
# counters snapshotted at the window boundaries
# ----------------------------------------------------------------------
def _counters(stack: Stack) -> Dict[str, float]:
    out: Dict[str, float] = {
        "hits": sum(c.cstats.hits for c in stack.caches),
        "lookups": sum(c.cstats.lookups for c in stack.caches),
        "ssd_bytes": sum(c.ssd_bytes() for c in stack.caches),
        "origin_read": stack.origin.stats.read_bytes,
        "origin_write": stack.origin.stats.write_bytes,
    }
    for name in CORE_COUNTERS:
        out[name] = sum(getattr(c.srcstats, name) for c in stack.caches)
    for name in FTL_COUNTERS:
        out[name] = sum(getattr(s.ftl.counters, name) for s in stack.ssds)
    return out


# ----------------------------------------------------------------------
# the engine -> target boundary
# ----------------------------------------------------------------------
class Meter:
    """Wraps the engine's ``issue``/``issue_chunk`` callables.

    The window opens at the first call after ``warm_rows`` completed
    rows (the chunk call before it is clamped to end exactly there) or
    at the first call issued at or after simulated ``warm_time``.
    """

    def __init__(self, issue: Callable, issue_chunk: Callable,
                 on_start: Callable, warm_rows: Optional[int] = None,
                 warm_time: Optional[float] = None, probe: bool = False):
        self._issue = issue
        self._issue_chunk = issue_chunk
        self._on_start = on_start
        self.warm_rows = warm_rows
        self.warm_time = warm_time
        self.started = False
        self.warm_seen = 0
        self.windows = 0
        self.declined = 0
        self.chunk_rows = 0
        self.scalar_rows = 0
        self.app_bytes = 0
        self._issue_parts: List[np.ndarray] = []
        self._done_parts: List[np.ndarray] = []
        self._scalar_issue: List[float] = []
        self._scalar_done: List[float] = []
        # Probe durations before and inside the window (speed samples).
        self.probe = probe
        self.probes = ([], [])
        self._next_probe = 0.0

    def _start(self) -> None:
        self.started = True
        self._on_start()

    def _maybe_probe(self) -> None:
        now = time.perf_counter()
        if now >= self._next_probe:
            self.probes[self.started].append(_probe())
            self._next_probe = now + PROBE_EVERY_S

    def issue(self, req, now):
        if self.probe:
            self._maybe_probe()
        if not self.started and (
                (self.warm_rows is not None
                 and self.warm_seen >= self.warm_rows)
                or (self.warm_time is not None and now >= self.warm_time)):
            self._start()
        done = self._issue(req, now)
        if self.started:
            self.scalar_rows += 1
            self.app_bytes += req.length
            self._scalar_issue.append(now)
            self._scalar_done.append(float(done))
        else:
            self.warm_seen += 1
        return done

    def issue_chunk(self, rows, start, think, deadline, limit):
        if self.probe:
            self._maybe_probe()
        if not self.started:
            if self.warm_rows is not None:
                left = self.warm_rows - self.warm_seen
                if left <= 0:
                    self._start()
                else:
                    limit = min(limit, left) if limit else left
            elif start >= self.warm_time:
                self._start()
        issue_t, done_t, n = self._issue_chunk(rows, start, think,
                                               deadline, limit)
        if not self.started:
            self.warm_seen += n
        elif n:
            self.windows += 1
            self.chunk_rows += n
            self.app_bytes += int(rows["length"][:n].sum())
            self._issue_parts.append(np.asarray(issue_t[:n]))
            self._done_parts.append(np.asarray(done_t[:n]))
        else:
            self.windows += 1
            self.declined += 1
        return issue_t, done_t, n

    @property
    def rows(self) -> int:
        return self.chunk_rows + self.scalar_rows

    def times(self):
        issue = np.concatenate(self._issue_parts
                               + [np.asarray(self._scalar_issue)])
        done = np.concatenate(self._done_parts
                              + [np.asarray(self._scalar_done)])
        return issue, done

    def engine_counts(self) -> Dict[str, float]:
        rows = self.rows
        return {
            "windows": self.windows,
            "rows_per_window": (self.chunk_rows / (self.windows
                                                   - self.declined)
                                if self.windows > self.declined else 0.0),
            "declined_windows": self.declined,
            "scalar_rows": self.scalar_rows,
            "batched_share": self.chunk_rows / rows if rows else 0.0,
        }


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _zipf_stream(n_blocks: int, perm: np.ndarray, seed: int, index: int):
    """One cluster-zipf client: shared hot set, own draws and op mix."""
    sampler = ZipfSampler(n_blocks, theta=ZIPF_THETA,
                          seed=seed * 1_000 + index, shuffle=False)
    ops_rng = np.random.default_rng(seed * 1_000 + 500 + index)
    while True:
        offsets = perm[sampler.sample_many(4096)].astype(np.int64)
        chunk = make_chunk(offsets * PAGE_SIZE, PAGE_SIZE, OP_WRITE)
        chunk["op"] = np.where(ops_rng.random(4096) < ZIPF_READ_FRACTION,
                               OP_READ, OP_WRITE)
        yield chunk


def _drive_rows(stack, sources, warm_rows, window_rows, on_start, tracer):
    target = stack.target
    meter = Meter(lambda req, now: target.submit(req, now),
                  lambda *args: target.submit_chunk(*args),
                  on_start, warm_rows=warm_rows, probe=tracer is None)
    if tracer is not None:
        sources = [tracer.source(s) for s in sources]
    run_chunk_streams(meter.issue, sources,
                      max_requests=warm_rows + window_rows,
                      issue_chunk=meter.issue_chunk)
    return meter, None


def _drive_randwrite(stack, seed, window, on_start, tracer):
    span = 4 * stack.target.config.cache_space
    source = uniform_random_chunks(span, request_size=4 * KIB, seed=seed)
    return _drive_rows(stack, [source], RANDWRITE_WARMUP_ROWS, window,
                       on_start, tracer)


def _drive_cluster(stack, seed, window, on_start, tracer):
    cache = sum(c.config.cache_space for c in stack.caches)
    n_blocks = cache // 2 // PAGE_SIZE
    perm = np.random.default_rng(seed).permutation(n_blocks)
    sources = [_zipf_stream(n_blocks, perm, seed, i)
               for i in range(CLUSTER_SHARDS)]
    return _drive_rows(stack, sources, CLUSTER_WARMUP_ROWS, window,
                       on_start, tracer)


def _drive_msr(stack, seed, window, on_start, tracer):
    """``replay_group`` with the Meter spliced into its engine call."""
    meters = []
    inner = replay_mod.run_chunk_streams

    def metered(issue, sources, **kwargs):
        meter = Meter(issue, kwargs["issue_chunk"], on_start,
                      warm_time=MSR_WARMUP_S, probe=tracer is None)
        meters.append(meter)
        kwargs["issue_chunk"] = meter.issue_chunk
        if tracer is not None:
            sources = [tracer.source(s) for s in sources]
        return inner(meter.issue, sources, **kwargs)

    replay_mod.run_chunk_streams = metered
    try:
        result = replay_group(stack.target, "mixed", scale=SCALE,
                              duration=window, warmup=MSR_WARMUP_S,
                              seed=seed, batched=True)
    finally:
        replay_mod.run_chunk_streams = inner
    if len(meters) != 1:
        raise BenchFailure("replay_group did not take the batched path")
    return meters[0], result


WORKLOADS = {
    "randwrite-destage": (_src_stack, _drive_randwrite),
    "msr-mixed": (_src_stack, _drive_msr),
    "cluster-zipf": (_cluster_stack, _drive_cluster),
}


# ----------------------------------------------------------------------
# one repetition: build, warm up, measure, check
# ----------------------------------------------------------------------
def window_size(workload: str, seconds: float):
    """One repetition's window: a request count, or for ``msr-mixed`` a
    simulated duration (the replay's own notion of a window)."""
    if workload == "msr-mixed":
        return MSR_SIM_S_PER_S * seconds / REPS
    return round(ROWS_PER_S[workload] * seconds / REPS)


def _check(stack: Stack, check_ftl: bool) -> List[str]:
    problems = InvariantSuite(
        caches=None if stack.router is not None else stack.caches,
        router=stack.router).check_all()
    if check_ftl:
        for ssd in stack.ssds:
            try:
                ssd.ftl.check_invariants()
            except AssertionError as exc:
                problems.append(f"{ssd.name}: FTL invariant: {exc}")
    return problems


def run_rep(workload: str, seed: int, seconds: float,
            tracer: Optional[Tracer] = None, check_ftl: bool = True) -> dict:
    """Build and warm up one fresh stack, then measure one window on it.

    Raises :class:`BenchFailure` when a correctness check fails.
    Wrappers (if ``tracer``) are always removed.  ``check_ftl`` runs
    ``check_invariants`` on every SSD's FTL, which costs about a second
    per SSD, so a run does it on one repetition.
    """
    make_stack, drive = WORKLOADS[workload]
    t_setup = time.perf_counter()
    stack = make_stack()
    mark: Dict[str, object] = {}

    def on_start():
        mark["before"] = _counters(stack)
        mark["host_start"] = time.perf_counter()
        if tracer is not None:
            tracer.open_root()

    if tracer is not None:
        wrap_stack(tracer, stack.router, stack.caches, stack.ssds,
                   stack.origin)
    window = window_size(workload, seconds)
    try:
        meter, replay_result = drive(stack, seed, window, on_start, tracer)
        host_end = time.perf_counter()
        if tracer is not None:
            tracer.close_root()
    finally:
        if tracer is not None:
            tracer.restore()
    if "before" not in mark:
        raise BenchFailure("the run ended before its measured window")
    after = _counters(stack)
    delta = {k: after[k] - mark["before"][k] for k in after}
    issue, done = meter.times()

    problems = _check(stack, check_ftl)
    # A simulated-duration window attempts every op the engine issued.
    attempted = meter.rows if workload == "msr-mixed" else window
    if meter.rows != attempted or issue.size != attempted:
        problems.append(f"completed {meter.rows} of {attempted} ops")
    bad = int(np.count_nonzero(~(done >= issue)))
    if bad:
        problems.append(f"{bad} completions not after their issue")
    if issue.size < MIN_SAMPLES:
        problems.append(f"only {issue.size} latency samples "
                        f"(need {MIN_SAMPLES})")
    if replay_result is not None:
        if replay_result.completed_ops != meter.rows:
            problems.append(f"replay counted {replay_result.completed_ops} "
                            f"ops, the boundary saw {meter.rows}")
        if replay_result.hit_ratio != _ratio(delta["hits"],
                                             delta["lookups"]):
            problems.append("replay hit ratio differs from the counters'")
    if problems:
        raise BenchFailure("; ".join(problems))
    setup_probes, window_probes = meter.probes
    setup_s = mark["host_start"] - t_setup - sum(setup_probes)
    host_s = host_end - mark["host_start"] - sum(window_probes)
    return {
        "setup_s": setup_s * _speed(setup_probes),
        "host_req_per_s": meter.rows / host_s / _speed(window_probes),
        "setup_s_raw": setup_s,
        "host_req_per_s_raw": meter.rows / host_s,
        "rows": meter.rows,
        "app_bytes": meter.app_bytes,
        "issue": issue,
        "done": done,
        "engine": meter.engine_counts(),
        "delta": delta,
    }


def sim_metrics(reps: List[dict]) -> Dict[str, float]:
    """Simulated metrics pooled over the windows of ``reps``."""
    lat = np.concatenate([r["done"] - r["issue"] for r in reps])
    app = sum(r["app_bytes"] for r in reps)
    span = sum(float(r["done"].max() - r["issue"].min()) for r in reps)
    d = {k: sum(r["delta"][k] for r in reps) for k in reps[0]["delta"]}
    p50, p999 = np.percentile(lat, [50.0, 99.9])
    cut = lat.size - max(1, lat.size // 1000)
    host_pages = d["host_pages_written"]
    return {
        "sim_mb_s": mb_per_sec(app, span),
        "sim_lat_mean_us": float(lat.mean()) * 1e6,
        "sim_lat_tail_us": float(np.partition(lat, cut)[cut:].mean()) * 1e6,
        "sim_lat_p50_us": float(p50) * 1e6,
        "sim_lat_p999_us": float(p999) * 1e6,
        "hit_ratio": _ratio(d["hits"], d["lookups"]),
        "io_amp": _ratio(d["ssd_bytes"], app),
        "ssd_waf": _ratio(host_pages + d["gc_pages_copied"], host_pages),
        "samples": int(lat.size),
    }


# ----------------------------------------------------------------------
# a whole run
# ----------------------------------------------------------------------
def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _speed(probes: List[float]) -> float:
    """Reference probe time over the measured one (1.0 unprobed): host
    seconds times this are seconds at the reference speed."""
    return PROBE_REF_S / statistics.median(probes) if probes else 1.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _safe_rep(workload, seed, seconds, errors, **kwargs):
    try:
        return run_rep(workload, seed, seconds, **kwargs)
    except Exception:  # noqa: BLE001 - any failure fails the run loudly
        errors.append(traceback.format_exc())
        return None
    finally:
        gc.collect()


def _attempted(workload: str, seconds: float, reps: List) -> int:
    # A failed simulated-duration window never told us its size.
    failed_size = 1 if workload == "msr-mixed" else window_size(workload,
                                                                seconds)
    return sum(r["rows"] if r is not None else failed_size for r in reps)


def run_untraced(workload: str, seed: int, seconds: float,
                 reps: int = REPS, **kwargs) -> dict:
    """``reps`` fresh stacks, each set up and measured for one window.

    Repetition ``k`` runs sub-seed ``seed * REPS + k``: independent
    windows average over more reclaim cycles than repeats of one would.
    Host metrics are medians over the repetitions, simulated metrics
    are pooled over their windows.
    """
    errors: List[str] = []
    results = [_safe_rep(workload, seed * REPS + k, seconds, errors,
                         check_ftl=(k == reps - 1), **kwargs)
               for k in range(reps)]
    done = [r for r in results if r is not None]
    out = {"errors": errors, "metrics": {}, "reps": done,
           "attempted": _attempted(workload, seconds, results)}
    if len(done) == reps:
        med = {k: statistics.median(r[k] for r in done)
               for k in ("host_req_per_s", "setup_s", "host_req_per_s_raw",
                         "setup_s_raw")}
        out["metrics"] = {
            "host_req_per_s": med["host_req_per_s"],
            "setup_s": med["setup_s"],
            "peak_rss_mb": _peak_rss_mb(),
            **sim_metrics(done),
            "host_req_per_s_raw": med["host_req_per_s_raw"],
            "setup_s_raw": med["setup_s_raw"],
        }
    return out


def run_traced(workload: str, seed: int, seconds: float,
               spans_dir: Optional[Path] = None, **kwargs) -> dict:
    """One untraced and one traced repetition on fresh stacks of the
    first sub-seed; per-layer metrics come from the traced one."""
    errors: List[str] = []
    plain = _safe_rep(workload, seed * REPS, seconds, errors,
                      check_ftl=False, **kwargs)
    tracer = Tracer()
    traced = _safe_rep(workload, seed * REPS, seconds, errors,
                       tracer=tracer, **kwargs)
    out = {"errors": errors, "metrics": {},
           "reps": [r for r in (plain, traced) if r is not None],
           "attempted": _attempted(workload, seconds, [plain, traced])}
    if plain is None or traced is None:
        return out
    if sim_metrics([plain]) != sim_metrics([traced]):
        errors.append("the traced run changed the simulated metrics")
    if plain["engine"] != traced["engine"]:
        errors.append(f"the traced run changed the engine's batching: "
                      f"{plain['engine']} vs {traced['engine']}")
    layers = layer_report(tracer.arrays())
    accounted = sum(layers[name]["self_s"] for name in LAYERS)
    if abs(accounted - layers["root_s"]) > 1e-9 * layers["root_s"]:
        errors.append(f"layer self times sum to {accounted} s, the "
                      f"window took {layers['root_s']} s")
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(spans_dir / f"spans-{workload}-seed{seed}.npz")
    out["metrics"] = _per_layer(layers, traced, plain)
    out["layers"] = layers
    return out


def _per_layer(layers: dict, traced: dict, plain: dict) -> Dict[str, float]:
    d = traced["delta"]
    core = layers["core"]
    m = {
        "workloads.self_s": layers["workloads"]["self_s"],
        "workloads.rows": layers["workloads"]["rows"],
        "workloads.us_per_row": 1e6 * _ratio(layers["workloads"]["self_s"],
                                             layers["workloads"]["rows"]),
        "sim.self_s": layers["sim"]["self_s"],
    }
    m.update({f"sim.{k}": v for k, v in traced["engine"].items()})
    m.update({
        "cluster.self_s": layers["cluster"]["self_s"],
        "cluster.calls": layers["cluster"]["calls"],
        "cluster.shard_calls": layers["cluster"]["shard_calls"],
        "cluster.rows_per_shard_call": _ratio(
            layers["cluster"]["shard_rows"],
            layers["cluster"]["shard_calls"]),
        "core.self_s": core["self_s"],
        "core.vector_rows": core["vector_rows"],
        "core.scalar_rows": core["scalar_rows"],
        "core.vector_share": _ratio(
            core["vector_rows"], core["vector_rows"] + core["scalar_rows"]),
    })
    m.update({f"core.{k}": d[k] for k in CORE_COUNTERS})
    m.update({
        "ssd.self_s": layers["ssd"]["self_s"],
        "ssd.calls": layers["ssd"]["calls"],
    })
    m.update({f"ssd.{k}": d[k] for k in FTL_COUNTERS})
    m.update({
        "hdd.self_s": layers["hdd"]["self_s"],
        "hdd.calls": layers["hdd"]["calls"],
        "hdd.us_per_call": 1e6 * _ratio(layers["hdd"]["self_s"],
                                        layers["hdd"]["calls"]),
        "hdd.write_mb": d["origin_write"] / 1e6,
        "hdd.read_mb": d["origin_read"] / 1e6,
        # Raw rates: the traced repetition runs no speed probes.
        "trace.overhead_frac": _ratio(plain["host_req_per_s_raw"],
                                      traced["host_req_per_s_raw"]) - 1.0,
    })
    return m
