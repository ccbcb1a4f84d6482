"""Execute sweep specs in-process or fanned out over a worker pool.

:func:`execute_point` is the single entry point that turns one
:class:`repro.sweep.spec.SweepPoint` into a
:class:`repro.backend.system.SimulationResult`.  It is a module-level
function taking only plain data, so it pickles cleanly into
``multiprocessing`` workers; every worker builds its own engine, frontend and
backend, which is what keeps parallel execution bit-identical to in-process
execution -- simulations share no mutable state, and the runner reassembles
results in spec order regardless of completion order.

:class:`SweepRunner` is the one executor.  For every ``jobs`` value it
consults an optional :class:`repro.sweep.cache.ResultCache` before
simulating, simulates each distinct point once, persists each fresh result
as soon as it arrives (so an interrupted sweep resumes from its last
completed point) and journals every transition.  ``jobs <= 1`` executes the
pending points in-process, in spec order; ``jobs >= 2`` fans them out over a
process pool.  The simulator and the pool machinery are imported on first
use, so a run whose every point is cached loads neither.

Execution context: what :func:`execute_point` needs beyond a point's
parameters -- the trace store and the observability settings -- travels in
an explicit :class:`ExecutionContext`.  In-process it is an argument; in the
pool it goes with every submitted chunk.  Nothing is configured
process-wide.

Trace amortization: when a result cache is configured the runner also pairs
with a :class:`repro.trace.store.TraceStore` (``<artifacts>/traces`` by
default).  The pool path bakes each distinct trace once in the parent
before fan-out; workers (and later runs, and other processes sharing the
artifacts directory) load the packed file by content address instead of
regenerating it.  The per-process memo that backs :func:`trace_for_params`
is keyed by the same canonical digest and its size is configurable via
``REPRO_TRACE_CACHE_SIZE``, so multi-workload grids no longer thrash it.

Fault tolerance: the pool path runs on a
``concurrent.futures.ProcessPoolExecutor`` and treats a dead worker as a
recoverable event -- completed points are already in the cache, the broken
pool is replaced (with exponential backoff, see
:class:`repro.sweep.resilience.RetryPolicy`), and the in-flight points are
re-dispatched with a bounded per-point retry budget.  A per-point wall-clock
timeout re-dispatches stragglers the same way.  Every transition is recorded
in a crash-safe :class:`repro.sweep.resilience.RunJournal`, and the
deterministic fault injector (:mod:`repro.sweep.faults`) can crash, slow or
corrupt any of it on demand -- the chaos suite proves recovered runs are
bit-identical to clean ones.
"""

from __future__ import annotations

import os
import time
import warnings
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from repro.backend.result import SimulationResult
from repro.common.errors import ConfigurationError, SweepExecutionError
from repro.common.hashing import content_digest
from repro.sweep.cache import ResultCache, result_from_dict, result_to_dict
from repro.sweep.faults import (CRASH_EXIT_CODE, active_fault_plan,
                                configure_faults)
from repro.sweep.faults import fire as fire_fault
from repro.sweep.resilience import RetryPolicy, RunJournal
from repro.sweep.spec import (OVERRIDE_SECTIONS, WORKLOAD_SECTION, ParamValue,
                              SweepPoint, SweepSpec, canonical_scalar,
                              spec_id_of)
from repro.trace.store import TraceStore, canonical_trace_params

_WORKLOAD_PREFIX = WORKLOAD_SECTION + "."

#: Default capacity of the per-process trace memo (override with the
#: ``REPRO_TRACE_CACHE_SIZE`` environment variable).
DEFAULT_TRACE_CACHE_SIZE = 32


@dataclass(frozen=True)
class ObsSettings:
    """Per-process observability configuration for sweep execution.

    Plain data (it crosses the pool boundary inside an
    :class:`ExecutionContext`).  When given, :func:`execute_point` attaches a
    :class:`repro.obs.Observer` to each hardware simulation, writes a
    per-point telemetry summary to ``<root>/points/<digest>.json``, streams
    heartbeat progress events to ``<root>/heartbeats/`` and -- when
    ``keep_recordings`` is set -- saves the full event recording to
    ``<root>/recordings/<digest>.robs``.
    """

    root: str
    capacity: int = 1 << 20
    #: Mirrors :data:`repro.obs.observer.DEFAULT_SAMPLE_INTERVAL` (kept as a
    #: literal so this dataclass stays import-light for pool workers).
    sample_interval: int = 1024
    #: Per-packet service spans are the densest event class; sweeps leave
    #: them off (lifecycle/stall/occupancy cover the reports) so fleet-wide
    #: telemetry stays within the bench overhead budget.
    module_spans: bool = False
    keep_recordings: bool = False
    heartbeat_seconds: float = 5.0


@dataclass(frozen=True)
class ExecutionContext:
    """Everything :func:`execute_point` needs beyond a point's parameters.

    It pickles, so the runner passes it as an argument in-process and sends
    it with every chunk it submits to the pool.  The store is the runner's
    own :class:`TraceStore` (a root plus counters), so quarantines during an
    in-process run show up in the runner's corrupt-artifact accounting.
    """

    #: Where traces are loaded from and baked into; ``None`` generates every
    #: trace (memoized per process).
    trace_store: Optional[TraceStore] = None
    #: Per-point telemetry; ``None`` runs unobserved.
    obs: Optional[ObsSettings] = None


def build_point_config(params: Dict[str, ParamValue]):
    """Build the :class:`SimulationConfig` for one point's parameters."""
    from dataclasses import replace

    from repro.experiments.common import experiment_config

    config = experiment_config(num_cores=int(params.get("num_cores", 256)),
                               fast_generator=bool(params.get("fast_generator", False)))
    overrides: Dict[str, Dict[str, ParamValue]] = {}
    for name, value in params.items():
        if "." not in name:
            continue
        section, fieldname = name.split(".", 1)
        if section == WORKLOAD_SECTION:
            continue  # generator-constructor parameter, not a config field
        if section not in OVERRIDE_SECTIONS:
            raise ConfigurationError(f"unknown override section in {name!r}")
        overrides.setdefault(section, {})[fieldname] = value
    for section, fields in overrides.items():
        config = replace(config, **{section: replace(getattr(config, section),
                                                     **fields)})
    config.validate()
    return config


def workload_params(params: Dict[str, ParamValue]) -> Dict[str, ParamValue]:
    """Extract the ``workload.<param>`` entries as constructor keyword args."""
    return {name[len(_WORKLOAD_PREFIX):]: value
            for name, value in params.items()
            if name.startswith(_WORKLOAD_PREFIX)}


@dataclass
class TraceStats:
    """Per-process counters of how traces were obtained (see ``snapshot``)."""

    generated: int = 0    #: built by running a workload generator (the slow path)
    packed_hits: int = 0  #: loaded from the packed trace store
    memo_hits: int = 0    #: answered by the in-process memo

    def snapshot(self) -> "TraceStats":
        return TraceStats(self.generated, self.packed_hits, self.memo_hits)

    def since(self, base: "TraceStats") -> "TraceStats":
        return TraceStats(self.generated - base.generated,
                          self.packed_hits - base.packed_hits,
                          self.memo_hits - base.memo_hits)


#: Process-wide trace accounting (parallel workers keep their own copies).
TRACE_STATS = TraceStats()

#: LRU memo of trace objects keyed by their canonical digest -- the *same*
#: content address the trace store files use, so multi-workload grids never
#: collide and the memo never diverges from the on-disk key space.
_TRACE_MEMO: "OrderedDict[str, object]" = OrderedDict()

#: ``(store_root, digest)`` pairs known to be present on disk, so memo hits
#: ensure the given store is populated without re-reading its header every
#: time (a store first used after the memo warmed up still gets baked).
_STORE_SEEN: set = set()


def trace_cache_size() -> int:
    """Capacity of the per-process trace memo (``REPRO_TRACE_CACHE_SIZE``)."""
    try:
        size = int(os.environ.get("REPRO_TRACE_CACHE_SIZE",
                                  DEFAULT_TRACE_CACHE_SIZE))
    except ValueError:
        return DEFAULT_TRACE_CACHE_SIZE
    return max(1, size)


def trace_cache_clear() -> None:
    """Drop the per-process trace memo (tests; memory pressure)."""
    _TRACE_MEMO.clear()
    _STORE_SEEN.clear()


def trace_key_for_params(params: Dict[str, ParamValue],
                         ) -> Tuple[Dict[str, ParamValue], str]:
    """The canonical trace key and digest for one point's parameters.

    Every site that names a trace -- the per-process memo, the parent-side
    pre-bake, the bake CLI and the trace bench -- derives its key through
    this one helper, so the parent can never bake under a different digest
    than the one workers look up.  Scalars are canonicalised the same way
    :meth:`SweepSpec.points` canonicalises point parameters
    (:func:`repro.sweep.spec.canonical_scalar`), so a standalone
    ``execute_point`` caller passing ``seed="3"`` or
    ``workload.width="16"`` names the same trace as a spec-driven sweep.
    """
    max_tasks = canonical_scalar(params.get("max_tasks"))
    key_params = canonical_trace_params(
        str(params["workload"]),
        scale_factor=float(canonical_scalar(params.get("scale_factor", 1.0))),
        seed=int(canonical_scalar(params.get("seed", 0))),
        max_tasks=None if max_tasks is None else int(max_tasks),
        workload_kwargs={name: canonical_scalar(value)
                         for name, value in workload_params(params).items()})
    return key_params, content_digest(key_params)


def generate_trace_for_key(key_params: Dict[str, ParamValue]):
    """Run the workload generator named by a canonical trace key."""
    from repro.experiments.common import experiment_trace

    return experiment_trace(
        key_params["workload"], scale_factor=key_params["scale_factor"],
        seed=key_params["seed"], max_tasks=key_params["max_tasks"])


def trace_for_params(params: Dict[str, ParamValue],
                     store: Optional[TraceStore] = None):
    """Resolve the trace for one point's parameters (memo -> store -> generate).

    The memo and the store share one canonical key
    (:func:`repro.trace.store.trace_digest` of the normalised workload spec),
    so a grid touching many (workload, seed, scale) tuples is served
    correctly at any memo size, and every process that misses its memo loads
    the packed baked trace instead of regenerating.  Replayed packed traces
    are bit-identical to generated ones (pinned by the determinism suite).
    """
    key_params, digest = trace_key_for_params(params)
    trace = _TRACE_MEMO.get(digest)
    if trace is not None:
        _TRACE_MEMO.move_to_end(digest)
        TRACE_STATS.memo_hits += 1
        if store is not None:
            _ensure_stored(store, digest, key_params, trace)
        return trace

    if store is not None:
        trace, baked = store.get_or_bake(
            key_params, lambda: generate_trace_for_key(key_params))
        _STORE_SEEN.add((str(store.root), digest))
        if baked:
            TRACE_STATS.generated += 1
        else:
            TRACE_STATS.packed_hits += 1
    else:
        trace = generate_trace_for_key(key_params)
        TRACE_STATS.generated += 1
    _TRACE_MEMO[digest] = trace
    while len(_TRACE_MEMO) > trace_cache_size():
        _TRACE_MEMO.popitem(last=False)
    return trace


def _ensure_stored(store: TraceStore, digest: str,
                   key_params: Dict[str, ParamValue], trace) -> None:
    """Back-fill ``store`` from a memoized trace.

    A store first used *after* the per-process memo warmed up (e.g. a second
    campaign in the same process pointed at a fresh artifacts dir) would
    otherwise never receive the trace while the run still reported it as
    'reused' -- leaving later fleets to regenerate.  The ``_STORE_SEEN`` memo
    keeps this to one ``contains`` header-read per (store, digest).
    """
    key = (str(store.root), digest)
    if key in _STORE_SEEN:
        return
    if not store.contains(digest):
        store.put(digest, trace, params=key_params)
    _STORE_SEEN.add(key)


def execute_point(point_params: Dict[str, ParamValue],
                  context: ExecutionContext = ExecutionContext()) -> Dict:
    """Simulate one sweep point and return the result as plain JSON data.

    Takes and returns plain dicts (not dataclasses) so the function can cross
    process boundaries regardless of the multiprocessing start method.
    ``context`` names the trace store and the telemetry settings; the
    default uses neither.
    """
    params = dict(point_params)
    config = build_point_config(params)
    trace = trace_for_params(params, context.trace_store)
    system_kind = params.get("system", "hardware")
    obs = context.obs
    observer = heartbeats = digest = None
    if obs is not None and system_kind == "hardware":
        # Telemetry is hardware-frontend instrumentation; software-runtime
        # points run unobserved (their results are unaffected either way).
        from repro.obs import ObsConfig, Observer
        from repro.obs.report import HeartbeatWriter

        digest = content_digest(params)
        observer = Observer(ObsConfig(capacity=obs.capacity,
                                      sample_interval=obs.sample_interval,
                                      module_spans=obs.module_spans,
                                      heartbeat_seconds=obs.heartbeat_seconds))
        heartbeats = HeartbeatWriter(obs.root)
        observer.heartbeat = heartbeats.progress_hook(digest)
        heartbeats.emit("point_start", point=digest,
                        workload=str(params.get("workload", "")))
    try:
        if system_kind == "hardware":
            from repro.backend.system import TaskSuperscalarSystem

            result = TaskSuperscalarSystem(config, observer=observer).run(
                trace, validate=bool(params.get("validate", False)))
        elif system_kind == "software":
            from repro.software.runtime_sim import SoftwareRuntimeSystem

            result = SoftwareRuntimeSystem(config).run(
                trace, validate=bool(params.get("validate", False)))
        else:  # pragma: no cover - SweepSpec.validate rejects this earlier
            raise ConfigurationError(f"unknown system {system_kind!r}")
    except Exception as exc:
        if heartbeats is not None:
            heartbeats.point_failed(digest, error=repr(exc))
        raise
    if observer is not None:
        # Telemetry is best-effort by contract: a full disk or an unwritable
        # obs dir must never take down the simulation whose result is already
        # in hand.
        try:
            _write_point_telemetry(obs, digest, params, observer, result)
            heartbeats.emit("point_done", point=digest,
                            makespan_cycles=result.makespan_cycles,
                            tasks=result.tasks_completed)
        except OSError as exc:
            warnings.warn(
                f"telemetry write failed for point {digest[:12]} ({exc}); "
                "the simulation result is unaffected", RuntimeWarning,
                stacklevel=2)
    return result_to_dict(result)


def _write_point_telemetry(obs: ObsSettings, digest: str,
                           params: Dict[str, ParamValue], observer,
                           result: SimulationResult) -> None:
    """Persist one observed point's telemetry artifacts under ``obs.root``."""
    from repro.obs.io import save_recording
    from repro.obs.report import point_summary, write_point_summary

    fault = fire_fault("obs_fail")
    if fault is not None:
        raise OSError(f"injected obs write failure ({fault.describe()})")

    recording = observer.snapshot(meta={"point": digest})
    summary = point_summary(
        recording, params=params,
        metrics={"makespan_cycles": result.makespan_cycles,
                 "speedup": result.speedup,
                 "decode_rate_cycles": result.decode_rate_cycles})
    write_point_summary(obs.root, digest, summary)
    if obs.keep_recordings:
        save_recording(recording,
                       Path(obs.root) / "recordings" / f"{digest}.robs")


def _execute_chunk(payloads: List[Tuple[int, Dict[str, ParamValue]]],
                   context: ExecutionContext) -> List[Tuple[int, Dict]]:
    """Worker entry point: execute one dispatched chunk of indexed points.

    This is also where the process-fatal fault injections live
    (:mod:`repro.sweep.faults`): ``worker_crash`` kills this worker before
    the target point simulates -- exactly the failure mode a preempted
    container or an OOM kill produces -- and ``slow_point`` turns the target
    point into a straggler for the per-point timeout.  Both target the
    point's spec index, so injected runs are deterministic.
    """
    out: List[Tuple[int, Dict]] = []
    for index, params in payloads:
        if fire_fault("worker_crash", point=index) is not None:
            os._exit(CRASH_EXIT_CODE)
        fault = fire_fault("slow_point", point=index)
        if fault is not None:
            time.sleep(fault.seconds)
        out.append((index, execute_point(params, context)))
    return out


@dataclass
class SweepRun:
    """The outcome of running one spec: results in spec point order."""

    spec: SweepSpec
    points: List[SweepPoint]
    results: List[SimulationResult]
    computed_count: int
    cached_count: int
    #: Parent-side trace accounting.  In-process (``jobs <= 1``) this counts
    #: every trace the run generated (cold bakes, or plain generation when no
    #: store is configured); on the pool path it counts the parent's
    #: pre-fan-out bakes -- with a store, workers never regenerate, so 0
    #: means every needed trace was already baked.  A *store-less* pool run
    #: regenerates inside the workers, which the parent cannot observe; both
    #: counters stay 0 there.
    trace_generated: int = 0
    #: Traces answered without regeneration (packed-store loads + memo hits),
    #: counted parent-side under the same caveat as ``trace_generated``.
    trace_reused: int = 0
    #: Points re-dispatched after a worker crash or a per-point timeout.
    retried_points: int = 0
    #: Times the worker pool was torn down and replaced mid-run.
    pool_restarts: int = 0
    #: Corrupt artifacts (cache entries, packed traces) quarantined during
    #: this run, parent-side.  Workers quarantine independently; their events
    #: surface as warnings, not in this counter.
    corrupt_artifacts: int = 0
    #: Where the quarantined artifacts went (for the post-mortem).
    quarantined_paths: List[str] = field(default_factory=list)
    #: The run journal recording this run's transitions, when journaling on.
    journal_path: Optional[str] = None

    def __iter__(self):
        return iter(zip(self.points, self.results))

    def result_for(self, **param_filter: ParamValue) -> SimulationResult:
        """The unique result whose point matches every given parameter."""
        matches = [result for point, result in self
                   if all(point.as_dict().get(k) == v
                          for k, v in param_filter.items())]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} points match {param_filter!r}")
        return matches[0]

    def summary(self) -> str:
        """One-line human-readable outcome."""
        return (f"{self.spec.name}: {len(self.points)} points "
                f"({self.cached_count} cached, {self.computed_count} computed)")

    def trace_summary(self) -> str:
        """One-line trace-amortization outcome (the store's scoreboard)."""
        return (f"traces: {self.trace_generated} regenerated, "
                f"{self.trace_reused} reused")

    def resilience_summary(self) -> Optional[str]:
        """One-line recovery outcome, or ``None`` when the run was clean.

        Kept off the main :meth:`summary` line so the long-standing
        ``"N cached, M computed"`` contract (and the CI greps pinned to it)
        is untouched by a clean run.
        """
        if not (self.retried_points or self.pool_restarts
                or self.corrupt_artifacts):
            return None
        return (f"resilience: {self.retried_points} point(s) retried, "
                f"{self.pool_restarts} pool restart(s), "
                f"{self.corrupt_artifacts} corrupt artifact(s) quarantined")


ProgressCallback = Callable[[SweepPoint, SimulationResult, bool], None]


def resolve_trace_store(trace_store: Union[TraceStore, str, None, bool],
                        cache: Optional[ResultCache]) -> Optional[TraceStore]:
    """Pick a runner's trace store.

    ``None`` derives the conventional store from the result cache
    (``<artifacts>/traces``) so any cached sweep amortises trace generation
    by default; ``False`` disables the store; a path or :class:`TraceStore`
    is used as given.  Cache-less (``--no-cache``) runs write nothing.
    """
    if trace_store is False:
        return None
    if isinstance(trace_store, TraceStore):
        return trace_store
    if isinstance(trace_store, (str, os.PathLike)):
        return TraceStore(trace_store)
    if cache is not None:
        return TraceStore.for_cache(cache)
    return None


JournalOption = Union[RunJournal, str, Path, None, bool]


def resolve_journal(journal: JournalOption, cache: Optional[ResultCache],
                    points: List[SweepPoint]) -> RunJournal:
    """Pick a runner's journal.

    ``None`` derives the conventional location from the result cache
    (``<artifacts>/journals/<spec_id>.jsonl``, next to ``objects/`` and
    ``quarantine/``) so every cached sweep is journaled by default; ``False``
    disables journaling; a path or :class:`RunJournal` is used as given.
    Cache-less runs have no artifact root to journal under, so they run
    unjournaled unless given a path.
    """
    if isinstance(journal, RunJournal):
        return journal
    if isinstance(journal, (str, os.PathLike)):
        return RunJournal(journal)
    if journal is False or cache is None:
        return RunJournal(None)
    return RunJournal.for_root(Path(cache.root), spec_id_of(points))


def _integrity_snapshot(cache: Optional[ResultCache],
                        store: Optional[TraceStore]) -> Tuple[int, int]:
    """Parent-side corrupt-artifact counters before a run (for the delta)."""
    return (getattr(cache, "corrupt", 0) if cache is not None else 0,
            getattr(store, "corrupt", 0) if store is not None else 0)


def _integrity_since(base: Tuple[int, int], cache: Optional[ResultCache],
                     store: Optional[TraceStore]) -> Tuple[int, List[str]]:
    """Corrupt-artifact count and quarantine paths accrued since ``base``."""
    cache_now, store_now = _integrity_snapshot(cache, store)
    paths: List[str] = []
    if cache is not None and cache_now > base[0]:
        paths.extend(str(p) for p in cache.quarantined[-(cache_now - base[0]):])
    if store is not None and store_now > base[1]:
        paths.extend(str(p) for p in store.quarantined[-(store_now - base[1]):])
    return (cache_now - base[0]) + (store_now - base[1]), paths


def adaptive_chunksize(num_pending: int, num_workers: int) -> int:
    """Pool chunk size for a batch of ``num_pending`` uncached points.

    Fanning out one point per pool task is ideal for long simulations but
    pays one round of pickling/dispatch overhead per point, which dominates
    on large grids of cheap points.  Batching to roughly four chunks per
    worker amortises that overhead while keeping the pool load-balanced;
    the cap keeps any single chunk from serialising too much work behind
    one slow point.
    """
    return max(1, min(32, num_pending // (num_workers * 4)))


def _point_error(points: List[SweepPoint], indexes: List[int], attempt: int,
                 exc: Exception, journal: RunJournal) -> SweepExecutionError:
    """Journal a point that raised; the error naming it, to chain ``from``."""
    for index in indexes:
        journal.emit("point_failed", point_id=points[index].point_id,
                     attempt=attempt, reason=repr(exc))
    labels = ", ".join(points[index].label() for index in indexes[:5])
    return SweepExecutionError(
        f"sweep point(s) {labels} raised {type(exc).__name__}: {exc}")


class SweepRunner:
    """Run a spec's points in-process (``jobs <= 1``) or over a process pool.

    Both paths share everything but execution.  Cached points are answered
    from the artifact directory without simulating; a parameter set that
    repeats in the grid (e.g. clamped capacity points) is simulated once;
    fresh results are written to the cache as they arrive, so killing a
    sweep midway loses at most the points still in flight; and the returned
    results are ordered by spec point order whatever the ``jobs`` value.

    ``jobs <= 1`` executes the pending points one at a time in spec order,
    resolving each trace on demand -- the reference executor that parallel
    runs are compared against.  It starts no pool and bakes nothing ahead.

    ``jobs >= 2`` bakes each distinct trace once, then fans the points out
    over a crash-tolerant pool.  A dead worker (OOM kill, container
    preemption, an injected ``worker_crash``) does not lose the sweep: the
    broken pool is replaced after an exponential backoff, and every
    in-flight point is re-dispatched as its own single-point task with a
    bounded per-point retry budget (``retry``, a :class:`RetryPolicy`).
    With ``point_timeout_seconds`` set, a chunk that exceeds its wall-clock
    deadline is treated the same way: the pool is torn down (terminating the
    straggler) and the timed-out points retried while innocent in-flight
    points are re-dispatched without spending their retry budget.

    On either path a point that *raises* fails the sweep at once -- a
    deterministic error would fail identically on retry -- as a
    :class:`SweepExecutionError` naming the point, chained from the original.
    """

    def __init__(self, jobs: int = 1, cache: Optional[ResultCache] = None,
                 trace_store: Union[TraceStore, str, None, bool] = None,
                 retry: Optional[RetryPolicy] = None,
                 journal: JournalOption = None,
                 obs: Optional[ObsSettings] = None,
                 start_method: Optional[str] = None):
        if retry is not None and jobs <= 1:
            raise ConfigurationError(
                "a retry policy governs the worker pool; it needs jobs >= 2")
        self.jobs = jobs
        self.cache = cache
        self.trace_store = resolve_trace_store(trace_store, cache)
        self.retry = retry if retry is not None else RetryPolicy()
        self.journal = journal
        self.start_method = start_method
        self.context = ExecutionContext(self.trace_store, obs)

    def run(self, spec: SweepSpec,
            progress: Optional[ProgressCallback] = None) -> SweepRun:
        """Execute ``spec`` and return its :class:`SweepRun`."""
        points = spec.points()
        results: List[Optional[SimulationResult]] = [None] * len(points)
        # One execution per *distinct* configuration, keyed by point id.
        pending: Dict[str, List[int]] = {}
        cached = 0
        integrity_base = _integrity_snapshot(self.cache, self.trace_store)
        journal = resolve_journal(self.journal, self.cache, points)
        journal.emit("sweep_start", spec=spec.name, points=len(points),
                     workers=max(1, self.jobs))
        for index, point in enumerate(points):
            if point.point_id in pending:
                pending[point.point_id].append(index)
                continue
            result = self.cache.get(point) if self.cache is not None else None
            if result is None:
                pending[point.point_id] = [index]
                continue
            results[index] = result
            cached += 1
            journal.emit("point_cached", point_id=point.point_id)
            if progress is not None:
                progress(point, result, True)

        trace_generated = trace_reused = 0
        retried_points = pool_restarts = 0
        if pending and self.jobs <= 1:
            trace_generated, trace_reused = self._execute_in_process(
                points, pending, results, journal, progress)
        elif pending:
            if self.trace_store is not None:
                trace_generated, trace_reused = self._bake_traces(
                    [points[indexes[0]] for indexes in pending.values()])
            retried_points, pool_restarts = self._execute_pool(
                points, pending, results, journal, progress)

        duplicates = sum(len(indexes) - 1 for indexes in pending.values())
        _require_complete(points, results)
        if self.cache is not None:
            self.cache.write_manifest(spec_id_of(points), spec.name, points)
        corrupt, quarantined = _integrity_since(integrity_base, self.cache,
                                                self.trace_store)
        journal.emit("sweep_done", computed=len(pending),
                     cached=cached + duplicates, retried=retried_points,
                     pool_restarts=pool_restarts, corrupt_artifacts=corrupt)
        return SweepRun(spec=spec, points=points, results=list(results),
                        computed_count=len(pending), cached_count=cached + duplicates,
                        trace_generated=trace_generated,
                        trace_reused=trace_reused,
                        retried_points=retried_points,
                        pool_restarts=pool_restarts,
                        corrupt_artifacts=corrupt,
                        quarantined_paths=quarantined,
                        journal_path=(str(journal.path)
                                      if journal.enabled else None))

    def _record_chunk(self, chunk_results: List[Tuple[int, Dict]],
                      points: List[SweepPoint],
                      pending: Dict[str, List[int]],
                      results: List[Optional[SimulationResult]],
                      journal: RunJournal,
                      progress: Optional[ProgressCallback]) -> None:
        """Cache and slot in one completed chunk's results.

        Later occurrences of a repeated parameter set get the same result
        and are reported to ``progress`` as cached.
        """
        for first_index, data in chunk_results:
            point = points[first_index]
            result = result_from_dict(data)
            if self.cache is not None:
                self.cache.put(point, result)
            journal.emit("point_done", point_id=point.point_id)
            for index in pending[point.point_id]:
                results[index] = result
                if progress is not None:
                    progress(points[index], result, index != first_index)

    # -- In-process execution ----------------------------------------------

    def _execute_in_process(self, points: List[SweepPoint],
                            pending: Dict[str, List[int]],
                            results: List[Optional[SimulationResult]],
                            journal: RunJournal,
                            progress: Optional[ProgressCallback],
                            ) -> Tuple[int, int]:
        """Execute every pending point here, in spec order.

        Returns the run's ``(generated, reused)`` trace counts: every trace
        resolves on demand in this process, so the per-process
        :data:`TRACE_STATS` see all of them.
        """
        stats_base = TRACE_STATS.snapshot()
        for indexes in pending.values():
            index = indexes[0]
            journal.emit("point_running", point_id=points[index].point_id,
                         attempt=0)
            try:
                data = execute_point(points[index].as_dict(), self.context)
            except Exception as exc:
                raise _point_error(points, [index], 0, exc, journal) from exc
            self._record_chunk([(index, data)], points, pending, results,
                               journal, progress)
        delta = TRACE_STATS.since(stats_base)
        return delta.generated, delta.packed_hits + delta.memo_hits

    # -- The crash-tolerant pool -------------------------------------------

    def _bake_traces(self, pending_points: List[SweepPoint]) -> Tuple[int, int]:
        """Bake each distinct trace once before fan-out.

        With ``W`` workers and no store, every worker regenerates every trace
        it touches (up to ``W`` regenerations per trace).  Baking in the
        parent makes generation a one-time cost: workers find the packed file
        by content address and load it with a bulk ``frombytes``.  Returns
        ``(generated, reused)`` counts over the distinct traces.

        The bake loop is deliberately serial: it guarantees exactly-once
        generation at the cost of startup latency proportional to the number
        of *cold* distinct traces.  (Letting workers bake on demand would
        overlap generation with simulation but admits up to ``W`` redundant
        generations per trace -- the cost this subsystem exists to remove.
        Warm traces are skipped via ``contains``, so the latency is paid only
        on the first campaign to touch a trace.)
        """
        store = self.trace_store
        generated = reused = 0
        seen: set = set()
        for point in pending_points:
            key_params, digest = trace_key_for_params(point.as_dict())
            if digest in seen:
                continue
            seen.add(digest)
            if store.contains(digest):
                reused += 1
                continue
            _, baked = store.get_or_bake(
                key_params, lambda kp=key_params: generate_trace_for_key(kp))
            if baked:
                generated += 1
            else:  # pragma: no cover - benign race with a concurrent baker
                reused += 1
        return generated, reused

    def _new_executor(self, workers: int,
                      ) -> concurrent.futures.ProcessPoolExecutor:
        """A fresh pool; workers rebuild the parent's fault plan, if any.

        The parent loads the machine first, so forked workers inherit it
        instead of each importing it on their first point.
        """
        import concurrent.futures
        import multiprocessing

        import repro.backend.system  # noqa: F401
        import repro.experiments.common  # noqa: F401

        plan = active_fault_plan()
        fault_args = None if plan is None else (plan.spec, plan.state_dir)
        return concurrent.futures.ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context(self.start_method),
            initializer=_worker_init, initargs=(fault_args,))

    @staticmethod
    def _dispose_executor(executor: concurrent.futures.ProcessPoolExecutor,
                          kill: bool = False) -> None:
        """Tear a pool down without waiting on work that will never finish.

        ``kill=True`` terminates the worker processes first -- the straggler
        path, where a hung point would otherwise block shutdown forever.
        The ``_processes`` map is CPython implementation detail, hence the
        defensive ``getattr``; losing the kill merely leaves an orphan worker
        to finish a result nobody collects.
        """
        if kill:
            processes = getattr(executor, "_processes", None) or {}
            for process in list(processes.values()):
                try:
                    process.terminate()
                except (OSError, AttributeError):  # pragma: no cover - racing exit
                    pass
        executor.shutdown(wait=False, cancel_futures=True)

    def _restart_broken_pool(self, executor, workers: int, restarts: int,
                             journal: RunJournal,
                             ) -> concurrent.futures.ProcessPoolExecutor:
        """Replace a broken pool after the retry policy's backoff."""
        self._dispose_executor(executor)
        journal.emit("pool_restart", restart=restarts + 1,
                     reason="broken pool")
        delay = self.retry.backoff_delay(restarts)
        if delay > 0:
            time.sleep(delay)
        return self._new_executor(workers)

    def _execute_pool(self, points: List[SweepPoint],
                      pending: Dict[str, List[int]],
                      results: List[Optional[SimulationResult]],
                      journal: RunJournal,
                      progress: Optional[ProgressCallback],
                      ) -> Tuple[int, int]:
        """Dispatch every pending point, surviving crashes and stragglers.

        Returns ``(retried_points, pool_restarts)``.  The loop keeps a queue
        of (chunk, attempt) work items and at most ``workers`` chunks in
        flight; a chunk that dies with its worker is requeued as single-point
        items with its attempt count bumped, so one bad point can exhaust its
        own retry budget without dragging chunk-mates down with it.
        """
        import concurrent.futures
        from concurrent.futures.process import BrokenProcessPool

        retry = self.retry
        payloads = [(indexes[0], points[indexes[0]].as_dict())
                    for indexes in pending.values()]
        workers = min(self.jobs, len(payloads))
        chunk = adaptive_chunksize(len(payloads), workers)
        queue: Deque[Tuple[Tuple, int]] = deque(
            (tuple(payloads[start:start + chunk]), 0)
            for start in range(0, len(payloads), chunk))

        heartbeats = None
        if self.context.obs is not None:
            from repro.obs.report import HeartbeatWriter
            heartbeats = HeartbeatWriter(self.context.obs.root)

        retried_points = restarts = 0
        executor = self._new_executor(workers)
        in_flight: Dict[concurrent.futures.Future, Tuple[Tuple, int, Optional[float]]] = {}
        try:
            while queue or in_flight:
                while queue and len(in_flight) < workers:
                    chunk_payloads, attempt = queue.popleft()
                    try:
                        future = executor.submit(_execute_chunk,
                                                 list(chunk_payloads),
                                                 self.context)
                    except BrokenProcessPool:
                        # The pool broke between waits (e.g. an idle worker
                        # died).  Push the work back; if nothing is in flight
                        # the wait loop can never discover the break, so
                        # replace the pool here.
                        queue.appendleft((chunk_payloads, attempt))
                        if in_flight:
                            break
                        executor = self._restart_broken_pool(
                            executor, workers, restarts, journal)
                        restarts += 1
                        continue
                    deadline = (None if retry.point_timeout_seconds is None
                                else time.monotonic()
                                + retry.point_timeout_seconds)
                    in_flight[future] = (chunk_payloads, attempt, deadline)
                    for index, _ in chunk_payloads:
                        journal.emit("point_running",
                                     point_id=points[index].point_id,
                                     attempt=attempt)
                timeout = None
                if retry.point_timeout_seconds is not None:
                    now = time.monotonic()
                    timeout = max(0.0, min(entry[2] for entry
                                           in in_flight.values()) - now)
                done, _ = concurrent.futures.wait(
                    in_flight, timeout=timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED)

                broken = False
                for future in done:
                    chunk_payloads, attempt, _ = in_flight.pop(future)
                    try:
                        chunk_results = future.result()
                    except BrokenProcessPool:
                        broken = True
                        retried_points += self._requeue(
                            [(chunk_payloads, attempt)], queue, points,
                            journal, heartbeats,
                            reason="worker process died (broken pool)")
                    except Exception as exc:
                        # A deterministic application error: retrying would
                        # fail identically, so fail the sweep now -- but with
                        # the point context a bare worker traceback lacks.
                        raise _point_error(
                            points, [index for index, _ in chunk_payloads],
                            attempt, exc, journal) from exc
                    else:
                        self._record_chunk(chunk_results, points, pending,
                                           results, journal, progress)

                if broken:
                    # The pool is gone: every other in-flight chunk died with
                    # it.  Chunks that already delivered results were handled
                    # above; the rest go back on the queue with their attempt
                    # count bumped (the crash could have been any of them).
                    victims = [(payloads_, attempt_)
                               for payloads_, attempt_, _ in in_flight.values()]
                    in_flight.clear()
                    retried_points += self._requeue(
                        victims, queue, points, journal, heartbeats,
                        reason="worker process died (broken pool)")
                    executor = self._restart_broken_pool(
                        executor, workers, restarts, journal)
                    restarts += 1
                    continue

                if retry.point_timeout_seconds is None or not in_flight:
                    continue
                now = time.monotonic()
                if not any(entry[2] is not None and now >= entry[2]
                           for entry in in_flight.values()):
                    continue
                # At least one chunk blew its wall-clock deadline.  Killing
                # the pool is the only reliable way to stop a stuck worker,
                # so collect whatever finished in the meantime, then requeue:
                # expired chunks spend retry budget, innocent bystanders are
                # re-dispatched for free.
                self._dispose_executor(executor, kill=True)
                expired: List[Tuple[Tuple, int]] = []
                innocent: List[Tuple[Tuple, int]] = []
                for future, (chunk_payloads, attempt,
                             deadline) in in_flight.items():
                    collected = False
                    if future.done() and not future.cancelled():
                        try:
                            chunk_results = future.result()
                        except BrokenProcessPool:
                            pass
                        else:
                            self._record_chunk(chunk_results, points, pending,
                                               results, journal, progress)
                            collected = True
                    if collected:
                        continue
                    if deadline is not None and now >= deadline:
                        expired.append((chunk_payloads, attempt))
                    else:
                        innocent.append((chunk_payloads, attempt))
                in_flight.clear()
                retried_points += self._requeue(
                    expired, queue, points, journal, heartbeats,
                    reason=(f"point exceeded its "
                            f"{retry.point_timeout_seconds:g}s wall-clock "
                            f"timeout"))
                for chunk_payloads, attempt in innocent:
                    queue.append((chunk_payloads, attempt))
                journal.emit("pool_restart", restart=restarts + 1,
                             reason="straggler timeout")
                restarts += 1
                executor = self._new_executor(workers)
        finally:
            self._dispose_executor(executor)
        return retried_points, restarts

    def _requeue(self, victims: List[Tuple[Tuple, int]], queue: Deque,
                 points: List[SweepPoint], journal: RunJournal, heartbeats,
                 reason: str) -> int:
        """Requeue crashed/timed-out chunks as single-point retry items.

        Raises :class:`SweepExecutionError` with full point context the
        moment any victim exhausts its retry budget -- including the
        ``max_retries=0`` case, where the first crash fails the sweep but
        still names the point instead of surfacing a bare
        ``BrokenProcessPool``.  Returns the number of point retries queued.
        """
        retries = 0
        for chunk_payloads, attempt in victims:
            for index, params in chunk_payloads:
                point = points[index]
                next_attempt = attempt + 1
                if next_attempt > self.retry.max_retries:
                    journal.emit("point_failed", point_id=point.point_id,
                                 attempt=attempt, reason=reason)
                    if heartbeats is not None:
                        heartbeats.point_failed(content_digest(params),
                                                error=reason, attempt=attempt)
                    raise SweepExecutionError(
                        f"sweep point {point.label()} "
                        f"(point_id {point.point_id[:12]}) failed after "
                        f"{next_attempt} dispatch(es): {reason}; "
                        f"params: {params}")
                journal.emit("point_retried", point_id=point.point_id,
                             attempt=next_attempt, reason=reason)
                if heartbeats is not None:
                    heartbeats.point_retried(content_digest(params),
                                             attempt=next_attempt)
                queue.append((((index, params),), next_attempt))
                retries += 1
        return retries


def _worker_init(fault_args: Optional[Tuple[str, Optional[str]]]) -> None:
    """Pool initializer: rebuild the parent's fault plan in this worker.

    ``fault_args`` is the parent's ``(spec, state_dir)`` fault plan, or
    ``None``; rebuilding it here makes spawned workers inject the same
    faults as forked ones (the shared state dir keeps firing once-only
    across the whole fleet and across pool restarts).
    """
    if fault_args is not None:
        from repro.sweep.faults import FaultPlan
        spec, state_dir = fault_args
        configure_faults(FaultPlan(spec, state_dir=state_dir))


def _require_complete(points: List[SweepPoint],
                      results: List[Optional[SimulationResult]]) -> None:
    """Raise if any point ended the run without a result.

    A shorter-than-spec result list would silently misalign downstream
    zip(points, results) consumers, so missing results are a hard error.
    """
    missing = [point for point, result in zip(points, results) if result is None]
    if missing:
        labels = ", ".join(point.label() for point in missing[:5])
        suffix = ", ..." if len(missing) > 5 else ""
        raise SweepExecutionError(
            f"{len(missing)} of {len(points)} sweep points produced no result "
            f"({labels}{suffix}); the worker pool returned fewer results than "
            "points")


#: The in-process runner's former name; ``SerialRunner.run`` is the same
#: function as ``SweepRunner.run`` (the benchmark harness patches it by name).
SerialRunner = SweepRunner
