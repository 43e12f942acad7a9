"""Sharded parallel evaluation on top of :class:`CompilationEngine`.

The single-process engine memoizes structural artifacts per instance, so the
natural unit of parallelism is not the individual ``(query, instance)`` pair
but the *instance group*: all items touching one instance should land in the
same worker, where they share that worker's cached Gaifman graph,
decompositions, fact orders, and lineages.  :func:`shard_workload` partitions
a workload accordingly (greedy least-loaded assignment of instance groups),
and :class:`ParallelEngine` runs each shard in a ``multiprocessing`` worker
that owns a private :class:`CompilationEngine`, then merges the values (in
the original workload order) and the per-worker :class:`CacheStats` into a
single :class:`ParallelReport`.

Two execution regimes:

* ``workers == 1`` runs inline in the calling process on a local engine — no
  subprocess, no pickling, **no shared-memory segments**; semantics are
  identical, which keeps debugging and single-core environments honest;
* ``workers > 1`` uses a lazily created, persistent pool (``fork`` start
  method when the platform has it, ``spawn`` otherwise): the workers — and
  their engines' caches — survive across calls, so repeated workloads
  against hot instances keep their artifacts warm.  ``close()`` (or use as
  a context manager) tears the pool down, **clears the inline engine's
  caches deterministically**, and unlinks every shared-memory segment the
  run created (including orphans left by crashed workers, swept by the
  plane prefix).

The pool is hand-rolled (:class:`_WorkerPool`), not ``multiprocessing.Pool``,
because ``Pool.map`` simply never returns when a worker dies mid-task.  Each
worker gets its own duplex pipe, the parent waits on the pipes *and* the
process sentinels, and a dead worker is detected immediately: its
shared-memory leftovers are swept (keeping segments already merged into
completed outcomes), a replacement is spawned, and only the affected shard
is re-submitted — bounded per-shard retries with exponential backoff, then
a typed :class:`~repro.errors.WorkerCrashError`.  Worker-reported
``MemoryError`` / :class:`~repro.errors.SegmentError` failures are retried
the same way (a segment failure additionally triggers the caller's recovery
hook, e.g. republishing the reweight artifact); any other worker error is
re-raised in the parent.  Outcomes are keyed by shard index and merged
exactly once, so a worker that answered and *then* died cannot double-count.

The data plane is columnar.  Compiled artifacts cross the process boundary
as :class:`repro.booleans.columnar.ColumnarOBDD` columns inside
``multiprocessing.shared_memory`` segments (:mod:`repro.engine.shm`): a
worker *publishes* the flat ``var|lo|hi`` buffer and ships back only a tiny
:class:`~repro.engine.shm.SegmentHandle`; the parent *attaches* zero-copy.
The inline regime returns the same type as plain columns, so a caller of
:meth:`ParallelEngine.map_compile` always gets ``ColumnarOBDD`` values.
:meth:`ParallelEngine.reweight_many` runs the same plane in the other
direction — the parent publishes one compiled artifact, every worker
attaches to it and runs vectorized columnar sweeps for its share of the
probability assignments, which is the batch re-weighting workload where
per-worker cost is exactly "an attach plus a sweep".

Because the hot artifacts are acyclic int arrays rather than node-object
graphs, pool workers run with the cyclic garbage collector frozen and
disabled (``gc.freeze()`` + ``gc.disable()`` in the initializer; the calling
process is never touched):
full GC passes rescanning millions of cached nodes were a measured ~2x drag
on allocation-heavy shards.

Everything else crossing the process boundary is plain picklable data:
instances and TID instances (content-fingerprinted, so worker-side caching
behaves exactly as in-process caching), queries (frozen dataclasses),
``Fraction`` results, segment handles, and ``CacheStats`` counters.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import time
from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.booleans.columnar import ColumnarOBDD
from repro.data.instance import Instance
from repro.data.tid import ProbabilisticInstance
from repro.engine.router import check_method
from repro.engine.session import (
    CacheStats,
    CompilationEngine,
    Query,
    merge_cache_stats,
)
from repro.engine.shm import (
    SegmentHandle,
    SegmentPlane,
    attach_segment,
    publish_segment,
)
from repro.errors import CompilationError, SegmentError, WorkerCrashError
from repro.provenance.compile_obdd import CompiledOBDD

ProbabilityItem = tuple[Query, ProbabilisticInstance]
CompileItem = tuple[Query, Instance]
Shard = list[tuple[int, tuple]]
ShardOutcome = tuple[list[tuple[int, Any]], dict[str, CacheStats], dict[str, int]]
ShardRunner = Callable[[tuple[Shard, Any]], ShardOutcome]


def available_workers() -> int:
    """How many workers the host can actually run in parallel.

    Prefers the scheduling affinity mask (which honors cgroup/container
    limits) over the raw CPU count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def shard_workload(
    items: Sequence[tuple],
    shard_count: int,
    group_key: Callable[[tuple], str] | None = None,
) -> list[list[tuple[int, tuple]]]:
    """Partition indexed work items into at most ``shard_count`` shards.

    Items are grouped by the fingerprint of their instance (the second
    element of each pair by default) so that one instance's structural
    artifacts are computed by as few workers as possible; a group larger than
    the balanced shard size ``ceil(len(items) / shard_count)`` is split into
    chunks of that size, so a batch against a *single* instance still spreads
    over all shards (each worker then recomputes that instance's artifacts
    once — duplicated structural work, parallelized compilation work).  The
    chunks are assigned largest-first to the currently least-loaded shard.
    Each shard entry keeps the item's index in the original workload so
    results can be merged back in order.  Empty shards are dropped.
    """
    if shard_count < 1:
        raise CompilationError("shard_count must be at least 1")
    if group_key is None:
        group_key = lambda item: item[1].fingerprint  # noqa: E731
    groups: dict[str, list[tuple[int, tuple]]] = {}
    for index, item in enumerate(items):
        groups.setdefault(group_key(item), []).append((index, item))
    target = -(-len(items) // shard_count)  # ceil division
    chunks: list[list[tuple[int, tuple]]] = []
    for group in groups.values():
        for start in range(0, len(group), target):
            chunks.append(group[start : start + target])
    shards: list[list[tuple[int, tuple]]] = [[] for _ in range(shard_count)]
    for chunk in sorted(chunks, key=len, reverse=True):
        least_loaded = min(shards, key=len)
        least_loaded.extend(chunk)
    return [shard for shard in shards if shard]


@dataclass(frozen=True)
class ParallelReport:
    """The merged outcome of one sharded run.

    ``values`` follow the original workload order; ``workers`` is the
    engine's configured worker count (``shard_count`` is how many shards the
    workload actually produced — it can be smaller); ``worker_stats`` holds
    one ``CacheStats`` dictionary per shard (in shard order), and ``stats``
    is their pointwise sum.
    """

    values: tuple[Any, ...]
    workers: int
    shard_sizes: tuple[int, ...]
    worker_stats: tuple[dict[str, CacheStats], ...]
    worker_routes: tuple[dict[str, int], ...] = ()

    @property
    def shard_count(self) -> int:
        return len(self.shard_sizes)

    @property
    def stats(self) -> dict[str, CacheStats]:
        return merge_cache_stats(self.worker_stats)

    @property
    def items(self) -> int:
        return sum(self.shard_sizes)

    @property
    def route_mix(self) -> dict[str, int]:
        """Pointwise sum of the per-shard ``method="auto"`` route counts."""
        merged: dict[str, int] = {}
        for routes in self.worker_routes:
            for route, count in routes.items():
                merged[route] = merged.get(route, 0) + count
        return merged


# -- worker-side plumbing -----------------------------------------------------
#
# The pool initializer builds one CompilationEngine per worker process; the
# shard runners look it up through a module global.  Under the ``fork`` start
# method the workload shards themselves are the only data pickled per task.
# Workers also carry the plane prefix (for naming the segments they publish;
# None in the inline regime, which publishes nothing) and a small LRU of
# attached shared artifacts for the reweight runner.

_WORKER_ENGINE: CompilationEngine | None = None
_WORKER_PLANE_PREFIX: str | None = None
_WORKER_SEGMENT_SERIAL = itertools.count(1)
_WORKER_ATTACHMENTS: dict[str, ColumnarOBDD] = {}
_WORKER_ATTACHMENT_LIMIT = 8


def _init_worker(
    engine_options: dict[str, Any],
    plane_prefix: str,
    fault_plan: Any = None,
) -> None:
    global _WORKER_ENGINE, _WORKER_PLANE_PREFIX
    _WORKER_ENGINE = CompilationEngine(**engine_options)
    if fault_plan is not None and _WORKER_ENGINE.store is not None:
        # The chaos suite's disk faults reach worker-opened stores too; the
        # store path travels as a plain string in engine_options, so the
        # plan is attached after construction.
        _WORKER_ENGINE.store.fault_plan = fault_plan
    _WORKER_PLANE_PREFIX = plane_prefix
    _WORKER_ATTACHMENTS.clear()
    # The hot artifacts are flat int columns (acyclic); full cyclic-GC
    # passes over the interpreter state and the engine caches are pure
    # overhead in a worker whose lifetime the pool already bounds.
    gc.collect()
    gc.freeze()
    gc.disable()


def _worker_engine() -> CompilationEngine:
    if _WORKER_ENGINE is None:  # pragma: no cover - initializer always ran
        raise CompilationError("parallel worker used before initialization")
    return _WORKER_ENGINE


def _worker_segment_name() -> str:
    if _WORKER_PLANE_PREFIX is None:  # pragma: no cover - initializer always ran
        raise CompilationError("worker has no segment plane prefix")
    return f"{_WORKER_PLANE_PREFIX}-w{os.getpid()}-{next(_WORKER_SEGMENT_SERIAL)}"


def _worker_attachment(handle: SegmentHandle) -> ColumnarOBDD:
    """Attach (once) to a parent-published artifact; small per-worker LRU."""
    key = handle.name if handle.name is not None else f"inline-{handle.root}"
    artifact = _WORKER_ATTACHMENTS.get(key)
    if artifact is None:
        artifact = attach_segment(handle)
        _WORKER_ATTACHMENTS[key] = artifact
        while len(_WORKER_ATTACHMENTS) > _WORKER_ATTACHMENT_LIMIT:
            _WORKER_ATTACHMENTS.pop(next(iter(_WORKER_ATTACHMENTS)))
    return artifact


def _stats_snapshot(engine: CompilationEngine) -> dict[str, CacheStats]:
    return {name: stats.copy() for name, stats in engine.stats.items()}


def _routes_snapshot(engine: CompilationEngine) -> dict[str, int]:
    return engine.route_mix()


def _reset_stats(engine: CompilationEngine) -> None:
    """Zero the counters (keeping the caches) so a shard reports its own work.

    One pool process may execute several shards; without the reset, a later
    shard's snapshot would re-count the earlier shards' hits and misses and
    the merged report would no longer be the exact sum over the workload.
    The router's route counts are reset with the cache counters.
    """
    for stats in engine.stats.values():
        stats.reset()
    engine.route_counts.clear()


def _run_probability_shard(payload: tuple[Shard, str]) -> ShardOutcome:
    shard, method = payload
    engine = _worker_engine()
    _reset_stats(engine)
    results = [(index, engine.probability(query, tid, method)) for index, (query, tid) in shard]
    return results, _stats_snapshot(engine), _routes_snapshot(engine)


def _run_compile_shard(payload: tuple[Shard, bool]) -> ShardOutcome:
    """Columnar artifacts of this shard: published into shared-memory
    segments by a pool worker, returned as plain columns inline."""
    shard, use_path_decomposition = payload
    engine = _worker_engine()
    _reset_stats(engine)
    results: list[tuple[int, Any]] = []
    for index, (query, instance) in shard:
        columnar = engine.columnar(query, instance, use_path_decomposition)
        if _WORKER_PLANE_PREFIX is None:  # inline: no process boundary to cross
            results.append((index, columnar))
        else:
            results.append((index, publish_segment(columnar, _worker_segment_name())))
    return results, _stats_snapshot(engine), _routes_snapshot(engine)


def _run_reweight_shard(
    payload: tuple[Shard, tuple[SegmentHandle | ColumnarOBDD, bool]],
) -> ShardOutcome:
    """Sweep one artifact (shared, or the caller's own inline) under this
    shard's probability assignments."""
    shard, (source, exact) = payload
    engine = _worker_engine()
    _reset_stats(engine)
    artifact = source if isinstance(source, ColumnarOBDD) else _worker_attachment(source)
    # One matrix sweep over the whole shard: in the float regime the batch
    # kernel amortizes per-level overhead across every assignment at once.
    values = artifact.probability_many(
        [probabilities for _, (probabilities,) in shard], exact=exact
    )
    results = [(index, value) for (index, _), value in zip(shard, values)]
    return results, _stats_snapshot(engine), _routes_snapshot(engine)


# -- the crash-aware pool ------------------------------------------------------


def _worker_loop(
    connection: Connection,
    engine_options: dict[str, Any],
    plane_prefix: str,
    fault_plan: Any = None,
) -> None:
    """Entry point of one pool worker process.

    Requests arrive as ``((epoch, shard_index), runner, payload)`` and are
    answered with ``(task_key, ok, outcome_or_error)``; ``None`` shuts the
    worker down.  Task failures are *reported*, never allowed to kill the
    loop — the parent owns the retry / re-raise decision.  ``fault_plan``
    (tests only) installs the deterministic injectors of
    :mod:`repro.testing.faults` around each task.
    """
    faults = None
    if fault_plan is not None:
        from repro.testing.faults import WorkerFaults

        faults = WorkerFaults(fault_plan)
    _init_worker(engine_options, plane_prefix, fault_plan)
    while True:
        try:
            message = connection.recv()
        except (EOFError, OSError):  # pragma: no cover - parent went away
            break
        if message is None:
            break
        task_key, runner, payload = message
        try:
            if faults is not None:
                faults.on_task_start()
            outcome = runner(payload)
            if faults is not None:
                faults.before_result()
            reply = (task_key, True, outcome)
        # repro-analysis: allow(EXCEPT001): the worker loop must survive any task failure and report it; the parent classifies the error and owns the retry/re-raise decision
        except Exception as error:
            reply = (task_key, False, error)
        try:
            connection.send(reply)
        # repro-analysis: allow(EXCEPT001): an unpicklable outcome or error must still produce a reply, or the parent would wait on this task forever
        except Exception:
            if reply[1]:
                fallback = f"unpicklable shard outcome ({type(reply[2]).__name__})"
            else:
                fallback = f"{type(reply[2]).__name__}: {reply[2]}"
            connection.send((task_key, False, fallback))
    connection.close()


def _segment_names(outcomes: Iterable[ShardOutcome]) -> set[str]:
    """Segment names referenced by completed outcomes (must survive sweeps)."""
    names: set[str] = set()
    for results, _, _ in outcomes:
        for _, value in results:
            if isinstance(value, SegmentHandle) and value.name is not None:
                names.add(value.name)
    return names


class _PoolWorker:
    """One live worker process plus the parent's end of its pipe."""

    __slots__ = ("process", "connection")

    def __init__(self, process: Any, connection: Connection) -> None:
        self.process = process
        self.connection = connection


class _WorkerPool:
    """A crash-aware replacement for ``multiprocessing.Pool`` (see the
    module docstring): per-worker pipes, sentinel-watched dispatch,
    exactly-once merge by shard index, bounded shard retries, respawn."""

    def __init__(
        self,
        context: Any,
        worker_count: int,
        worker_args: tuple,
        max_shard_retries: int,
        retry_backoff: float,
        plane: SegmentPlane,
    ) -> None:
        self._context = context
        self._worker_count = worker_count
        self._worker_args = worker_args
        self._max_shard_retries = max_shard_retries
        self._retry_backoff = retry_backoff
        self._plane = plane
        self._workers: list[_PoolWorker] = []
        self._epoch = 0

    def _spawn(self) -> _PoolWorker:
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_loop,
            args=(child_end, *self._worker_args),
            daemon=True,
        )
        process.start()
        child_end.close()
        return _PoolWorker(process, parent_end)

    def _ensure_workers(self) -> None:
        self._workers = [w for w in self._workers if w.process.is_alive()]
        while len(self._workers) < self._worker_count:
            self._workers.append(self._spawn())

    def run(
        self,
        shards: list[Shard],
        runner: ShardRunner,
        extra: Any,
        recover: Callable[[], Any] | None = None,
    ) -> dict[int, ShardOutcome]:
        """Execute every shard, retrying around crashes; outcomes by index.

        Task keys carry the run's epoch, so replies from a run that was
        abandoned mid-flight (an error propagated to the caller while
        workers were still busy) are recognized and discarded instead of
        being merged into the wrong run.
        """
        self._ensure_workers()
        self._epoch += 1
        epoch = self._epoch
        pending: deque[int] = deque(range(len(shards)))
        retries = {index: 0 for index in range(len(shards))}
        outcomes: dict[int, ShardOutcome] = {}
        busy: dict[_PoolWorker, int] = {}
        current_extra = extra

        def requeue(shard_index: int, cause: BaseException | str) -> None:
            retries[shard_index] += 1
            attempt = retries[shard_index]
            if attempt > self._max_shard_retries:
                raise WorkerCrashError(
                    f"shard {shard_index} failed {attempt} times"
                    f" ({self._max_shard_retries} retries allowed);"
                    f" last cause: {cause}"
                ) from (cause if isinstance(cause, BaseException) else None)
            if self._retry_backoff > 0.0:
                time.sleep(min(self._retry_backoff * (1 << (attempt - 1)), 1.0))
            pending.appendleft(shard_index)

        def absorb(worker: _PoolWorker, message: tuple) -> None:
            nonlocal current_extra
            (message_epoch, shard_index), ok, payload = message
            busy.pop(worker, None)
            if message_epoch != epoch or shard_index in outcomes:
                return  # stale or duplicate reply: merged exactly once
            if ok:
                outcomes[shard_index] = payload
                return
            if isinstance(payload, (MemoryError, SegmentError)):
                # Retryable: transient allocation pressure, or a segment
                # that a crashed publisher / racing sweep invalidated.
                if isinstance(payload, SegmentError) and recover is not None:
                    current_extra = recover()
                requeue(shard_index, payload)
                return
            if isinstance(payload, BaseException):
                raise payload
            raise WorkerCrashError(f"worker failed with unpicklable error: {payload}")

        def bury(worker: _PoolWorker) -> None:
            # Salvage first: results the worker sent before dying still count.
            try:
                while worker.connection.poll():
                    absorb(worker, worker.connection.recv())
            except (EOFError, OSError):
                pass
            shard_index = busy.pop(worker, None)
            self._workers.remove(worker)
            worker.process.join()
            pid = worker.process.pid
            try:
                worker.connection.close()
            except OSError:  # pragma: no cover - already closed
                pass
            if pid is not None:
                # Reclaim the dead worker's segments — except those already
                # merged into completed outcomes, which the parent will adopt.
                self._plane.sweep_worker_orphans(pid, _segment_names(outcomes.values()))
            self._workers.append(self._spawn())
            if shard_index is not None and shard_index not in outcomes:
                requeue(
                    shard_index,
                    f"worker pid {pid} died (exit code {worker.process.exitcode})",
                )

        while len(outcomes) < len(shards):
            for worker in self._workers:
                if worker not in busy and pending:
                    shard_index = pending.popleft()
                    try:
                        worker.connection.send(
                            (
                                (epoch, shard_index),
                                runner,
                                (shards[shard_index], current_extra),
                            )
                        )
                    except (BrokenPipeError, OSError):
                        # The death surfaces through the sentinel below.
                        pending.appendleft(shard_index)
                        continue
                    busy[worker] = shard_index
            by_connection = {w.connection: w for w in self._workers}
            by_sentinel = {w.process.sentinel: w for w in self._workers}
            dead: list[_PoolWorker] = []
            for item in connection_wait(list(by_connection) + list(by_sentinel)):
                worker = by_connection.get(item)
                if worker is not None:
                    try:
                        message = worker.connection.recv()
                    except (EOFError, OSError):
                        if worker not in dead:
                            dead.append(worker)
                        continue
                    absorb(worker, message)
                    continue
                worker = by_sentinel.get(item)  # type: ignore[arg-type]
                if worker is not None and worker not in dead:
                    dead.append(worker)
            for worker in dead:
                bury(worker)
        return outcomes

    def close(self) -> None:
        """Shut every worker down: polite request, then escalating force."""
        workers, self._workers = self._workers, []
        for worker in workers:
            try:
                worker.connection.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + 2.0
        for worker in workers:
            worker.process.join(max(0.0, deadline - time.monotonic()))
        for worker in workers:
            if worker.process.is_alive():
                worker.process.terminate()
                worker.process.join(1.0)
            if worker.process.is_alive():  # pragma: no cover - terminate sufficed
                worker.process.kill()
                worker.process.join(1.0)
            try:
                worker.connection.close()
            except OSError:  # pragma: no cover - already closed
                pass


class ParallelEngine:
    """Shard ``(query, instance)`` workloads across engine-owning workers.

    Compiled artifacts travel one way only: as columnar OBDDs, through
    shared-memory segments from pool workers (plain columns inline), so
    :meth:`map_compile` always yields
    :class:`~repro.booleans.columnar.ColumnarOBDD` values.  Pool workers run
    with the cyclic garbage collector frozen and disabled.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the host's available parallelism.
        ``workers=1`` executes inline (no subprocess, no segments).
    engine_options:
        Keyword arguments forwarded to each worker's
        :class:`CompilationEngine` (cache bounds).
    start_method:
        ``multiprocessing`` start method; defaults to ``fork`` when the
        platform offers it (cheap on Linux), else the platform default.
    max_shard_retries:
        How many times one shard may be re-submitted after a worker crash
        or a retryable worker failure (``MemoryError`` /
        :class:`~repro.errors.SegmentError`) before the run raises
        :class:`~repro.errors.WorkerCrashError`.
    retry_backoff:
        Base seconds of the exponential backoff between a shard's retries
        (``backoff * 2**(attempt-1)``, capped at 1s); 0 disables it.
    fault_plan:
        Deterministic fault-injection plan (tests only; see
        :mod:`repro.testing.faults`), shipped to every worker and consulted
        by the parent's reweight publishing.  ``None`` — the default — adds
        no hooks anywhere.
    store:
        A persistent artifact store directory shared by every worker: a
        path (string or ``Path``), or an opened
        :class:`~repro.store.ArtifactStore` whose directory is reused.
        Each worker's :class:`CompilationEngine` opens the store itself (a
        path string is what crosses the process boundary), so compiled
        artifacts persist across runs *and* across workers; a worker that
        loads a stored columnar artifact publishes it into shared memory
        straight from the file mapping — the stored columns are the cached
        artifact's columnar form, so nothing on the path rebuilds a node
        graph.
    """

    def __init__(
        self,
        workers: int | None = None,
        engine_options: Mapping[str, Any] | None = None,
        start_method: str | None = None,
        max_shard_retries: int = 2,
        retry_backoff: float = 0.05,
        fault_plan: Any = None,
        store: Any = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise CompilationError("workers must be at least 1")
        if max_shard_retries < 0:
            raise CompilationError("max_shard_retries must be at least 0")
        if retry_backoff < 0.0:
            raise CompilationError("retry_backoff must not be negative")
        self.workers = workers if workers is not None else available_workers()
        self.engine_options = dict(engine_options or {})
        if store is not None:
            # Workers rebuild their engines from pickled options, so the
            # store crosses the process boundary as its directory path.
            # (isinstance, not getattr: Path.root is the *filesystem* root.)
            from repro.store import ArtifactStore

            path = store.root if isinstance(store, ArtifactStore) else store
            self.engine_options.setdefault("store", str(path))
        if start_method is None:
            methods = multiprocessing.get_all_start_methods()
            start_method = "fork" if "fork" in methods else methods[0]
        self.start_method = start_method
        self.max_shard_retries = max_shard_retries
        self.retry_backoff = retry_backoff
        self.fault_plan = fault_plan
        self.last_report: ParallelReport | None = None
        self._pool: _WorkerPool | None = None
        self._plane: SegmentPlane | None = None
        self._inline_engine: CompilationEngine | None = None

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Tear down the pool, the segment plane, and every worker cache.

        Deterministic by design: the pool processes (and with them every
        worker engine's cached node graphs) are terminated, the inline
        engine's caches are *cleared* — not merely dereferenced, so no dead
        engine keeps millions of cached nodes alive for later GC passes to
        rescan — and every shared-memory segment this engine created is
        unlinked (a prefix sweep also reclaims segments orphaned by worker
        crashes).  Shared-columnar artifacts returned by earlier calls become
        invalid at that point; take a :meth:`ColumnarOBDD.copy` first if one
        must outlive the engine.  The engine itself stays usable: pools,
        plane, and inline engine are rebuilt lazily on the next call.

        Exception-safe by construction (``try``/``finally`` chain): even
        when tearing the pool down fails — e.g. the context manager body
        raised mid-batch and workers are wedged — the segment plane is
        still closed (so no ``/dev/shm`` leak) and the inline engine's
        caches are still cleared.
        """
        try:
            if self._pool is not None:
                self._pool.close()
        finally:
            self._pool = None
            try:
                if self._plane is not None:
                    self._plane.close()
            finally:
                self._plane = None
                if self._inline_engine is not None:
                    self._inline_engine.clear()
                    self._inline_engine = None

    def __enter__(self) -> "ParallelEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def segment_plane(self) -> SegmentPlane:
        """The engine's (lazily created) shared-memory segment plane."""
        if self._plane is None:
            self._plane = SegmentPlane()
        return self._plane

    # -- generic sharded execution -------------------------------------------

    def _run(
        self,
        items: Sequence[tuple],
        runner: ShardRunner,
        extra: Any,
        group_key: Callable[[tuple], str] | None = None,
        recover: Callable[[], Any] | None = None,
    ) -> ParallelReport:
        """Shard ``items`` and execute; ``recover`` rebuilds ``extra`` after
        a retryable segment failure."""
        shards = shard_workload(items, self.workers, group_key)
        if not shards:
            report = self._merge([], [])
        elif self.workers == 1 or len(shards) == 1:
            report = self._run_inline(shards, runner, extra)
        else:
            report = self._run_pool(shards, runner, extra, recover)
        self.last_report = report
        return report

    def _ensure_inline_engine(self) -> CompilationEngine:
        if self._inline_engine is None:
            self._inline_engine = CompilationEngine(**self.engine_options)
            if self.fault_plan is not None and self._inline_engine.store is not None:
                # Mirror _init_worker: the chaos suite's disk faults reach
                # the inline (workers == 1) engine's store too.
                self._inline_engine.store.fault_plan = self.fault_plan
        return self._inline_engine

    def _run_inline(
        self, shards: list[Shard], runner: ShardRunner, extra: Any
    ) -> ParallelReport:
        global _WORKER_ENGINE
        previous = _WORKER_ENGINE
        _WORKER_ENGINE = self._ensure_inline_engine()
        try:
            outcomes = [runner((shard, extra)) for shard in shards]
        finally:
            _WORKER_ENGINE = previous
        return self._merge(shards, outcomes)

    def _run_pool(
        self,
        shards: list[Shard],
        runner: ShardRunner,
        extra: Any,
        recover: Callable[[], Any] | None = None,
    ) -> ParallelReport:
        if self._pool is None:
            context = multiprocessing.get_context(self.start_method)
            plane = self.segment_plane()
            self._pool = _WorkerPool(
                context,
                self.workers,
                (self.engine_options, plane.prefix, self.fault_plan),
                max_shard_retries=self.max_shard_retries,
                retry_backoff=self.retry_backoff,
                plane=plane,
            )
        outcomes = self._pool.run(shards, runner, extra, recover)
        return self._merge(shards, [outcomes[index] for index in range(len(shards))])

    def _merge(
        self, shards: list[Shard], outcomes: list[ShardOutcome]
    ) -> ParallelReport:
        total = sum(len(shard) for shard in shards)
        values: list[Any] = [None] * total
        worker_stats: list[dict[str, CacheStats]] = []
        worker_routes: list[dict[str, int]] = []
        for results, stats, routes in outcomes:
            for index, value in results:
                values[index] = value
            worker_stats.append(stats)
            worker_routes.append(routes)
        return ParallelReport(
            values=tuple(values),
            workers=self.workers,
            shard_sizes=tuple(len(shard) for shard in shards),
            worker_stats=tuple(worker_stats),
            worker_routes=tuple(worker_routes),
        )

    # -- probability workloads ------------------------------------------------

    def map_probability(
        self, pairs: Sequence[ProbabilityItem], method: str = "auto"
    ) -> ParallelReport:
        """Evaluate a workload of ``(query, tid)`` pairs; full report."""
        check_method(method)
        return self._run(pairs, _run_probability_shard, method)

    def probability_many(
        self,
        queries: Sequence[Query],
        tid: ProbabilisticInstance,
        method: str = "auto",
    ) -> list[Fraction | float]:
        """Probabilities of a batch of queries on one TID instance.

        Mirrors :meth:`CompilationEngine.probability_many`; the detailed
        :class:`ParallelReport` (shard sizes, per-worker cache statistics) is
        kept in :attr:`last_report`.
        """
        report = self.map_probability([(query, tid) for query in queries], method)
        return list(report.values)

    # -- compilation workloads -------------------------------------------------

    def map_compile(
        self,
        pairs: Sequence[CompileItem],
        use_path_decomposition: bool = False,
    ) -> ParallelReport:
        """Compile a workload of ``(query, instance)`` pairs; full report.

        Every value is a :class:`~repro.booleans.columnar.ColumnarOBDD`,
        however the workload shards.  Pool workers publish each artifact's
        columns into a shared-memory segment and return a handle; the parent
        attaches zero-copy, so those values are views owned by this engine
        (valid until :meth:`close`).  The inline regime (``workers=1``, or a
        workload that collapses to a single shard) has no process boundary
        to cross: it returns plain columns and creates no segment.
        """
        report = self._run(pairs, _run_compile_shard, bool(use_path_decomposition))
        if any(isinstance(value, SegmentHandle) for value in report.values):
            plane = self.segment_plane()
            report = replace(
                report,
                values=tuple(
                    plane.adopt(value) if isinstance(value, SegmentHandle) else value
                    for value in report.values
                ),
            )
            self.last_report = report
        return report

    def compile_many(
        self,
        queries: Sequence[Query],
        instance: Instance,
        use_path_decomposition: bool = False,
    ) -> list[ColumnarOBDD]:
        """Columnar compiled artifacts of a batch of queries against one
        instance (see :meth:`map_compile`)."""
        report = self.map_compile(
            [(query, instance) for query in queries], use_path_decomposition
        )
        return list(report.values)

    # -- batch re-weighting over one shared artifact ---------------------------

    def reweight_many(
        self,
        compiled: CompiledOBDD | ColumnarOBDD,
        probability_maps: Sequence[Mapping],
        exact: bool = True,
    ) -> list[Fraction | float]:
        """Probabilities of one compiled artifact under many weightings.

        The inverse direction of :meth:`map_compile`'s transport: the parent
        publishes the artifact's columns *once* into a shared-memory segment,
        and every worker attaches to that one segment and runs columnar
        sweeps for its shard of ``probability_maps`` — per-worker cost is an
        attach plus a vectorized sweep per assignment, never a deserialize.
        This is the re-weighting workload (same lineage, changing fact
        probabilities) that motivates separating diagram structure from
        weights.  ``workers=1`` evaluates inline without any segment.
        """
        columnar = (
            compiled if isinstance(compiled, ColumnarOBDD) else compiled.to_columnar()
        )
        items = [(probabilities,) for probabilities in probability_maps]
        # workers=1 has no process boundary: the inline shard sweeps the
        # artifact itself, and no segment is published.
        inline = self.workers == 1 or not items
        source = columnar if inline else self._publish_reweight_artifact(columnar)
        report = self._run(
            items,
            _run_reweight_shard,
            (source, exact),
            group_key=_reweight_group_key,
            # A worker that cannot attach (absent/corrupt segment) reports a
            # retryable SegmentError; republishing under a fresh name is the
            # recovery — retried shards then attach to the new segment.
            recover=lambda: (self._publish_reweight_artifact(columnar), exact),
        )
        return list(report.values)

    def _publish_reweight_artifact(self, columnar: ColumnarOBDD) -> SegmentHandle:
        handle = self.segment_plane().publish(columnar)
        if self.fault_plan is not None:
            from repro.testing.faults import apply_parent_segment_faults

            apply_parent_segment_faults(self.fault_plan, handle)
        return handle


_REWEIGHT_COUNTER = itertools.count()


def _reweight_group_key(item: tuple) -> str:
    """Reweight items share one artifact; spread them evenly over shards."""
    return str(next(_REWEIGHT_COUNTER))
