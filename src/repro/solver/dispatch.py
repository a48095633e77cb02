"""Parallel, fault-tolerant dispatch of independent EPR queries.

Bounded model checking solves one query per unrolling depth, Houdini one
per candidate chunk, UPDR one per clause-push attempt -- all mutually
independent.  This module fans such batches across a **persistent pool of
worker processes** and keeps the batch alive when individual workers
misbehave.

A :class:`Query` is a self-contained description of one
:class:`~repro.solver.epr.EprSolver` instance -- vocabulary, constraints,
solver options, resource :class:`~repro.solver.budget.Budget` -- plus the
list of tracked-constraint subsets to solve it under.
:func:`solve_queries` runs a batch either in-process (``jobs <= 1``, the
default) or on the pool.  Workers rebuild the solver from the
description, ground it once, and answer every solve set of the query by
**assumption-literal switching** on the shared clause database (the
selector machinery of :class:`~repro.solver.epr.PreparedEpr` over
:mod:`repro.solver.sat`); results come back as picklable
:class:`~repro.solver.epr.EprResult` values, models included.

Pool architecture (the fix for the fork-per-query regression, where every
attempt paid fork + interpreter copy-on-write + module state + a fresh
grounding of everything the worker had already seen):

* workers are forked **once per process run** (lazily, on the first
  parallel batch) and live across ``solve_queries`` calls; the pool is
  process-global and each batch borrows up to ``jobs`` workers from it;
* the parent acts as the dealer of a shared work queue: it feeds one
  task at a time to each idle worker over a per-worker pipe, so a slow
  query never blocks its siblings and fault attribution is exact;
* tasks ship only the query description plus three tiny pieces of parent
  state a long-lived worker cannot inherit after the fork: the active
  fault plan, the tracing identity (run ID + clock origin), and the
  query-cache generation (:func:`repro.solver.cache.cache_snapshot`);
* workers fork with the parent's warm in-memory query cache and share
  the disk-backed content-addressed store live, so one worker's solve is
  every other worker's (and every later run's) cache hit;
* trace spans are buffered per task (:func:`repro.obs.enter_worker`) and
  shipped home **per obligation** with each result -- not at process
  exit, which a long-lived worker never reaches mid-run.

Fault tolerance (the parent never trusts a worker):

* each task gets an **external deadline** derived from its query's wall
  budget; a worker still running past it is SIGKILLed (cooperative budget
  checks inside the worker normally answer first -- the external deadline
  is the backstop for hung groundings and injected hangs);
* a worker that dies without sending a result (segfault, OOM kill,
  injected crash) is detected by EOF on its result pipe;
* crashed and killed workers are **replaced** (a fresh fork) while work
  remains, and their tasks are retried up to ``retries`` times with
  exponentially escalated budgets, then finished by an in-process serial
  fallback (fault-free by construction: :mod:`repro.solver.faults` only
  fires inside workers) -- or reported as typed UNKNOWNs when
  ``fallback=False``;
* after repeated crashes the batch's concurrency limit is halved (and
  dead workers stop being replaced), so a poisoned environment degrades
  to serial execution instead of thrashing;
* workers apply ``resource.setrlimit`` for the budget's RSS cap around
  each task and convert ``MemoryError`` into an UNKNOWN(MEMORY) answer.

Worker count resolution: the explicit ``jobs`` argument wins, then the
``REPRO_JOBS`` environment variable (malformed values are warned about on
stderr, not silently ignored), then 1 (serial).  Serial and parallel runs
return identical conclusive answers: workers run the same deterministic
solver code.  Platforms without the ``fork`` start method fall back to
serial execution rather than paying spawn-and-reimport per worker.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from dataclasses import dataclass, replace
from typing import Sequence

from .. import obs
from ..obs import profile
from ..obs.metrics import MetricsRegistry, install_metrics
from ..logic import syntax as s
from ..logic.sorts import Vocabulary
from ..recovery import heartbeat
from . import cache as cache_mod
from . import faults
from .budget import Budget, BudgetExceeded, FailureReason, resolve_retries, warn_env
from .epr import EprResult, EprSolver, unanswered
from .grounding import GroundingExplosion

#: grace multiplier/offset over the cooperative wall budget before the
#: parent declares a worker hung: solver rebuild + pickling happen inside
#: the window, and cooperative checks need a chance to fire.
_DEADLINE_FACTOR = 2.0
_DEADLINE_GRACE = 1.0

#: cumulative crash/kill count at which a batch's concurrency is first halved.
_SHRINK_THRESHOLD = 3


def resolve_jobs(jobs: int | None = None) -> int:
    """The worker count to use: argument, else ``REPRO_JOBS``, else 1."""
    if jobs is not None:
        return max(1, jobs)
    env = os.environ.get("REPRO_JOBS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            warn_env("REPRO_JOBS", env, "expected a positive integer")
    return 1


@dataclass(frozen=True)
class Query:
    """One solver instance and the subsets of tracked constraints to solve.

    ``solve_sets`` entries are frozensets of tracked-constraint names, or
    None for "all tracked constraints enabled" -- the same contract as
    :meth:`PreparedEpr.solve`.  A query with ``n`` solve sets yields ``n``
    results, all sharing one grounding: the worker grounds once and flips
    assumption literals between solves.  ``budget`` bounds the whole query
    (grounding plus every solve), both cooperatively inside the solver and
    externally by the dispatch parent.
    """

    name: str
    vocab: Vocabulary
    constraints: tuple[tuple[str, s.Formula, bool], ...]
    solve_sets: tuple[frozenset[str] | None, ...] = (None,)
    exclusive_tracked: bool = False
    canonical_models: bool = False
    eager_threshold: int = 3000
    budget: Budget | None = None


def query_of(
    solver: EprSolver,
    solve_sets: Sequence[frozenset[str] | None] = (None,),
    name: str = "query",
) -> Query:
    """Snapshot an :class:`EprSolver`'s constraints into a :class:`Query`."""
    return Query(
        name=name,
        vocab=solver.vocab,
        constraints=tuple(
            (c.name, c.formula, c.tracked) for c in solver._constraints
        ),
        solve_sets=tuple(solve_sets),
        exclusive_tracked=solver.exclusive_tracked,
        canonical_models=solver.canonical_models,
        eager_threshold=solver.eager_threshold,
        budget=solver.budget,
    )


def _unknown_batch(query: Query, reason: FailureReason) -> list[EprResult]:
    return [unanswered(reason) for _ in query.solve_sets]


def _run_query(query: Query) -> list[EprResult]:
    """Rebuild and solve one query (runs in a worker or in-process).

    Every solve set is first looked up in the query cache; when all of
    them hit, nothing is grounded.  Degrades gracefully: a grounding
    explosion or budget exhaustion during ``prepare`` yields an UNKNOWN
    for each solve set that missed; per-solve budget exhaustion is handled
    inside :meth:`PreparedEpr.solve`.
    """
    solver = EprSolver(
        query.vocab,
        eager_threshold=query.eager_threshold,
        exclusive_tracked=query.exclusive_tracked,
        canonical_models=query.canonical_models,
        budget=query.budget,
    )
    for name, formula, tracked in query.constraints:
        solver.add(formula, name=name, track=tracked)
    hits = [solver._cached(enabled) for enabled in query.solve_sets]
    if all(hit is not None for hit in hits):
        return hits
    try:
        prepared = solver.prepare()
    except BudgetExceeded as exceeded:
        reason = exceeded.reason
    except GroundingExplosion:
        reason = FailureReason.GROUNDING_BLOWUP
    else:
        return [
            hit if hit is not None else prepared.solve(enabled)
            for hit, enabled in zip(hits, query.solve_sets)
        ]
    return [hit if hit is not None else unanswered(reason) for hit in hits]


def _fork_context() -> multiprocessing.context.BaseContext | None:
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


def _apply_rss_limit(rss_mb: int) -> None:
    """Best-effort address-space cap for the current (worker) process."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX platforms
        return
    limit = rss_mb * 1024 * 1024
    try:
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        soft = limit if hard == resource.RLIM_INFINITY else min(limit, hard)
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    except (ValueError, OSError):  # pragma: no cover - restricted envs
        pass


def _lift_rss_limit() -> None:
    """Raise the soft cap back so result pickling is not what hits it."""
    try:
        import resource
    except ImportError:  # pragma: no cover
        return
    try:
        _, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(resource.RLIMIT_AS, (hard, hard))
    except (ValueError, OSError):  # pragma: no cover
        pass


# ------------------------------------------------------------ worker side


@dataclass(frozen=True)
class _Task:
    """One unit of work shipped to a pool worker.

    Besides the query itself, a task carries the slivers of parent state
    a long-lived worker cannot rely on having inherited: the fault plan
    active *now* (chaos tests install plans after the pool forked), the
    tracing identity (tracers are installed per run), and the cache
    generation (``install_cache`` may have replaced the parent's cache
    since the fork).
    """

    seq: int
    query: Query
    attempt: int
    plan: faults.FaultPlan | None
    trace: tuple[str, float] | None  # (run_id, clock_origin) or None
    cache: tuple[int, tuple[int, str | None] | None]  # cache_snapshot()
    #: parent has a metrics registry: publish into a fresh per-task one
    #: and ship its delta home with the result
    metrics: bool = False
    #: ambient engine tag (bmc/houdini/updr/induction) at dispatch time,
    #: not derivable from query names inside the worker
    engine: str | None = None


#: seconds an idle pool worker waits between checks that its parent lives
ORPHAN_POLL_SECONDS = 1.0


def _pool_worker_main(task_conn, result_conn, hb_conn) -> None:
    """Long-lived worker loop: pull tasks until the pipe closes.

    Any exception other than ``MemoryError`` is allowed to crash the
    worker: the parent detects the EOF, replaces the worker, retries the
    task, and the in-process fallback reproduces deterministic errors
    with a real traceback in the parent.

    SIGINT is ignored here: a terminal Ctrl-C broadcasts to the whole
    foreground process group, and a KeyboardInterrupt landing mid-solve
    would race the parent's own orderly :func:`shutdown_pool` -- the
    parent alone decides when workers die.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    faults.mark_worker()
    heartbeat.arm(hb_conn)
    parent = os.getppid()
    while True:
        try:
            # Every worker inherits the task pipes' write ends open at
            # its fork, its own included, so a SIGKILLed parent never
            # closes them: poll, and leave once orphaned.
            while not task_conn.poll(ORPHAN_POLL_SECONDS):
                if os.getppid() != parent:
                    return
            task = task_conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        _run_task(task, result_conn)
    result_conn.close()


def _run_task(task: _Task, conn) -> None:
    """Solve one task and send
    ``(seq, results, trace_events, metrics_delta, worker_wall)`` back.

    ``MemoryError`` under the RSS cap becomes an UNKNOWN(MEMORY) answer.
    The worker buffers its trace events locally (never writing the
    fork-inherited trace file, which would tear the parent's JSON lines)
    and ships them home with the result for re-parenting -- one batch of
    events per obligation, not per process exit.  ``trace_events`` is
    None when tracing is off.

    Metrics work the same way: the fork-inherited registry copy is
    replaced with a fresh per-task one (or removed, mirroring the
    parent), the solver layer publishes into it as usual, and its
    ``to_dict()`` delta rides home for the parent to merge -- exact
    worker-side samples, not parent-side reconstruction.
    ``worker_wall`` is the task's wall seconds as seen by the worker; the
    parent subtracts it from the observed round-trip to get the
    pickle/pipe ``transit`` phase.
    """
    query, attempt = task.query, task.attempt
    # Forced beat at task start: the parent's staleness clock for this
    # task starts now.  Deliberately *before* fault injection -- an
    # injected hang then looks exactly like a real wedge (one beat, then
    # silence), which is what the watchdog tests rely on.
    heartbeat.beat(force=True)
    started = time.perf_counter()
    faults.install_fault_plan(
        task.plan if task.plan is not None else faults.FaultPlan()
    )
    cache_mod.sync_worker_cache(task.cache)
    if task.trace is not None:
        obs.enter_worker(*task.trace)
    else:
        obs.exit_worker()
    delta_registry = MetricsRegistry() if task.metrics else None
    install_metrics(delta_registry)
    profile.set_engine(task.engine)
    limited = query.budget is not None and query.budget.rss_mb is not None
    if limited:
        _apply_rss_limit(query.budget.rss_mb)
    faults.maybe_inject(query.name, attempt)
    try:
        with obs.span(
            "worker", query=query.name, attempt=attempt, pid=os.getpid()
        ) as sp:
            results = _run_query(query)
            sp.set(results=len(results))
    except MemoryError:
        results = _unknown_batch(query, FailureReason.MEMORY)
    finally:
        if limited:
            _lift_rss_limit()
    delta = delta_registry.to_dict() if delta_registry is not None else None
    worker_wall = time.perf_counter() - started
    conn.send((task.seq, results, obs.drain_worker(), delta, worker_wall))


# ------------------------------------------------------------ parent side


@dataclass(eq=False)
class _PoolWorker:
    """A live pool member: its process and the parent ends of its pipes.

    ``hb_conn`` is the read end of the worker's heartbeat pipe
    (:mod:`repro.recovery.heartbeat`); the dealer drains it while the
    worker is busy and kills workers whose beats go stale.
    """

    process: multiprocessing.process.BaseProcess
    task_conn: multiprocessing.connection.Connection
    result_conn: multiprocessing.connection.Connection
    hb_conn: multiprocessing.connection.Connection


class WorkerPool:
    """A pool of long-lived forked workers, fed one task at a time.

    Workers block on their task pipe between tasks and between batches;
    they exit when the pipe closes (parent exit, :meth:`shutdown`) or on
    an explicit ``None`` sentinel.  ``forks`` counts every process ever
    forked -- the reuse regression test pins it across batches.
    """

    def __init__(self, context) -> None:
        self.context = context
        self.workers: list[_PoolWorker] = []
        self.forks = 0

    def spawn(self) -> _PoolWorker:
        task_r, task_w = self.context.Pipe(duplex=False)
        result_r, result_w = self.context.Pipe(duplex=False)
        hb_r, hb_w = self.context.Pipe(duplex=False)
        process = self.context.Process(
            target=_pool_worker_main,
            args=(task_r, result_w, hb_w),
            daemon=True,
        )
        process.start()
        task_r.close()
        result_w.close()
        hb_w.close()
        worker = _PoolWorker(process, task_w, result_r, hb_r)
        self.workers.append(worker)
        self.forks += 1
        return worker

    def ensure(self, count: int) -> None:
        """Grow the pool to at least ``count`` live workers."""
        self.reap()
        while len(self.workers) < count:
            self.spawn()

    def reap(self) -> None:
        """Drop members that died while idle (e.g. killed between batches)."""
        alive: list[_PoolWorker] = []
        for worker in self.workers:
            if worker.process.is_alive():
                alive.append(worker)
            else:
                worker.process.join()
                self._close(worker)
        self.workers = alive

    def discard(self, worker: _PoolWorker, kill: bool = False) -> None:
        """Remove a worker from the pool, killing it first if asked."""
        if kill:
            worker.process.kill()
        worker.process.join(timeout=5)
        if worker.process.is_alive():  # pragma: no cover - paranoia
            worker.process.kill()
            worker.process.join()
        self._close(worker)
        if worker in self.workers:
            self.workers.remove(worker)

    @staticmethod
    def _close(worker: _PoolWorker) -> None:
        for conn in (worker.task_conn, worker.result_conn, worker.hb_conn):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def shutdown(self) -> None:
        for worker in self.workers:
            try:
                worker.task_conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for worker in list(self.workers):
            worker.process.join(timeout=2)
            if worker.process.is_alive():
                worker.process.kill()
                worker.process.join()
            self._close(worker)
        self.workers = []


_pool: WorkerPool | None = None
_atexit_registered = False


def worker_pool(context=None) -> WorkerPool | None:
    """The process-global pool, created (empty) on first use.

    Workers are daemonic, so an exiting parent never leaks them; an
    ``atexit`` hook additionally reaps them on orderly interpreter exit
    (daemonic children survive their parent when the parent is killed
    mid-``fork``, and "usually cleaned up eventually" is not the contract
    Ctrl-C users expect).  Call :func:`shutdown_pool` for an explicit
    teardown (tests, long-lived embedders).
    """
    global _pool, _atexit_registered
    if _pool is None:
        context = context if context is not None else _fork_context()
        if context is None:
            return None
        _pool = WorkerPool(context)
        if not _atexit_registered:
            atexit.register(shutdown_pool)
            _atexit_registered = True
    return _pool


def shutdown_pool() -> None:
    """Terminate all pool workers and forget the pool."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


@dataclass
class _Running:
    worker: _PoolWorker
    seq: int
    index: int
    attempt: int
    query: Query
    deadline: float | None
    span: "obs.SpanRef | None" = None  # the dispatch.attempt trace span
    last_beat: float = 0.0  # monotonic time of the last heartbeat drained
    sent_at: float = 0.0  # monotonic send time, for the transit phase


def _external_deadline(budget: Budget | None) -> float | None:
    """Seconds a worker may run a task before the parent SIGKILLs it."""
    if budget is None or budget.wall_seconds is None:
        return None
    return budget.wall_seconds * _DEADLINE_FACTOR + _DEADLINE_GRACE


def _escalate(query: Query) -> Query:
    if query.budget is None:
        return query
    return replace(query, budget=query.budget.escalated())


def solve_queries(
    queries: Sequence[Query],
    jobs: int | None = None,
    retries: int | None = None,
    fallback: bool = True,
) -> list[list[EprResult]]:
    """Solve a batch of independent queries, one result list per query.

    Fault-tolerant in parallel mode: crashed or hung workers are replaced
    and their tasks retried up to ``retries`` times (argument, else
    ``REPRO_RETRIES``, else 2) with exponentially escalated budgets; a
    query still unanswered after that is finished in-process
    (``fallback=True``, the default) or reported as UNKNOWN with the
    failure that killed its last attempt.
    """
    jobs = resolve_jobs(jobs)
    workers = min(jobs, len(queries))
    context = _fork_context() if workers > 1 else None
    if context is None or workers <= 1:
        batches = []
        for query in queries:
            with obs.span("query", name=query.name):
                batches.append(_run_query(query))
        return batches
    return _solve_parallel(
        list(queries), workers, context, resolve_retries(retries), fallback
    )


def _solve_parallel(
    queries: list[Query],
    workers: int,
    context,
    retries: int,
    fallback: bool,
) -> list[list[EprResult]]:
    # Parent state shipped with every task (see _Task).  The cache
    # snapshot is taken *before* the pool grows so freshly forked workers
    # inherit exactly the cache generation the tasks will name.
    plan = faults.active_plan()
    tracer = obs.active_tracer()
    trace_info = (tracer.run_id, tracer.origin) if tracer is not None else None
    cache_info = cache_mod.cache_snapshot()
    metrics_on = obs.metrics_enabled()
    engine_tag = profile.current_engine()

    pool = worker_pool(context)
    assert pool is not None  # context was resolved by the caller
    pool.ensure(workers)

    batches: list[list[EprResult] | None] = [None] * len(queries)
    via_worker = [True] * len(queries)
    pending: list[tuple[int, int, Query]] = [
        (index, 0, query) for index, query in enumerate(queries)
    ]
    busy: dict[object, _Running] = {}
    idle: list[_PoolWorker] = list(pool.workers[:workers])
    limit = workers
    crash_count = kill_count = retry_count = fallback_count = 0
    wedged_count = lost_count = 0
    next_shrink = _SHRINK_THRESHOLD
    seq = 0
    beat_timeout = heartbeat.heartbeat_timeout()

    def deliver(record: _Running, conn) -> bool:
        """Receive and account one result; False when the read fails.

        Merging the worker's metrics delta, forwarding its trace events,
        and observing the transit phase all happen here, so the
        normal-result path and the late-salvage path (a result that
        arrived in the window between a deadline/wedge decision and the
        kill) account identically.
        """
        try:
            result_seq, results, worker_events, delta, worker_wall = conn.recv()
            if result_seq != record.seq:
                raise EOFError("stale result from a replaced worker")
        except (EOFError, OSError, ValueError):
            return False
        batches[record.index] = results
        obs.forward_events(
            worker_events, record.span.id if record.span else None
        )
        transit_s = max(0.0, (time.monotonic() - record.sent_at) - worker_wall)
        if metrics_on:
            if delta is not None:
                registry = obs.metrics()
                if registry is not None:
                    registry.merge(delta)
            labels = {"phase": "transit"}
            if engine_tag is not None:
                labels["engine"] = engine_tag
            obs.observe("query_phase_ms", transit_s * 1000, **labels)
        obs.finish_span(
            record.span, outcome="ok", transit_ms=int(transit_s * 1000)
        )
        idle.append(record.worker)
        return True

    def lose_events(record: _Running, reason: str) -> None:
        """A worker died with its task's buffered telemetry unsent."""
        nonlocal lost_count
        lost_count += 1
        obs.point(
            "dispatch.events-lost",
            query=record.query.name,
            attempt=record.attempt,
            reason=reason,
        )

    def finish_attempt(record: _Running, reason: FailureReason) -> None:
        """A worker died or was killed: retry, fall back, or give up."""
        nonlocal retry_count, fallback_count
        if record.attempt < retries:
            retry_count += 1
            obs.point(
                "dispatch.retry",
                query=record.query.name,
                attempt=record.attempt,
                reason=reason.value,
            )
            pending.append(
                (record.index, record.attempt + 1, _escalate(record.query))
            )
        elif fallback:
            # Final in-process serial attempt: fault injection never fires
            # in the parent, so deterministic queries always complete here;
            # cooperative budget checks still bound it.
            fallback_count += 1
            via_worker[record.index] = False
            obs.point(
                "dispatch.fallback",
                query=record.query.name,
                attempt=record.attempt,
                reason=reason.value,
            )
            with obs.span("query", name=record.query.name, fallback=True):
                batches[record.index] = _run_query(_escalate(record.query))
        else:
            obs.point(
                "dispatch.gave-up",
                query=record.query.name,
                attempt=record.attempt,
                reason=reason.value,
            )
            batches[record.index] = _unknown_batch(record.query, reason)

    def replace_worker(dead: _PoolWorker, kill: bool) -> None:
        """Drop a dead/hung worker; fork a replacement while work remains."""
        pool.discard(dead, kill=kill)
        if pending and len(idle) + len(busy) < limit:
            idle.append(pool.spawn())

    try:
        while pending or busy:
            if pending and not idle and not busy:
                # Every borrowed worker died; keep the batch moving.
                idle.append(pool.spawn())
            while pending and idle and len(busy) < limit:
                index, attempt, query = pending.pop(0)
                worker = idle.pop()
                seq += 1
                task = _Task(
                    seq, query, attempt, plan, trace_info, cache_info,
                    metrics=metrics_on, engine=engine_tag,
                )
                try:
                    worker.task_conn.send(task)
                except (BrokenPipeError, OSError):
                    # Died while idle: not an attempt failure -- the task
                    # never reached it.  Replace and resubmit.
                    pending.insert(0, (index, attempt, query))
                    replace_worker(worker, kill=False)
                    continue
                external = _external_deadline(query.budget)
                busy[worker.result_conn] = _Running(
                    worker,
                    seq,
                    index,
                    attempt,
                    query,
                    time.monotonic() + external if external is not None else None,
                    span=obs.begin_span(
                        "dispatch.attempt", query=query.name, attempt=attempt
                    ),
                    last_beat=time.monotonic(),
                    sent_at=time.monotonic(),
                )
            if not busy:
                continue
            # Wake at the earliest external deadline or heartbeat expiry,
            # whichever comes first; without either, block until a result.
            wakeups = [
                record.deadline
                for record in busy.values()
                if record.deadline is not None
            ]
            if beat_timeout > 0:
                wakeups.extend(
                    record.last_beat + beat_timeout for record in busy.values()
                )
            timeout = None
            if wakeups:
                timeout = max(0.01, min(wakeups) - time.monotonic())
            hb_map = {record.worker.hb_conn: record for record in busy.values()}
            ready = multiprocessing.connection.wait(
                list(busy.keys()) + list(hb_map.keys()), timeout=timeout
            )
            now = time.monotonic()
            for conn in ready:
                if conn not in busy:
                    # A heartbeat: drain the pipe, refresh the clock.  EOF
                    # here means the worker died -- its result pipe's EOF
                    # (also in `ready`) does the accounting.
                    record = hb_map.get(conn)
                    try:
                        while conn.poll(0):
                            conn.recv_bytes()
                    except (EOFError, OSError):
                        continue
                    if record is not None:
                        record.last_beat = now
                    continue
                record = busy.pop(conn)
                if not deliver(record, conn):
                    crash_count += 1
                    lose_events(record, "crashed")
                    obs.finish_span(record.span, outcome="crashed")
                    replace_worker(record.worker, kill=False)
                    finish_attempt(record, FailureReason.WORKER_CRASHED)
            for conn in [
                conn
                for conn, record in busy.items()
                if record.deadline is not None and now > record.deadline
            ]:
                record = busy.pop(conn)
                # Last-moment salvage: the result may have landed in the
                # pipe between our wait() wake-up and this deadline check.
                # A delivered answer is an answer -- keep the worker.
                if conn.poll(0) and deliver(record, conn):
                    continue
                kill_count += 1
                lose_events(record, "killed")
                obs.finish_span(record.span, outcome="killed")
                replace_worker(record.worker, kill=True)
                finish_attempt(record, FailureReason.TIMEOUT)
            if beat_timeout > 0:
                # The watchdog: a busy worker whose beats went stale is
                # wedged -- kill it now rather than waiting out the (often
                # much longer) 2x-wall external deadline.
                for conn in [
                    conn
                    for conn, record in busy.items()
                    if now - record.last_beat > beat_timeout
                ]:
                    record = busy.pop(conn)
                    if conn.poll(0) and deliver(record, conn):
                        continue
                    wedged_count += 1
                    lose_events(record, "wedged")
                    obs.point(
                        "dispatch.wedged",
                        query=record.query.name,
                        attempt=record.attempt,
                        silent_seconds=round(now - record.last_beat, 3),
                    )
                    obs.finish_span(record.span, outcome="wedged")
                    replace_worker(record.worker, kill=True)
                    finish_attempt(record, FailureReason.WEDGED)
            if crash_count + kill_count + wedged_count >= next_shrink and limit > 1:
                limit = max(1, limit // 2)
                next_shrink *= 2
    finally:
        # Normal completion leaves no busy workers; on an exception, kill
        # the ones mid-task so a stale result can never leak into (and
        # corrupt) the next batch served by the persistent pool.
        for conn, record in list(busy.items()):
            obs.finish_span(record.span, outcome="killed")
            pool.discard(record.worker, kill=True)

    complete = [batch for batch in batches if batch is not None]
    assert len(complete) == len(queries), "dispatch lost a query"
    if obs.metrics_enabled():
        # Per-query series (queries_total, cache_*, query_latency_ms,
        # query_phase_ms) already arrived as worker deltas, merged by
        # deliver() with the exact samples the worker's solver layer
        # published -- the same semantics as a serial run.  Only the
        # dispatch-level fault accounting is parent-originated.  A worker
        # that died mid-task takes that task's unsent samples with it:
        # worker_events_lost_total is the undercount signal, and the
        # retry/fallback that answers the query publishes its own.
        for count, name in (
            (crash_count, "worker_crashes_total"),
            (kill_count, "worker_kills_total"),
            (wedged_count, "worker_wedged_total"),
            (retry_count, "dispatch_retries_total"),
            (fallback_count, "serial_fallbacks_total"),
            (lost_count, "worker_events_lost_total"),
        ):
            if count:
                obs.inc(name, count)
        obs.inc(
            "dispatched_total",
            sum(len(batch) for batch, via in zip(batches, via_worker) if via),
        )
    return batches  # type: ignore[return-value]
