"""The parallel analysis driver: fan tasks out, merge deterministically.

:func:`solve_tasks` is the single entry point every harness goes
through (``repro.bench.runner``, ``repro.bench.solverbench``, the
``sweep`` and ``constraints solve`` CLIs):

1. Look every task up in the on-disk cache (when enabled) — warm tasks
   never reach a worker, let alone a solver.
2. Coalesce tasks that share a cache identity (solve once, replicate),
   then run the remainder on the :class:`Executor` — in-process for
   ``jobs=1``, else on a ``multiprocessing`` pool.
3. Merge results **by task index**: the returned list is ordered by
   submission order regardless of which worker finished first, so a
   ``--jobs 8`` run reports byte-identically to ``--jobs 1``.

The :class:`Executor` is also the pool :func:`repro.shard.link_sharded`
runs its shard links and merges on.  Workers receive only compact,
picklable jobs and build everything heavyweight themselves through
:class:`repro.pipeline.Pipeline` stages over the run's cache, which
each worker reopens (see :class:`Worker`), because solver state
(interned frozensets, pts backend objects, union-find structures) is
deliberately not sent across the process boundary.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..analysis.constraints import ConstraintProgram
from ..obs import Registry, TraceWriter, record_solver_stats
from .cache import CacheStats, ResultCache
from .tasks import SolveTask, TaskResult, execute_task


@dataclass
class DriverStats:
    """One run's accounting, surfaced in run reports."""

    jobs: int = 1
    tasks: int = 0
    solved: int = 0  # tasks that actually invoked a solver
    #: this call's own task-store counters (not the cache's running
    #: totals, which span every call sharing the cache)
    cache: Optional[CacheStats] = None

    def to_dict(self) -> Dict:
        out: Dict = {"jobs": self.jobs, "tasks": self.tasks, "solved": self.solved}
        if self.cache is not None:
            out["cache"] = self.cache.to_dict()
        return out

    def __str__(self) -> str:
        cache = f"; cache: {self.cache}" if self.cache is not None else ""
        return (
            f"driver: {self.tasks} tasks, {self.solved} solved,"
            f" jobs={self.jobs}{cache}"
        )


def default_jobs() -> int:
    """A sensible ``--jobs`` default: the machine's CPU count."""
    return os.cpu_count() or 1


def _pool_context(
    start_method: Optional[str] = None,
) -> multiprocessing.context.BaseContext:
    """The multiprocessing context the pool runs on.

    Prefers ``fork`` (fast start, inherits ``sys.path`` and loaded
    modules) and falls back to ``spawn`` where fork does not exist —
    asking the platform which methods it *supports* rather than probing
    with try/except, because ``get_context`` also raises ValueError for
    typos, which must not silently downgrade to the platform default.
    An explicit ``start_method`` must be supported or this raises.
    """
    available = multiprocessing.get_all_start_methods()
    if start_method is not None:
        if start_method not in available:
            raise ValueError(
                f"start method {start_method!r} not available"
                f" (supported: {available})"
            )
        return multiprocessing.get_context(start_method)
    for method in ("fork", "spawn"):
        if method in available:
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()  # pragma: no cover - exotic platform


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------


@dataclass
class Worker:
    """What every job runs against in its process: the run's cache
    (``None``: uncached) and the caller's prebuilt constraint programs,
    keyed by source hash."""

    cache: Optional[ResultCache] = None
    programs: Dict[str, ConstraintProgram] = field(default_factory=dict)


#: this pool worker's :class:`Worker`, set by :func:`_init_worker`
_worker: Optional[Worker] = None


def _init_worker(
    cache_root: Optional[str],
    max_entries: Optional[int],
    programs: Dict[str, ConstraintProgram],
) -> None:
    """Pool initializer: reopen the run's cache — bound included — in
    this process."""
    global _worker
    cache = (
        ResultCache(cache_root, max_entries=max_entries)
        if cache_root is not None
        else None
    )
    _worker = Worker(cache, programs)


def _run_in_worker(fn: Callable, job):
    try:
        return fn(job, _worker)
    except Exception as exc:
        # The pool sends the exception back pickled; one that cannot
        # make the round trip would leave the parent waiting forever.
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:
            raise RuntimeError(f"{type(exc).__name__}: {exc}") from None
        raise


class Executor:
    """Runs batches of jobs serially or on one shared process pool.

    :meth:`map` calls ``fn(job, worker)`` for every job of a batch and
    returns the results in batch order; jobs and results both carry a
    unique ``index``.  With ``jobs == 1`` (or a one-job batch) it runs
    in-process against a :class:`Worker` that shares ``cache`` itself.
    Otherwise the first batch starts a pool (``fork`` preferred, see
    :func:`_pool_context`) whose workers reopen the cache from its root
    and ``max_entries``, and ``programs`` reach them through the pool
    initializer.  ``fn`` must be a module-level function: it travels to
    the workers by name.
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: Optional[ResultCache] = None,
        programs: Optional[Dict[str, ConstraintProgram]] = None,
        start_method: Optional[str] = None,
    ) -> None:
        self.jobs = max(1, jobs)
        self._start_method = start_method
        self._local = Worker(cache, programs or {})
        self._pool = None

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()

    def map(self, fn: Callable, batch: Sequence) -> List:
        if self.jobs == 1 or len(batch) <= 1:
            return [fn(job, self._local) for job in batch]
        if self._pool is None:
            cache = self._local.cache
            self._pool = _pool_context(self._start_method).Pool(
                processes=min(self.jobs, len(batch)),
                initializer=_init_worker,
                initargs=(
                    None if cache is None else str(cache.root),
                    None if cache is None else cache.max_entries,
                    self._local.programs,
                ),
            )
        # imap_unordered keeps every worker busy (none idles waiting
        # for an in-order neighbour); chunk size 1 keeps the longest
        # stragglers from pinning queued jobs behind them.  Determinism
        # is restored by re-keying on the job index.
        by_index = {
            result.index: result
            for result in self._pool.imap_unordered(
                partial(_run_in_worker, fn), batch, chunksize=1
            )
        }
        return [by_index[job.index] for job in batch]


# ----------------------------------------------------------------------
# Solving tasks
# ----------------------------------------------------------------------


def solve_tasks(
    tasks: Sequence[SolveTask],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    programs: Optional[Dict[str, ConstraintProgram]] = None,
    progress: Optional[Callable[[TaskResult], None]] = None,
    registry: Optional[Registry] = None,
    trace: Optional[TraceWriter] = None,
    start_method: Optional[str] = None,
) -> Tuple[List[TaskResult], DriverStats]:
    """Execute ``tasks``, returning results ordered by task index.

    ``programs`` maps source hashes to constraint programs the caller
    already built, so no process builds them again; every other task
    builds its program through the pipeline over the run's cache (see
    :func:`repro.driver.tasks.task_program`).  ``progress`` is called
    once per completed task, in completion order.

    An enabled ``registry`` turns on per-task profiling: every solved
    task carries its worker-local metrics back on the result, and they
    are merged here **in task-index order** (with ``driver.*`` and
    ``driver.cache.*`` counters added on top), so the merged registry is
    identical for any ``jobs`` value and either pool start method.  A
    ``trace`` writer gets one ``solve`` event per task, also in index
    order.  Neither affects solutions, runtimes or cache keys.
    """
    tasks = list(tasks)
    if len({t.index for t in tasks}) != len(tasks):
        raise ValueError("task indexes must be unique")
    jobs = max(1, jobs)
    stats = DriverStats(jobs=jobs, tasks=len(tasks))
    results: Dict[int, TaskResult] = {}
    profiling = registry is not None and registry.enabled
    # The same ResultCache is commonly reused across calls: snapshot its
    # counters so this call reports only its own hits/misses.
    cache_before = cache.stats.to_dict() if cache is not None else None

    pending: List[SolveTask] = []
    for task in tasks:
        hit = cache.load(task) if cache is not None else None
        if hit is None:
            pending.append(task)
            continue
        results[task.index] = hit
        if progress is not None:
            progress(hit)
    if profiling:
        # Replay tasks with profiling on so workers build a registry.
        # ``profile`` is not part of the cache identity, so this cannot
        # change which entries hit above or where results get stored.
        pending = [dataclasses.replace(t, profile=True) for t in pending]

    # Coalesce duplicate work: tasks sharing a cache identity (same
    # content, configuration and timing — e.g. a configuration listed in
    # two overlapping experiment groups) are solved once and the result
    # replicated.  Same key → same result is also what makes a warm
    # replay byte-identical to its cold run under wall timing: without
    # coalescing, duplicates would each measure (and the last store
    # win), leaving the cold report internally inconsistent with what
    # the cache replays.
    unique: List[SolveTask] = []
    unique_keys: List[str] = []
    duplicates: Dict[str, List[SolveTask]] = {}
    first_for: Dict[str, SolveTask] = {}
    for task in pending:
        key = task.cache_key()
        if key in first_for:
            duplicates.setdefault(key, []).append(task)
        else:
            first_for[key] = task
            unique.append(task)
            unique_keys.append(key)

    stats.solved = len(unique)
    coalesced = sum(len(v) for v in duplicates.values())
    if unique:
        with Executor(jobs, cache, programs, start_method) as executor:
            # The module-global execute_task, looked up at call time.
            completed = executor.map(execute_task, unique)
        for task, key, result in zip(unique, unique_keys, completed):
            if cache is not None:
                cache.store(task, result)
            results[result.index] = result
            if progress is not None:
                progress(result)
            for dup in duplicates.get(key, ()):
                echo = TaskResult(
                    dup.index,
                    dup.file_name,
                    dup.config_name,
                    result.runtime_s,
                    result.solution,
                    result.from_cache,
                )
                results[dup.index] = echo
                if progress is not None:
                    progress(echo)

    if cache is not None:
        after = cache.stats.to_dict()
        stats.cache = CacheStats(
            **{field: n - cache_before[field] for field, n in after.items()}
        )
    ordered = [results[t.index] for t in tasks]
    if profiling:
        registry.add("driver.tasks", len(tasks))
        registry.add("driver.solved", stats.solved)
        registry.add("driver.coalesced", coalesced)
        if stats.cache is not None:
            for field, n in stats.cache.to_dict().items():
                registry.add(f"driver.cache.{field}", n)
        # Index-order merge: every worker's registry lands in the same
        # place no matter which process solved it or when it finished.
        # Cache hits and coalesced echoes carry no worker registry —
        # replay their stored solver stats instead, so the ``solver.*``
        # counters aggregate every *task* exactly once and a warm run
        # reports the same counts as its cold run.
        for result in ordered:
            if result.metrics:
                registry.merge_dict(result.metrics)
            else:
                record_solver_stats(registry, result.solution["stats"])
    if trace is not None:
        for result in ordered:
            trace.emit(
                "solve",
                f"{result.file_name}::{result.config_name}",
                {
                    "runtime_s": result.runtime_s,
                    "from_cache": result.from_cache,
                    "stats": result.solution["stats"],
                },
            )
    return ordered, stats


# ----------------------------------------------------------------------
# Merge-time validation
# ----------------------------------------------------------------------


def validate_agreement(results: Sequence[TaskResult]) -> None:
    """Assert every configuration of a file produced the same solution.

    The serial runner validated each solution against the file's first
    configuration as it went; with out-of-order completion the same
    check runs at merge time, on the canonical wire dicts (stats are
    excluded — only points-to sets and the external set define solution
    identity, exactly like ``Solution.__eq__``).
    """
    reference: Dict[str, TaskResult] = {}
    for result in results:
        ref = reference.setdefault(result.file_name, result)
        if ref is result:
            continue
        if (
            ref.solution["points_to"] != result.solution["points_to"]
            or ref.solution["external"] != result.solution["external"]
        ):
            raise AssertionError(
                f"{result.config_name} disagrees with {ref.config_name}"
                f" on {result.file_name}"
            )
