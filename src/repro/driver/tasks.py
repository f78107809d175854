"""Compact, picklable units of work for the parallel driver.

A :class:`SolveTask` carries only primitives — a :class:`FileSpec`
recipe (or raw C or LIR source), a configuration *name*, a backend
name — never solver objects, interned frozensets or constraint
programs.  Worker processes build the program through
:class:`repro.pipeline.Pipeline` stages, whose ``constraints`` entries
are shared with ``link``, serve and shard, so a worker (or a later run)
that receives another configuration of the same file skips the front
end.

Task results travel back as :class:`TaskResult`, whose solution field is
the canonical wire dict of :meth:`repro.analysis.solution.Solution.
to_canonical_dict` — deterministic, backend-independent, and directly
comparable across processes.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..analysis.config import (
    Configuration,
    parse_name,
    prepare_program,
    solve_prepared,
)
from ..analysis.constraints import ConstraintProgram
from ..analysis.solution import Solution, SolverStats
from ..obs import NULL_REGISTRY, Registry, record_solver_stats

if TYPE_CHECKING:  # pragma: no cover
    from ..bench.corpus import FileSpec
    from .pool import Worker

# NOTE: repro.bench, repro.pipeline and repro.driver.pool are imported
# lazily inside functions — all three build on this module, so an eager
# import here would be circular.

#: timing modes: ``wall`` measures best-of-N wall clock (the default,
#: today's serial behaviour); ``cost`` derives a deterministic pseudo-
#: runtime from the solver's work counters, so reports are byte-identical
#: across runs, job counts and machines (used by the differential tests
#: and available for CI smoke runs on noisy shared hardware).
TIMING_MODES = ("wall", "cost")


def source_digest(source: str) -> str:
    """Content hash of one translation unit (cache key component)."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def cost_runtime(stats: SolverStats) -> float:
    """Deterministic pseudo-runtime: one microsecond per unit of solver
    work.  Any two solves of the same (program, configuration, backend)
    perform identical work, so this 'clock' never jitters."""
    work = (
        stats.visits
        + stats.passes
        + stats.propagations
        + stats.edges_added
        + stats.unifications
    )
    return 1e-6 * (1 + work)


@dataclass(frozen=True)
class SolveTask:
    """One (file, configuration) solve, serialised compactly.

    Exactly one of ``spec`` (corpus recipe; the worker regenerates the
    deterministic C source) or ``source`` (raw C text) is set.
    ``index`` is the task's position in submission order — the merge key
    that makes result order independent of completion order.
    """

    index: int
    file_name: str
    source_hash: str
    config_name: str
    spec: Optional["FileSpec"] = None
    source: Optional[str] = None
    pts_backend: Optional[str] = None
    repetitions: int = 3
    timing: str = "wall"
    #: what ``source`` holds: ``"c"`` (a C translation unit, the
    #: default) or ``"lir"`` (constraint text for
    #: :func:`repro.interchange.parse_constraint_text`)
    source_kind: str = "c"
    #: collect per-task metrics (obs registry dict on the result).
    #: Deliberately NOT part of :meth:`cache_key` — observing a solve
    #: must never invalidate or fork its cached artifact.
    profile: bool = False

    def __post_init__(self) -> None:
        if (self.spec is None) == (self.source is None):
            raise ValueError("exactly one of spec/source must be given")
        if self.timing not in TIMING_MODES:
            raise ValueError(f"unknown timing mode {self.timing!r}")
        if self.source_kind not in ("c", "lir"):
            raise ValueError(f"unknown source kind {self.source_kind!r}")
        if self.source_kind != "c" and self.spec is not None:
            raise ValueError("corpus specs always generate C source")

    def configuration(self) -> Configuration:
        config = parse_name(self.config_name)
        if self.pts_backend is not None:
            config = dataclasses.replace(config, pts=self.pts_backend)
        return config

    def cache_key(self) -> str:
        """The on-disk cache identity of this task's result.

        Composed of the file *content* hash (not the name — identical
        content under different names shares an entry), the full
        configuration key (which includes the pts backend), and the
        timing mode with its repetition count (wall timings measured
        with different repetitions are different measurements; cost
        timings are repetition-independent).
        """
        timing = (
            "cost" if self.timing == "cost" else f"wall:{max(1, self.repetitions)}"
        )
        parts = [self.source_hash, self.configuration().cache_key, timing]
        if self.source_kind != "c":
            # Appended only for non-C sources so every pre-existing
            # cache entry keeps its key.
            parts.append(self.source_kind)
        raw = "|".join(parts)
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()


@dataclass
class TaskResult:
    """What comes back from a worker (or the cache) for one task."""

    index: int
    file_name: str
    config_name: str
    runtime_s: float
    solution: Dict  # Solution.to_canonical_dict() form
    from_cache: bool = False
    #: Registry.to_dict() snapshot when the task ran with profile=True
    metrics: Optional[Dict] = None

    @property
    def explicit_pointees(self) -> int:
        return self.solution["stats"]["explicit_pointees"]


def task_program(task: SolveTask, worker: "Worker") -> ConstraintProgram:
    """``task``'s constraint program: the caller's prebuilt one for its
    source, else a pipeline over the worker's cache builds it (or loads
    its ``constraints``/``import`` stage entry).

    The pipeline is fresh per task, so a worker keeps no parse trees or
    IR modules between tasks: retaining them in a long-lived pipeline
    cost about 14% more CPU on a cold 47-file, 4-configuration sweep.
    """
    from ..pipeline.stages import Pipeline

    program = worker.programs.get(task.source_hash)
    if program is not None:
        return program
    source = task.source
    if source is None:
        from ..bench.corpus import generate_c_source

        source = generate_c_source(task.spec)
    pipeline = Pipeline(cache=worker.cache)
    src = pipeline.source(task.file_name, source)
    if task.source_kind == "lir":
        return pipeline.constraints_from_text(src).program
    return pipeline.constraints(src).program


def execute_task(
    task: SolveTask, worker: Optional["Worker"] = None
) -> TaskResult:
    """Solve one task; the worker entry point (and the in-process path).

    ``worker`` supplies the program (see :func:`task_program`); a fresh
    cacheless one is used when omitted.  One untimed solve produces the
    solution (and, under wall timing, warms the path), then
    ``time_callable`` measures ``repetitions`` further solves.
    """
    from ..bench.timing import time_callable

    if worker is None:
        from .pool import Worker

        worker = Worker()
    reg = Registry() if task.profile else NULL_REGISTRY
    with reg.scope("task.derive"):
        config = task.configuration()
        prepared = prepare_program(task_program(task, worker), config)
    with reg.scope("task.solve"):
        solution: Solution = solve_prepared(prepared, config)
    if task.timing == "cost":
        runtime = cost_runtime(solution.stats)
    else:
        runtime = time_callable(
            lambda: solve_prepared(prepared, config), task.repetitions
        )
    metrics = None
    if task.profile:
        record_solver_stats(reg, solution.stats.to_dict())
        metrics = reg.to_dict()
    return TaskResult(
        task.index,
        task.file_name,
        task.config_name,
        runtime,
        solution.to_canonical_dict(),
        metrics=metrics,
    )
