"""``repro.obs`` — the zero-cost-when-disabled observability layer.

Two pieces (see ``docs/internals.md`` §10):

- :class:`Registry` / :func:`scope` — hierarchical (dotted-name)
  counters and monotonic wall timers with deterministic merging; the
  shared :data:`NULL_REGISTRY` makes every instrumentation point a
  cheap early-return when profiling is off.
- :class:`TraceWriter` and the validators — structured JSONL trace
  events under the stable :data:`TRACE_SCHEMA`, emitted in
  deterministic (task-index) order by the driver.  :func:`profiled_run`
  hands a run its ``(registry, trace)`` pair and drops the trace of a
  run that fails.

The solver hot paths are *not* instrumented directly: they keep
counting into :class:`repro.analysis.solution.SolverStats` as always,
and :func:`record_solver_stats` harvests those counters into a registry
after the fact — profiling can therefore never perturb the timed region
or invalidate a cached artifact.
"""

from .registry import NULL_REGISTRY, Registry, record_solver_stats, scope
from .rss import PEAK_RSS_GAUGE, peak_rss_bytes, record_peak_rss
from .trace import (
    EVENT_TYPES,
    TRACE_SCHEMA,
    TraceError,
    TraceWriter,
    profiled_run,
    read_trace,
    validate_trace_line,
    validate_trace_text,
)

__all__ = [
    "NULL_REGISTRY",
    "Registry",
    "record_solver_stats",
    "scope",
    "PEAK_RSS_GAUGE",
    "peak_rss_bytes",
    "record_peak_rss",
    "EVENT_TYPES",
    "TRACE_SCHEMA",
    "TraceError",
    "TraceWriter",
    "profiled_run",
    "read_trace",
    "validate_trace_line",
    "validate_trace_text",
]
