"""Shared pieces of the benchmark: spans, statistics, the host probe and
worker processes.

Nothing here imports ``repro``: the orchestrator and the tests use these
helpers before (or without) the program being importable.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: the checkout root: the benchmark's directory sits directly below it
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"

#: every process the benchmark starts must end within this many seconds
PROCESS_TIMEOUT_S = 150.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One timed layer call: ``parent`` is the enclosing span's id."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str

    @property
    def key(self) -> Tuple[str, int]:
        return (self.run, self.id)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.run]

    @classmethod
    def from_list(cls, row: Sequence) -> "Span":
        return cls(*row)


class Tracer:
    """In-memory span recorder; spans are read out when the run ends.

    Each thread keeps its own stack of open spans, so concurrent client
    threads nest their spans independently.  ``span`` yields a label
    dict whose ``name`` a caller may change before the span closes (a
    pipeline stage that turned out to be a cache hit).
    """

    def __init__(self, run: str) -> None:
        self.run = run
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    def reset(self, run: str) -> None:
        """Start over under a new run id (a forked child's tracer)."""
        self.run = run
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, str]]:
        with self._lock:
            self._next_id += 1
            span_id = self._next_id
        stack = self._stack()
        parent = stack[-1] if stack else None
        label = {"name": name}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield label
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(
                    Span(span_id, label["name"], start, end, parent, self.run)
                )


def self_times(spans: Sequence[Span]) -> Dict[Tuple[str, int], float]:
    """Each span's duration minus the part of it its children cover.

    Spans are keyed by (run, id): ids are unique within one run only.

    Overlapping children (concurrent threads under one parent) are
    merged first, so covered time is never counted twice.
    """
    children: Dict[Tuple[str, int], List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault((span.run, span.parent), []).append(span)
    out: Dict[Tuple[str, int], float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.key, ()), key=lambda s: s.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.key] = span.duration - covered
    return out


def layer_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_times(spans)
    table: Dict[str, Dict[str, float]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += own[span.key]
    return table


#: span names that mark a timed region rather than a layer call
REGIONS = ("run", "serve.read_cycle")


def uncovered_frac(spans: Sequence[Span]) -> float:
    """Share of the timed regions' time that no layer span accounts for."""
    own = self_times(spans)
    regions = [s for s in spans if s.name in REGIONS]
    total = sum(s.duration for s in regions)
    return sum(own[s.key] for s in regions) / total if total > 0 else 0.0


def format_layer_table(title: str, spans: Sequence[Span]) -> str:
    table = layer_table(spans)
    roots = sum(s.duration for s in spans if s.parent is None)
    lines = [
        f"per-layer split: {title} (root spans {roots:.3f} s,"
        f" uncovered {uncovered_frac(spans):.1%})",
        f"  {'layer':<34} {'calls':>6} {'total_s':>9} {'self_s':>9} {'self%':>6}",
    ]
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        share = row["self_s"] / roots if roots > 0 else 0.0
        lines.append(
            f"  {name:<34} {row['calls']:>6} {row['total_s']:>9.3f}"
            f" {row['self_s']:>9.3f} {share:>6.1%}"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Statistics and the host probe
# ----------------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def host_probe() -> float:
    """Seconds for a fixed pure-Python loop: recorded, never used to
    rescale anything, so host drift can be told from a code change."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)
    return elapsed


# ----------------------------------------------------------------------
# Processes
# ----------------------------------------------------------------------


def program_env() -> Dict[str, str]:
    """Environment for processes that import the program from source."""
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    env.setdefault("PYTHONHASHSEED", "0")
    return env


def run_worker(job: Dict) -> Dict:
    """Run one job in a fresh worker process and return its result.

    ``spawned_at`` (a ``time.monotonic`` reading, system-wide on Linux)
    lets the worker report launch-to-ready time.  A worker that fails
    raises ``RuntimeError`` with its stderr tail.
    """
    job = dict(job, spawned_at=time.monotonic())
    proc = subprocess.run(
        [sys.executable, str(WORKER), json.dumps(job)],
        cwd=str(ROOT),
        env=program_env(),
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise RuntimeError(
            f"worker {job.get('kind')}/{job.get('phase')} exited"
            f" {proc.returncode}: {' | '.join(tail)}"
        )
    return json.loads(lines[-1])


def peak_rss_mb_of(pid: int) -> float:
    """High-water RSS of a live process (Linux ``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
