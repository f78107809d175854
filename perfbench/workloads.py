"""The workloads: inputs, measured runs, oracles and metrics.

Each workload function takes a :class:`Context` and returns an
:class:`Outcome`.  End-to-end metrics come from untraced runs; with
``trace`` set, a workload also makes one traced run and fills the
per-layer metrics from its spans (``obs.trace_overhead`` is the traced
run's wall time over the untraced one's, minus one).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import inputs
from harness import (
    ROOT,
    Span,
    Tracer,
    format_layer_table,
    median,
    peak_rss_mb_of,
    percentile,
    program_env,
    run_worker,
    uncovered_frac,
)

C_BUILD_CONFIG = "IP+WL(FIFO)+PIP"
REFERENCE_CONFIG = "IP+Naive"
#: the paper's Table V configurations (EP+OVS+WL(LRF)+OCD is its oracle)
SWEEP_CONFIGS = (
    "EP+OVS+WL(LRF)+OCD",
    "IP+WL(FIFO)+LCD+DP",
    "IP+WL(FIFO)",
    "IP+WL(FIFO)+PIP",
)
SWEEP_JOBS = 2
#: warm reruns over each cold build's stage cache
WARM_RUNS = 1
#: warm sweeps over each cold sweep's cache
SWEEP_WARM_RUNS = 2
SERVE_WORKERS = 2
SERVE_SPAWNS = 3
UPDATE_PAUSE_S = 2.0
#: shared cells one reader cycle asks ``points_to`` about
CYCLE_CELLS = 8
#: members whose call graph and conflict rate the final script asks for
SCRIPT_MEMBERS = 4

WHY = {
    "c-build": "the whole-program C path: frontend and canonical output"
    " dominate, the solver is about a tenth; warm rerun is all cache"
    " decode, attach and digest",
    "corpus-sweep": "many small files x 4 Table V configs through the"
    " driver pool and result cache, where per-task overhead outweighs"
    " solving",
    "serve-edit": "reads beside writes on a live server: each update"
    " re-runs one member, relinks, re-solves and invalidates the memo",
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

LAYER_UNITS = {
    "frontend.preprocess_s": "s",
    "frontend.lex_s": "s",
    "frontend.parse_s": "s",
    "frontend.sema_s": "s",
    "frontend.lower_s": "s",
    "frontend.tokens": "count",
    "frontend.tokens_per_s": "1/s",
    "ir.verify_s": "s",
    "ir.instructions": "count",
    "analysis.constraints_s": "s",
    "link.link_s": "s",
    "interchange.import_s": "s",
    "interchange.bytes_per_s": "B/s",
    "analysis.solve_s": "s",
    "analysis.propagations": "count",
    "analysis.unifications": "count",
    "analysis.edges_added": "count",
    "analysis.visits": "count",
    "analysis.pair_evals": "count",
    "analysis.vars": "count",
    "analysis.constraints_n": "count",
    "analysis.canonical_s": "s",
    "analysis.attach_s": "s",
    "analysis.digest_s": "s",
    "analysis.pointers": "count",
    "analysis.shared_sets": "count",
    "analysis.pts_sharing": "ratio",
    "pipeline.program_digest_s": "s",
    "pipeline.cache_io_s": "s",
    "pipeline.constraints_hit_s": "s",
    "pipeline.link_hit_s": "s",
    "pipeline.solve_hit_s": "s",
    "pipeline.hits": "count",
    "driver.tasks": "count",
    "driver.solved": "count",
    "driver.cache_hits": "count",
    "driver.cache_misses": "count",
    "driver.cache_stores": "count",
    "driver.task_solve_s": "s",
    "driver.busy_frac": "ratio",
    "serve.reads": "count",
    "serve.read_p50_ms": "ms",
    "serve.read_p90_ms": "ms",
    "serve.read_qps": "1/s",
    "serve.audit_p50_ms": "ms",
    "serve.update_p50_s": "s",
    "serve.points_to_p50_ms": "ms",
    "serve.callgraph_p50_ms": "ms",
    "serve.conflict_rate_p50_ms": "ms",
    "serve.classify_p50_ms": "ms",
    "serve.memo_hit_rate": "ratio",
    "serve.generations": "count",
    "serve.update_constraints_runs": "count",
    "serve.reads_during_update_frac": "ratio",
    "host.probe_s": "s",
    "obs.trace_overhead": "ratio",
    "obs.uncovered_frac": "ratio",
}


@dataclass
class Context:
    seed: int
    seconds: float
    trace: bool
    work: Path
    sizes: inputs.Sizes = inputs.FULL


@dataclass
class Outcome:
    end_to_end: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    shape: Dict = field(default_factory=dict)
    tables: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; record it if it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def repeat(seconds: float, body: Callable[[int], None]) -> int:
    """Run ``body(i)`` over a span of about ``seconds`` (at least once);
    returns the run count.  Measuring the whole span averages over the
    host's speed swings, which last tens of seconds.  Another run starts
    only while at least half of it, judged by the last one, falls within
    the span, so a run's length stays near ``seconds``."""
    start = time.monotonic()
    runs = 0
    last = 0.0
    while runs == 0 or time.monotonic() - start + last / 2 < seconds:
        began = time.monotonic()
        body(runs)
        last = time.monotonic() - began
        runs += 1
    return runs


def spans_of(rows: Sequence) -> List[Span]:
    return [Span.from_list(row) for row in rows]


def span_total(spans: Sequence[Span], name: str) -> float:
    return float(sum(s.duration for s in spans if s.name == name))


def add_solution_layers(layers: Dict[str, float], result: Dict) -> None:
    stats = result["stats"]
    for name in ("propagations", "unifications", "edges_added", "visits", "pair_evals"):
        layers[f"analysis.{name}"] = stats[name]
    layers["analysis.vars"] = result["shape"]["vars"]
    layers["analysis.constraints_n"] = result["shape"]["constraints"]
    layers["analysis.pointers"] = result["pointers"]
    layers["analysis.shared_sets"] = stats["shared_sets"]
    if stats["shared_sets"]:
        layers["analysis.pts_sharing"] = result["pointers"] / stats["shared_sets"]


def add_span_layers(layers: Dict[str, float], spans: Sequence[Span]) -> None:
    """Per-layer seconds: inclusive time of each layer's spans."""
    for metric, span_name in (
        ("frontend.preprocess_s", "frontend.preprocess"),
        ("frontend.parse_s", "frontend.parse"),
        ("frontend.sema_s", "frontend.sema"),
        ("frontend.lower_s", "frontend.lower"),
        ("ir.verify_s", "ir.verify"),
        ("analysis.constraints_s", "analysis.constraints"),
        ("link.link_s", "link.link"),
        ("analysis.solve_s", "analysis.solve"),
        ("analysis.canonical_s", "analysis.canonical"),
        ("analysis.attach_s", "analysis.attach"),
        ("analysis.digest_s", "analysis.digest"),
        ("pipeline.program_digest_s", "pipeline.program_digest"),
    ):
        layers[metric] = span_total(spans, span_name)
    layers["pipeline.cache_io_s"] = sum(
        span_total(spans, name)
        for name in (
            "pipeline.cache_load",
            "pipeline.cache_store",
            "driver.cache_load",
            "driver.cache_store",
        )
    )


def empty_layers() -> Dict[str, float]:
    return {name: 0.0 for name in LAYER_UNITS}


# ----------------------------------------------------------------------
# References (set-up, outside every timed region)
# ----------------------------------------------------------------------


def link_in_process(paths: Sequence[Path]):
    """The linked constraint program of C sources, built in this process."""
    from repro.link import LinkOptions
    from repro.pipeline import Pipeline

    pipeline = Pipeline()
    sources = [pipeline.source(p.name, p.read_text()) for p in paths]
    return pipeline.link_sources(sources, LinkOptions()).linked.program


def reference_digest(program) -> str:
    """Named-canonical digest of an ``IP+Naive`` solve of ``program``."""
    from repro.analysis.config import parse_name, run_configuration

    return run_configuration(program, parse_name(REFERENCE_CONFIG)).named_canonical_digest()


# ----------------------------------------------------------------------
# c-build: sources → digest, cold then warm
# ----------------------------------------------------------------------


def _build_rounds(ctx: Context, out: Outcome, files: List[str], expected: str) -> None:
    """Rounds of one cold run into a fresh stage cache followed by
    ``WARM_RUNS`` warm runs over it, each run a fresh worker process."""
    cold: List[Dict] = []
    warm: List[Dict] = []
    ready: List[float] = []
    peaks: List[float] = []

    def job(phase: str, cache: Path, trace: bool) -> Dict:
        return {
            "kind": "build",
            "phase": phase,
            "files": files,
            "cache_dir": str(cache),
            "config": C_BUILD_CONFIG,
            "trace": trace,
        }

    def one(phase: str, i: int, cache: Path, trace: bool) -> Optional[Dict]:
        try:
            result = run_worker(job(phase, cache, trace))
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            out.check(False, f"{phase} run {i}: {exc}")
            return None
        out.check(
            result["digest"] == expected,
            f"{phase} run {i}: digest {result['digest'][:12]} != reference {expected[:12]}",
        )
        if phase == "warm":
            runs = sum(stage["runs"] for stage in result["stages"].values())
            out.check(runs == 0, f"warm run {i} re-ran {runs} stages")
        ready.append(result["ready_s"])
        return result

    def run_round(i: int, trace: bool = False, warm_runs: int = WARM_RUNS) -> List[Dict]:
        cache = ctx.work / f"cache-{'t' if trace else 'u'}{i}"
        results = [one("cold", i, cache, trace)]
        if results[0] is not None:
            results += [one("warm", i, cache, trace) for _ in range(warm_runs)]
        shutil.rmtree(cache, ignore_errors=True)
        return results

    def untraced(i: int) -> None:
        results = run_round(i)
        if results[0] is not None:
            cold.append(results[0])
        warm.extend(r for r in results[1:] if r is not None)
        done = [r for r in results if r is not None]
        if done:
            peaks.append(max(r["peak_rss_mb"] for r in done))

    traced_cold = traced_warm = None
    if ctx.trace:
        untraced(0)
        traced = run_round(0, trace=True, warm_runs=1)
        if len(traced) == 2:
            traced_cold, traced_warm = traced
    else:
        repeat(ctx.seconds, untraced)
    if not cold or not warm:
        raise RuntimeError("no successful cold and warm run: " + "; ".join(out.failures))

    out.end_to_end = {
        "wall_s": median([r["wall_s"] for r in cold]),
        "warm_s": median([r["wall_s"] for r in warm]),
        "setup_s": median(ready),
        "peak_rss_mb": median(peaks),
    }
    out.shape.update(cold[0]["shape"], cold_s=[r["wall_s"] for r in cold],
                     warm_s=[r["wall_s"] for r in warm])
    if ctx.trace and traced_cold is not None and traced_warm is not None:
        layers = out.layers
        cold_spans = spans_of(traced_cold["spans"])
        warm_spans = spans_of(traced_warm["spans"])
        add_span_layers(layers, cold_spans)
        add_solution_layers(layers, traced_cold)
        layers["ir.instructions"] = traced_cold.get("instructions", 0)
        if "tokens" in traced_cold:
            layers["frontend.lex_s"] = traced_cold["lex_s"]
            layers["frontend.tokens"] = traced_cold["tokens"]
            layers["frontend.tokens_per_s"] = traced_cold["tokens"] / traced_cold["lex_s"]
        if "import_s" in traced_cold:
            layers["interchange.import_s"] = traced_cold["import_s"]
            layers["interchange.bytes_per_s"] = traced_cold["lir_bytes"] / traced_cold["import_s"]
        layers["pipeline.constraints_hit_s"] = span_total(warm_spans, "pipeline.constraints_hit")
        for stage in ("link", "solve"):
            layers[f"pipeline.{stage}_hit_s"] = span_total(warm_spans, f"pipeline.{stage}_hit")
        layers["pipeline.hits"] = sum(
            stage["hits"] for stage in traced_warm["stages"].values()
        )
        untraced_wall = cold[0]["wall_s"] + warm[0]["wall_s"]
        traced_wall = traced_cold["wall_s"] + traced_warm["wall_s"]
        layers["obs.trace_overhead"] = traced_wall / untraced_wall - 1.0
        layers["obs.uncovered_frac"] = uncovered_frac(cold_spans + warm_spans)
        out.tables.append(format_layer_table("cold run", cold_spans))
        out.tables.append(format_layer_table("warm run", warm_spans))


def c_build(ctx: Context) -> Outcome:
    out = Outcome()
    specs = inputs.program_specs(ctx.sizes.c_build, ctx.seed, "c-build")
    paths = inputs.write_sources(ctx.work / "src", specs)
    expected = reference_digest(link_in_process(paths))
    _build_rounds(ctx, out, [str(p) for p in paths], expected)
    return out


# ----------------------------------------------------------------------
# corpus-sweep: files × Table V configs through the driver pool
# ----------------------------------------------------------------------


def sweep_rows_agree(text: str) -> Optional[str]:
    """None when every file's configurations agree, else the complaint."""
    from repro.driver import TaskResult, validate_agreement

    results = [
        TaskResult(index, name, config, 0.0, solution)
        for index, name, config, solution in json.loads(text)
    ]
    try:
        validate_agreement(results)
    except AssertionError as exc:
        return str(exc)
    return None


def check_sweep(out: Outcome, tag: str, texts: Sequence[str]) -> None:
    """Oracle: the cold sweep's configurations agree on every file
    (EP+OVS+WL(LRF)+OCD, the paper's oracle, among them) and the warm
    sweep's results are byte-equal to the cold ones."""
    if texts:
        complaint = sweep_rows_agree(texts[0])
        out.check(complaint is None, f"cold sweep {tag}: {complaint}")
    for k, text in enumerate(texts[1:], 1):
        out.check(text == texts[0], f"warm sweep {tag}.{k} differs from cold")


def corpus_sweep(ctx: Context) -> Outcome:
    out = Outcome()
    specs = inputs.sweep_specs(ctx.sizes.sweep, ctx.seed)
    files = [str(p) for p in inputs.write_sources(ctx.work / "src", specs)]
    cold: List[Dict] = []
    warm: List[Dict] = []
    ready: List[float] = []
    peaks: List[float] = []
    traced: List[Dict] = []

    def run_round(i: int, trace: bool = False) -> None:
        tag = f"{'t' if trace else 'u'}{i}"
        cache = ctx.work / f"cache-{tag}"
        texts = []
        done: List[Dict] = []
        phases = ["cold"] + ["warm"] * (1 if trace else SWEEP_WARM_RUNS)
        for k, phase in enumerate(phases):
            result_file = ctx.work / f"{tag}-{k}.json"
            try:
                result = run_worker(
                    {
                        "kind": "sweep",
                        "phase": phase,
                        "files": files,
                        "configs": list(SWEEP_CONFIGS),
                        "cache_dir": str(cache),
                        "jobs": SWEEP_JOBS,
                        "out": str(result_file),
                        "trace": trace,
                    }
                )
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                out.check(False, f"{phase} sweep {tag}: {exc}")
                break
            ready.append(result["ready_s"])
            texts.append(result_file.read_text())
            if trace:
                traced.append(result)
            else:
                (cold if phase == "cold" else warm).append(result)
                done.append(result)
        check_sweep(out, tag, texts)
        if done:
            peaks.append(max(r["peak_rss_mb"] for r in done))
        shutil.rmtree(cache, ignore_errors=True)
        shutil.rmtree(ctx.work / "pool-spans", ignore_errors=True)

    if ctx.trace:
        run_round(0)
        run_round(0, trace=True)
    else:
        repeat(ctx.seconds, run_round)
    if not cold or not warm:
        raise RuntimeError("no successful cold/warm sweep: " + "; ".join(out.failures))
    out.end_to_end = {
        "wall_s": median([r["wall_s"] for r in cold]),
        "warm_s": median([r["wall_s"] for r in warm]),
        "setup_s": median(ready),
        "peak_rss_mb": median(peaks),
    }
    out.shape.update(cold[0]["shape"], configs=len(SWEEP_CONFIGS), jobs=SWEEP_JOBS,
                     cold_s=[r["wall_s"] for r in cold], warm_s=[r["wall_s"] for r in warm])
    if ctx.trace and len(traced) == 2:
        traced_cold, traced_warm = traced
        spans = spans_of(traced_cold["spans"])
        layers = out.layers
        add_span_layers(layers, spans)
        counters = traced_cold["metrics"]["counters"]
        timers = traced_cold["metrics"]["timers"]
        layers["driver.tasks"] = counters.get("driver.tasks", 0)
        layers["driver.solved"] = counters.get("driver.solved", 0)
        warm_counters = traced_warm["metrics"]["counters"]
        layers["driver.cache_hits"] = warm_counters.get("driver.cache.hits", 0)
        layers["driver.cache_misses"] = counters.get("driver.cache.misses", 0)
        layers["driver.cache_stores"] = counters.get("driver.cache.stores", 0)
        layers["driver.task_solve_s"] = timers.get("task.solve", 0.0)
        busy = span_total(spans, "driver.task")
        layers["driver.busy_frac"] = busy / (SWEEP_JOBS * traced_cold["wall_s"])
        for name in ("propagations", "unifications", "edges_added", "visits", "pair_evals"):
            layers[f"analysis.{name}"] = counters.get(f"solver.{name}", 0)
        layers["analysis.shared_sets"] = counters.get("solver.shared_sets", 0)
        layers["obs.trace_overhead"] = (
            traced_cold["wall_s"] + traced_warm["wall_s"]
        ) / (cold[0]["wall_s"] + warm[0]["wall_s"]) - 1.0
        parent = [s for s in spans if not s.run.startswith("pool-")]
        layers["obs.uncovered_frac"] = uncovered_frac(parent)
        out.tables.append(format_layer_table("cold sweep (pool workers summed)", spans))
    return out


# ----------------------------------------------------------------------
# serve-edit: a live server under a reader and a writer
# ----------------------------------------------------------------------


class Server:
    """One ``repro serve --tcp`` process, from spawn to listening."""

    def __init__(self, files: Sequence[Path], log: Path) -> None:
        self.log_path = log
        started = time.monotonic()
        with open(log, "w") as err:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0",
                 "--workers", str(SERVE_WORKERS), *map(str, files)],
                cwd=str(ROOT),
                env=program_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=err,
            )
        self.port = self._wait_listening(started)
        self.setup_s = time.monotonic() - started

    def _wait_listening(self, started: float) -> int:
        marker = "listening on "
        while time.monotonic() - started < 120.0:
            text = self.log_path.read_text()
            if marker in text:
                return int(text.split(marker, 1)[1].split()[0].rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError(f"server did not start: {self.log_path.read_text()[-300:]}")

    def client(self):
        from repro.serve import ServeClient

        return ServeClient.connect_tcp("127.0.0.1", self.port, timeout=60.0)

    def stop(self) -> None:
        if self.proc.poll() is None:
            try:
                with self.client() as client:
                    client.shutdown()
            except (OSError, RuntimeError, ValueError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def read_script(members: Sequence[str], cells: Sequence[str], cycle: int) -> List[Tuple[str, Dict]]:
    """One reader cycle: ``CYCLE_CELLS`` shared cells and one member's
    call graph and conflict rate (both rotating), then classification
    and an escape audit."""
    member = members[cycle % len(members)]
    first = cycle * CYCLE_CELLS
    picked = [cells[(first + k) % len(cells)] for k in range(min(CYCLE_CELLS, len(cells)))]
    return (
        [("points_to", {"var": cell}) for cell in picked]
        + [("callgraph", {"member": member}), ("conflict_rate", {"member": member})]
        + [("classify", {}), ("audit", {"client": "escape"})]
    )


def final_script(members: Sequence[str], cells: Sequence[str]) -> List[Tuple[str, Dict]]:
    """Every shared cell, ``SCRIPT_MEMBERS`` members' call graphs and
    conflict rates, classification and an escape audit."""
    step = max(1, len(members) // SCRIPT_MEMBERS)
    script = [("points_to", {"var": cell}) for cell in cells]
    for member in list(members)[::step][:SCRIPT_MEMBERS]:
        script += [("callgraph", {"member": member}), ("conflict_rate", {"member": member})]
    return script + [("classify", {}), ("audit", {"client": "escape"})]


def answers(client, script) -> List[str]:
    """Canonical bytes of each answer (errors included, never raised)."""
    out = []
    for method, params in script:
        response = client.request(method, params)
        body = response["result"] if response["ok"] else {"error": response["error"]}
        out.append(json.dumps(body, sort_keys=True, separators=(",", ":")))
    return out


def reference_answers(files: Dict[str, str], script) -> List[str]:
    """The read script against a cold in-process ``Project.open``."""
    from repro.analysis.api import DEFAULT_CONFIGURATION
    from repro.link import LinkOptions
    from repro.serve import AnalysisServer, InProcessClient, Project

    project = Project(DEFAULT_CONFIGURATION, LinkOptions())
    server = AnalysisServer(project)
    try:
        project.open(files)
        return answers(InProcessClient(server), script)
    finally:
        server.finish()


@dataclass
class Load:
    """What one closed-loop window recorded."""

    reads: List[Tuple[str, float, float]] = field(default_factory=list)  # method, start, end
    cycles: List[float] = field(default_factory=list)
    updates: List[Tuple[float, float]] = field(default_factory=list)
    requests: int = 0
    errors: List[str] = field(default_factory=list)
    constraint_runs: List[int] = field(default_factory=list)


def drive(server: Server, ctx: Context, specs: list, current: Dict[str, str],
          edit_base: int, tracer: Optional[Tracer], seconds: float) -> Load:
    """A reader and a writer connection for ``seconds``."""
    load = Load()
    members = list(current)
    cells = [c for s in specs for c in s.exported_ptr_globals]
    deadline = time.monotonic() + seconds

    def span(name: str):
        return tracer.span(name) if tracer is not None else nullcontext()

    def reader() -> None:
        with server.client() as client:
            cycle = 0
            while time.monotonic() < deadline:
                began = time.perf_counter()
                with span("serve.read_cycle"):
                    for method, params in read_script(members, cells, cycle):
                        with span(f"serve.{method}"):
                            start = time.perf_counter()
                            response = client.request(method, params)
                            end = time.perf_counter()
                        load.requests += 1
                        if not response["ok"]:
                            load.errors.append(f"{method}: {response['error']['code']}")
                        load.reads.append((method, start, end))
                load.cycles.append(time.perf_counter() - began)
                cycle += 1

    def writer() -> None:
        with server.client() as client:
            edit = edit_base
            while time.monotonic() < deadline:
                # Members in a fixed order, so every seed edits the same
                # members (with seeded new bodies) and update costs compare.
                spec = inputs.edited(specs[edit % len(specs)], ctx.seed, edit)
                name = inputs.file_name(spec)
                text = inputs.render(spec)
                with span("serve.update"):
                    start = time.perf_counter()
                    response = client.request("update", {"files": {name: text}})
                    end = time.perf_counter()
                load.requests += 1
                if response["ok"]:
                    current[name] = text
                    load.updates.append((start, end))
                    load.constraint_runs.append(
                        response["result"]["stages"]["constraints"]["runs"]
                    )
                else:
                    load.errors.append(f"update: {response['error']['code']}")
                edit += 1
                time.sleep(UPDATE_PAUSE_S)

    def guarded(body: Callable[[], None]) -> Callable[[], None]:
        # A client thread is a boundary: its failure is recorded as a
        # failed operation instead of dying silently.
        def target() -> None:
            try:
                body()
            except Exception as exc:  # noqa: BLE001
                load.errors.append(f"{body.__name__}: {type(exc).__name__}: {exc}")

        return target

    threads = [threading.Thread(target=guarded(reader)), threading.Thread(target=guarded(writer))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 120.0)
        if thread.is_alive():
            load.errors.append("client thread did not finish")
    return load


def check_serve(out: Outcome, served: Sequence[str], expected: Sequence[str],
                constraint_runs: Sequence[int]) -> None:
    """Oracle: every update re-ran exactly one member's constraints, and
    the final generation answers the read script byte-equal to a cold
    in-process open of the final sources."""
    for runs in constraint_runs:
        out.check(runs == 1, f"update re-ran {runs} members' constraints")
    for i, (got, want) in enumerate(zip(served, expected)):
        out.check(got == want, f"final answer {i} differs from a cold open")
    out.check(len(served) == len(expected), "final script answer count")


def serve_edit(ctx: Context) -> Outcome:
    out = Outcome()
    specs = inputs.program_specs(ctx.sizes.serve, ctx.seed, "serve-edit")
    paths = inputs.write_sources(ctx.work / "src", specs)
    current = {p.name: p.read_text() for p in paths}
    members = list(current)
    cells = [c for s in specs for c in s.exported_ptr_globals]

    setups = []
    for i in range(SERVE_SPAWNS - 1):
        server = Server(paths, ctx.work / f"serve-{i}.log")
        setups.append(server.setup_s)
        server.stop()
    server = Server(paths, ctx.work / "serve.log")
    setups.append(server.setup_s)
    try:
        # A traced run splits its span between an untraced window and a
        # traced one, so it takes no longer than an untraced run.
        window = ctx.seconds / 2 if ctx.trace else ctx.seconds
        load = drive(server, ctx, specs, current, 0, None, window)
        traced = None
        tracer = Tracer("serve-edit")
        if ctx.trace:
            traced = drive(server, ctx, specs, current, 10_000, tracer, window)
        with server.client() as client:
            status = client.call("status")
            served = answers(client, final_script(members, cells))
        peak = peak_rss_mb_of(server.proc.pid)
    finally:
        server.stop()

    for window in [load] + ([traced] if traced else []):
        out.attempted += window.requests
        out.failures.extend(window.errors)
    expected = reference_answers(dict(current), final_script(members, cells))
    constraint_runs = load.constraint_runs + (traced.constraint_runs if traced else [])
    check_serve(out, served, expected, constraint_runs)
    if not load.updates or not load.cycles:
        raise RuntimeError("serve window recorded no updates or cycles")

    out.end_to_end = {
        "wall_s": median([end - start for start, end in load.updates]),
        "warm_s": median(load.cycles),
        "setup_s": median(setups),
        "peak_rss_mb": peak,
    }
    out.shape.update(
        files=len(paths),
        bytes=sum(len(t.encode()) for t in current.values()),
        reads=len(load.reads),
        updates=len(load.updates),
        cycles=len(load.cycles),
        workers=SERVE_WORKERS,
        clients=2,
    )
    if traced is not None:
        layers = out.layers
        stats = serve_latencies(traced)
        layers.update(stats)
        memo = status["memo"]
        lookups = memo.get("hits", 0) + memo.get("misses", 0)
        layers["serve.memo_hit_rate"] = memo.get("hits", 0) / lookups if lookups else 0.0
        layers["serve.generations"] = status["generation"]
        layers["serve.update_constraints_runs"] = sum(traced.constraint_runs)
        spans = tracer.spans
        layers["obs.trace_overhead"] = median(traced.cycles) / median(load.cycles) - 1.0
        layers["obs.uncovered_frac"] = uncovered_frac(spans)
        out.tables.append(format_layer_table("traced serve window (client side)", spans))
    return out


def serve_latencies(load: Load) -> Dict[str, float]:
    """Client-side latencies of one window, by method."""
    by_method: Dict[str, List[float]] = {}
    for method, start, end in load.reads:
        by_method.setdefault(method, []).append(end - start)
    reads = by_method.get("points_to", [])
    window = max(end for _, _, end in load.reads) - min(start for _, start, _ in load.reads)
    during = sum(
        1
        for _, start, end in load.reads
        if any(start < u_end and end > u_start for u_start, u_end in load.updates)
    )
    out = {
        "serve.read_p50_ms": 1000 * median(reads),
        "serve.reads": len(reads),
        "serve.read_p90_ms": 1000 * percentile(reads, 90),
        "serve.read_qps": len(reads) / window,
        "serve.audit_p50_ms": 1000 * median(by_method.get("audit", [0.0])),
        "serve.update_p50_s": median([end - start for start, end in load.updates] or [0.0]),
        "serve.reads_during_update_frac": during / len(load.reads),
    }
    for method in ("points_to", "callgraph", "conflict_rate", "classify"):
        out[f"serve.{method}_p50_ms"] = 1000 * median(by_method.get(method, [0.0]))
    return out


WORKLOADS: Dict[str, Callable[[Context], Outcome]] = {
    "c-build": c_build,
    "corpus-sweep": corpus_sweep,
    "serve-edit": serve_edit,
}
