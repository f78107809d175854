"""One measured run of the program, in a fresh process.

Usage: ``python3 perfbench/worker.py '<job JSON>'``.  The orchestrator
(``run.py``) starts one worker per cold or warm run, so no in-process
memo or intern table carries over between runs.  The worker prints one
JSON line: its launch-to-ready time, the timed region's wall time, the
solution digest and whatever the job asked it to record.

With ``"trace": true`` the worker wraps the program's public layer
functions in spans before the timed region (see :func:`install_hooks`);
the program runs the same code path either way.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

_HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(_HERE))
sys.path.insert(0, str(_HERE.parent / "src"))

from harness import Tracer, peak_rss_mb_of  # noqa: E402

# Launch-to-ready covers the interpreter start and importing the program.
import repro.analysis.config  # noqa: E402,F401
import repro.driver  # noqa: E402,F401
import repro.pipeline  # noqa: E402,F401


def peak_rss_mb() -> float:
    """This process's high-water RSS (``VmHWM``, which, unlike
    ``ru_maxrss``, does not carry over the launching process's RSS)."""
    return peak_rss_mb_of(os.getpid())


def children_peak_rss_mb() -> float:
    """Largest ``ru_maxrss`` among the (forked) children waited for."""
    import resource

    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Span hooks around the program's public layer calls
# ----------------------------------------------------------------------


def _wrap(owner, attr: str, name: str, tracer: Tracer, on_result=None) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        func = raw.__func__

        def wrapped_cm(cls, *args, **kwargs):
            with tracer.span(name):
                return func(cls, *args, **kwargs)

        setattr(owner, attr, classmethod(wrapped_cm))
        return

    def wrapped(*args, **kwargs):
        with tracer.span(name) as label:
            result = raw(*args, **kwargs)
            if on_result is not None:
                on_result(label, result)
            return result

    wrapped.__module__ = getattr(raw, "__module__", None)
    wrapped.__qualname__ = getattr(raw, "__qualname__", attr)
    setattr(owner, attr, wrapped)


def install_hooks(tracer: Tracer, modules: list) -> None:
    """Wrap every public layer call the default user paths make.

    Functions are wrapped where their callers look them up: the
    pipeline's and the driver's module namespaces, and the frontend
    package namespace that ``compile_c`` resolves against.  ``modules``
    collects each lowered IR module so instructions can be counted
    after the timed region.
    """
    import repro.analysis.frontend as afront
    import repro.driver.tasks as dtasks
    import repro.frontend as front
    import repro.pipeline.stages as stages
    from repro.analysis.constraints import ConstraintProgram
    from repro.analysis.solution import Solution
    from repro.driver.cache import ResultCache
    from repro.link import LinkedProgram
    from repro.pipeline import Pipeline

    def keep_module(_label, module) -> None:
        modules.append(module)

    for namespace in (stages, front):
        _wrap(namespace, "preprocess", "frontend.preprocess", tracer)
        _wrap(namespace, "parse", "frontend.parse", tracer)
        _wrap(namespace, "analyse", "frontend.sema", tracer)
        _wrap(namespace, "lower", "frontend.lower", tracer, keep_module)
        _wrap(namespace, "verify_module", "ir.verify", tracer)
        _wrap(namespace, "compute_address_taken", "ir.verify", tracer)
    _wrap(stages, "build_constraints", "analysis.constraints", tracer)
    _wrap(afront, "build_constraints", "analysis.constraints", tracer)
    _wrap(stages, "link_programs", "link.link", tracer)
    _wrap(stages, "prepare_program", "analysis.solve", tracer)
    for namespace in (stages, dtasks):
        _wrap(namespace, "solve_prepared", "analysis.solve", tracer)
    _wrap(Solution, "to_canonical_dict", "analysis.canonical", tracer)
    _wrap(Solution, "from_canonical_dict", "analysis.attach", tracer)
    _wrap(Solution, "named_canonical_digest", "analysis.digest", tracer)
    _wrap(ConstraintProgram, "digest", "pipeline.program_digest", tracer)
    _wrap(ConstraintProgram, "from_dict", "pipeline.decode", tracer)
    _wrap(LinkedProgram, "from_dict", "pipeline.decode", tracer)
    _wrap(ResultCache, "load_stage", "pipeline.cache_load", tracer)
    _wrap(ResultCache, "store_stage", "pipeline.cache_store", tracer)
    _wrap(ResultCache, "load", "driver.cache_load", tracer)
    _wrap(ResultCache, "store", "driver.cache_store", tracer)

    def settle(stage: str):
        def on_result(label, artifact) -> None:
            if artifact.from_cache:
                label["name"] = f"pipeline.{stage}_hit"

        return on_result

    for stage in ("constraints", "link", "solve"):
        _wrap(Pipeline, stage, f"pipeline.{stage}", tracer, settle(stage))


def install_pool_task_hook(tracer: Tracer, span_dir: Path) -> None:
    """Record each pool task as a span and flush the worker's spans.

    Pool workers inherit the wrapped functions when forked; the task
    wrapper appends their spans to a per-process file after each task,
    since pool workers are terminated rather than shut down.
    """
    import repro.driver.pool as dpool
    import repro.driver.tasks as dtasks

    execute = dtasks.execute_task
    parent_pid = os.getpid()

    def execute_task(task, context=None):
        if tracer.run != f"pool-{os.getpid()}" and os.getpid() != parent_pid:
            # First task in a forked worker: drop the spans (and open
            # span stack) inherited from the parent.
            tracer.reset(f"pool-{os.getpid()}")
        with tracer.span("driver.task"):
            result = execute(task, context)
        with open(span_dir / f"spans-{os.getpid()}.jsonl", "a") as out:
            for span in tracer.spans:
                out.write(json.dumps(span.to_list()) + "\n")
        tracer.spans.clear()
        return result

    execute_task.__module__ = execute.__module__
    execute_task.__qualname__ = execute.__qualname__
    dtasks.execute_task = execute_task
    dpool.execute_task = execute_task


def count_instructions(modules: list) -> int:
    return sum(
        len(block.instructions)
        for module in modules
        for fn in module.defined_functions()
        for block in fn.blocks
    )


def lex_pass(paths: list) -> dict:
    """Standalone tokenize over the preprocessed sources (untimed run)."""
    # The modules' own functions, not the traced wrappers: this pass
    # runs after the traced region and must not add layer spans.
    from repro.frontend.lexer import tokenize
    from repro.frontend.preproc import preprocess

    texts = [preprocess(Path(p).read_text(), filename=Path(p).name) for p in paths]
    start = time.perf_counter()
    tokens = sum(len(tokenize(text)) for text in texts)
    return {"lex_s": time.perf_counter() - start, "tokens": tokens}


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------


def interchange_pass(program) -> dict:
    """Export the linked program as LIR text and import it back (after
    the traced region, through the modules' own functions)."""
    from repro.interchange.export import export_constraint_text
    from repro.interchange.importer import parse_constraint_text

    text = export_constraint_text(program)
    start = time.perf_counter()
    parse_constraint_text(text, "program.lir")
    return {"import_s": time.perf_counter() - start, "lir_bytes": len(text.encode())}


def build(job: dict, tracer: Tracer, ready_s: float) -> dict:
    """C sources → solution digest through the ``repro link`` sequence."""
    from repro.analysis.config import parse_name
    from repro.driver import ResultCache
    from repro.link import LinkOptions
    from repro.pipeline import Pipeline

    config = parse_name(job["config"])
    modules: list = []
    if job["trace"]:
        install_hooks(tracer, modules)
    with tracer.span("run"):
        start = time.perf_counter()
        pipeline = Pipeline(cache=ResultCache(job["cache_dir"]))
        sources = [
            pipeline.source(Path(f).name, Path(f).read_text()) for f in job["files"]
        ]
        members = [pipeline.constraints(src) for src in sources]
        program = pipeline.link(members, LinkOptions()).linked.program
        solve_art = pipeline.solve(program, config)
        solution = solve_art.attach(program)
        digest = solution.named_canonical_digest()
        wall_s = time.perf_counter() - start
    stats = solve_art.solution["stats"]
    out = {
        "ready_s": ready_s,
        "wall_s": wall_s,
        "digest": digest,
        "peak_rss_mb": peak_rss_mb(),
        "stages": pipeline.stage_report(timings=False),
        "shape": {
            "files": len(sources),
            "bytes": sum(len(src.text.encode()) for src in sources),
            "vars": program.num_vars,
            "constraints": program.num_constraints(),
        },
        "stats": stats,
        "pointers": len(solution.pointers()),
    }
    if job["trace"]:
        out["spans"] = [span.to_list() for span in tracer.spans]
        out["instructions"] = count_instructions(modules)
        if modules:  # a cold run: the frontend ran
            out.update(lex_pass(job["files"]))
            out.update(interchange_pass(program))
    return out


def sweep(job: dict, tracer: Tracer, ready_s: float) -> dict:
    """Standalone files × configurations through the driver's pool."""
    from repro.driver import ResultCache, SolveTask, solve_tasks, source_digest
    from repro.obs import Registry

    registry = None
    span_dir = Path(job["cache_dir"]).parent / "pool-spans"
    if job["trace"]:
        install_hooks(tracer, [])
        span_dir.mkdir(parents=True, exist_ok=True)
        install_pool_task_hook(tracer, span_dir)
        registry = Registry()
    with tracer.span("run"):
        start = time.perf_counter()
        tasks = []
        for path in job["files"]:
            text = Path(path).read_text()
            digest = source_digest(text)
            for config in job["configs"]:
                tasks.append(
                    SolveTask(
                        index=len(tasks),
                        file_name=Path(path).name,
                        source_hash=digest,
                        config_name=config,
                        source=text,
                        repetitions=1,
                        timing="cost",
                    )
                )
        cache = ResultCache(job["cache_dir"])
        with tracer.span("driver.solve_tasks"):
            results, stats = solve_tasks(
                tasks, jobs=job["jobs"], cache=cache, registry=registry
            )
        wall_s = time.perf_counter() - start
    Path(job["out"]).write_text(
        json.dumps(
            [[r.index, r.file_name, r.config_name, r.solution] for r in results],
            sort_keys=True,
            separators=(",", ":"),
        )
    )
    out = {
        "ready_s": ready_s,
        "wall_s": wall_s,
        "peak_rss_mb": max(peak_rss_mb(), children_peak_rss_mb()),
        "driver": stats.to_dict(),
        "shape": {
            "files": len(job["files"]),
            "tasks": len(tasks),
            "bytes": sum(Path(p).stat().st_size for p in job["files"]),
        },
    }
    if job["trace"]:
        spans = [span.to_list() for span in tracer.spans]
        for path in sorted(span_dir.glob("spans-*.jsonl")):
            spans.extend(json.loads(line) for line in path.read_text().splitlines())
        out["spans"] = spans
        out["metrics"] = registry.to_dict()
    return out


JOBS = {"build": build, "sweep": sweep}


def main(argv: list) -> int:
    job = json.loads(argv[0])
    ready_s = time.monotonic() - job["spawned_at"]
    tracer = Tracer(run=f"{job['kind']}-{job.get('phase', '')}")
    result = JOBS[job["kind"]](job, tracer, ready_s)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
