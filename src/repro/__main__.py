"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile FILE``
    Compile a C file and print the textual IR.
``analyze FILE``
    Run the points-to analysis; print points-to sets and the escape
    report.  ``--config`` picks a solver configuration by name,
    ``--dump-constraints`` shows the phase-1 constraint program.
``sweep FILE``
    Solve one file under several configurations and report runtimes and
    explicit-pointee counts (validating identical solutions).
``link FILE...``
    Run the staged pipeline over several translation units, link their
    constraint programs cross-TU, and solve the joint program.  C and
    ``.lir`` members mix freely.  ``--ladder`` additionally reports the
    k-of-N prefix ladder, ``--cache`` memoises every stage artifact on
    disk, and ``--out`` writes the full report (link summary, solution,
    per-stage timings and cache counters) as JSON.
``serve [FILE...]``
    The persistent analysis server (``repro.serve``): builds the files
    into a linked project and answers NDJSON protocol requests over
    stdio (default) or ``--tcp HOST:PORT``.
``query FILE... -q REQUEST``
    One-shot queries against an in-process server — answers are
    byte-identical to a served session over the same sources.
``run ...``
    The corpus experiment runner (``repro.bench.runner``); all its
    arguments pass through, e.g. ``repro run --jobs 4 --profile``.
``constraints export FILE...``
    Export C and ``.lir`` sources as canonical LIR constraint text
    (``repro.interchange``): one file exports its TU constraint
    program, several export the linked joint program (``--shards``/
    ``--jobs`` run the sharded link).
``constraints solve FILE...``
    Solve constraint-text files directly — the second front door that
    bypasses the C frontend.  ``--config``, ``--backend`` and ``--jobs``
    pass through to the existing solver stack.
``audit CLIENT FILE...``
    Run one scenario audit client (``escape``, ``races``, ``dangling``,
    ``calls``) over the linked+solved program; C and ``.lir`` members
    mix freely.  ``--format json``/``--out`` emit the canonical report,
    ``--evidence`` prints each finding's justification chain, and
    ``--cache`` memoises the report keyed on (solution digest, client,
    canonical params).
``configs``
    List all valid solver configurations.

Every command that links (``link``, ``audit``, multi-file
``constraints export``) goes through one front door,
:meth:`repro.pipeline.Pipeline.link_sources`; ``--shards K`` (C members
only) selects its sharded path.

``sweep``, ``link``, ``audit``, ``constraints``, ``serve``, ``query``
and ``run`` accept ``--profile`` (collect obs metrics) and
``--trace-out FILE`` (JSONL trace events; implies ``--profile``).
Profiling never changes solutions or cache contents, and a run that
fails leaves no trace file.  Caching commands accept
``--cache-max-entries N`` to bound each on-disk cache namespace with
LRU eviction.

Frontend failures (preprocessor, parse, sema, lowering) exit 1 with a
one-line ``file:line: message`` diagnostic instead of a traceback, as do
link errors (one ``link error:`` line each).
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import sys
from typing import List, Optional

from . import __version__
from .analysis import (
    DEFAULT_CONFIGURATION,
    ConfigurationError,
    analyze_module,
    build_constraints,
    enumerate_configurations,
    parse_name,
)
from .driver.cache import cache_from_args, write_text_atomic
from .frontend import FRONTEND_ERRORS, compile_c, describe_error
from .ir import print_module
from .link import LinkError, LinkOptions

# ----------------------------------------------------------------------
# Plumbing shared by the commands
# ----------------------------------------------------------------------


def _config(args, pts: bool = True):
    """The ``--config`` configuration (the default when absent), with
    ``--pts-backend`` applied when ``pts`` and the command has one."""
    config = parse_name(args.config) if args.config else DEFAULT_CONFIGURATION
    backend = getattr(args, "pts_backend", None) if pts else None
    return dataclasses.replace(config, pts=backend) if backend else config


def _link_options(args) -> LinkOptions:
    keep = tuple(args.keep.split(",")) if args.keep else ("main",)
    return LinkOptions(internalize=args.internalize, keep=keep)


def _sources(pipeline, files) -> list:
    """CLI FILE arguments → pipeline source artifacts in link order."""
    return [
        pipeline.source(pathlib.Path(f).name, pathlib.Path(f).read_text())
        for f in files
    ]


def _print_points_to(program, solution) -> None:
    for p in solution.pointers():
        targets = solution.points_to(p)
        if targets:
            names = sorted(map(str, solution.names(targets)))
            print(f"  Sol({program.var_names[p]}) = {{{', '.join(names)}}}")


def _print_external(solution) -> None:
    print("\nexternally accessible:")
    for name in sorted(map(str, solution.names(solution.external))):
        print(f"  {name}")


def _load_module(path: str, headers_dir: Optional[str]):
    headers = {}
    if headers_dir:
        for header in pathlib.Path(headers_dir).glob("*.h"):
            headers[header.name] = header.read_text()
    path = pathlib.Path(path)
    return compile_c(path.read_text(), path.name, headers=headers)


# ----------------------------------------------------------------------
# Commands.  ``main`` sets ``args.registry``/``args.trace`` (None unless
# profiling) and turns library errors into diagnostics and exit codes.
# ----------------------------------------------------------------------


def cmd_compile(args) -> int:
    module = _load_module(args.file, args.include)
    print(print_module(module))
    return 0


def cmd_analyze(args) -> int:
    module = _load_module(args.file, args.include)
    config = _config(args)
    result = analyze_module(module, config)
    program = result.built.program
    solution = result.solution
    if args.dump_constraints:
        print(program.dump())
        print()
    print(f"; {program.num_vars} constraint variables,"
          f" {program.num_constraints()} constraints,"
          f" configuration {config.name}")
    _print_external(solution)
    print("\npoints-to sets:")
    _print_points_to(program, solution)
    return 0


def cmd_sweep(args) -> int:
    from .driver import (
        SolveTask,
        solve_tasks,
        source_digest,
        validate_agreement,
    )

    path = pathlib.Path(args.file)
    source = path.read_text()
    names = args.configs or [
        "EP+Naive",
        "EP+OVS+WL(LRF)+OCD",
        "IP+WL(FIFO)",
        "IP+WL(FIFO)+LCD+DP",
        "IP+WL(FIFO)+PIP",
    ]
    if args.include and (args.jobs > 1 or args.cache):
        # Worker tasks carry only the raw source, and the cache key is
        # its content hash — neither sees --include headers, so header
        # changes would go unnoticed.  Stay serial and uncached.
        print("note: --include forces --jobs 1 --no-cache", file=sys.stderr)
        args.jobs, args.cache = 1, False
    digest = source_digest(source)
    tasks = [
        SolveTask(
            index=i,
            file_name=path.name,
            source_hash=digest,
            config_name=name,
            source=source,
            pts_backend=args.pts_backend,
            repetitions=1,
        )
        for i, name in enumerate(names)
    ]
    programs = None
    if args.jobs <= 1:
        # Reuse the richer header-aware front end for the local path;
        # workers build the raw source through the pipeline.
        module = _load_module(args.file, args.include)
        programs = {digest: build_constraints(module).program}
    registry, trace = args.registry, args.trace
    results, stats = solve_tasks(
        tasks,
        jobs=args.jobs,
        cache=cache_from_args(args),
        programs=programs,
        registry=registry,
        trace=trace,
    )
    if trace is not None:
        trace.emit("metrics", "sweep", registry.to_dict())
    print(f"{'configuration':>24}  {'time':>10}  {'explicit pointees':>18}")
    for result in results:
        pointees = result.explicit_pointees
        print(f"{result.config_name:>24}  {1000 * result.runtime_s:8.2f}ms"
              f"  {pointees:18,d}")
    validate_agreement(results)
    print("\nall configurations produced the identical solution")
    if args.cache or args.jobs > 1:
        print(stats)
    if registry is not None:
        print(
            f"profile: {registry.counter('solver.solves')} solves,"
            f" {registry.counter('solver.visits')} visits,"
            f" {registry.counter('solver.propagations')} propagations,"
            f" {registry.counter('solver.pair_evals')} pair evals"
        )
    return 0


def cmd_link(args) -> int:
    import json

    from .bench.ladder import format_table, ladder_over_members
    from .pipeline import Pipeline

    config = _config(args)
    options = _link_options(args)
    cache = cache_from_args(args)
    registry, trace = args.registry, args.trace
    pipeline = Pipeline(cache=cache, registry=registry)
    sources = _sources(pipeline, args.files)
    link_art = pipeline.link_sources(
        sources, options, shards=args.shards, jobs=args.jobs, trace=trace
    )
    linked = link_art.linked
    shard_stats = link_art.shard_stats
    members = None
    if args.ladder:
        members = link_art.members or [pipeline.member(s) for s in sources]
    solve_art = pipeline.solve(linked.program, config)
    solution = solve_art.attach(linked.program)
    if trace is not None:
        trace.emit("link", "+".join(src.name for src in sources),
                   linked.summary())
        for stage, stage_stats in pipeline.stage_report(timings=True).items():
            trace.emit("stage", stage, stage_stats)
        trace.emit("metrics", "link", registry.to_dict())

    summary = linked.summary()
    print(f"; linked {len(sources)} modules:"
          f" {summary['joint_vars']} constraint variables,"
          f" {summary['joint_constraints']} constraints,"
          f" configuration {config.name}")
    if shard_stats is not None:
        print(f"; sharded: {shard_stats.occupied} shards"
              f" (of {shard_stats.shards} slots),"
              f" {shard_stats.rounds} merge rounds,"
              f" link runs/hits {shard_stats.link_runs}/{shard_stats.link_hits},"
              f" merge runs/hits"
              f" {shard_stats.merge_runs}/{shard_stats.merge_hits}")
    resolved = linked.resolved_imports()
    unresolved = linked.unresolved_imports()
    print(f"; {len(resolved)} imports resolved across modules,"
          f" {len(unresolved)} still external")
    if resolved:
        print("\nresolved cross-module:")
        for name in resolved:
            res = linked.resolutions[name]
            refs = ", ".join(res.referenced_by)
            print(f"  {name}: defined in {res.defined_in},"
                  f" imported by {refs}")
    if unresolved:
        print("\nstill external (feed Ω):")
        for name in unresolved:
            print(f"  {name}")
    _print_external(solution)
    if args.show_solution:
        print("\npoints-to sets:")
        _print_points_to(linked.program, solution)

    ladder_rungs = None
    if args.ladder:
        if options.internalize:
            print("note: ladder always links prefixes in open mode",
                  file=sys.stderr)
        ladder_rungs = ladder_over_members(pipeline, members, config)
        print("\nprefix ladder:")
        print(format_table({"rungs": ladder_rungs}))

    if args.out is not None:
        report = {
            "schema": 1,
            "files": [src.name for src in sources],
            "config": config.name,
            "options": options.to_dict(),
            "link": summary,
            "resolved_imports": resolved,
            "unresolved_imports": unresolved,
            "solution": solution.to_named_canonical(),
            "stages": pipeline.stage_report(timings=True),
        }
        if shard_stats is not None:
            report["shard"] = shard_stats.to_dict()
        if registry is not None:
            report["metrics"] = registry.to_dict()
        if cache is not None:
            report["cache"] = {
                stage: stats.to_dict()
                for stage, stats in sorted(cache.stage_stats.items())
            }
        if ladder_rungs is not None:
            report["ladder"] = ladder_rungs
        write_text_atomic(
            args.out, json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"\nwrote {args.out}")
    return 0


def cmd_audit(args) -> int:
    import json

    from .audit import (
        AuditError,
        audit_names,
        build_audit_context,
        render_report_evidence,
        render_report_table,
    )
    from .pipeline import Pipeline

    config = _config(args)
    options = _link_options(args)
    cache = cache_from_args(args)
    if args.client not in audit_names():
        print(
            f"repro: error: unknown audit client {args.client!r}"
            f" (clients: {audit_names()})",
            file=sys.stderr,
        )
        return 2
    registry, trace = args.registry, args.trace
    pipeline = Pipeline(cache=cache, registry=registry)
    sources = _sources(pipeline, args.files)
    link_art = pipeline.link_sources(
        sources,
        options,
        shards=args.shards,
        jobs=args.jobs,
        trace=trace,
        member_maps=True,
    )
    linked = link_art.linked
    solution = pipeline.solve(linked.program, config).attach(linked.program)

    # Constraint-tier clients cover every member; IR-tier clients see
    # only the C members.
    ir_sources = [s for s in sources if not s.name.endswith(".lir")]
    context = build_audit_context(
        pipeline, ir_sources, linked, solution,
        var_maps=link_art.member_var_maps,
    )
    params = {}
    if args.oracle is not None:
        params["oracle"] = args.oracle
    if args.roots is not None:
        params["roots"] = [r for r in args.roots.split(",") if r]
    if args.heap_prefix is not None:
        params["heap_prefix"] = args.heap_prefix
    if args.frees is not None:
        params["frees"] = [f for f in args.frees.split(",") if f]
    if args.include_bounded is not None:
        params["include_bounded"] = args.include_bounded
    try:
        audit_art = pipeline.audit(
            context, args.client, params, solution.named_canonical_digest()
        )
    except AuditError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    report = audit_art.report
    if trace is not None:
        trace.emit("audit", args.client, report["counts"])
        trace.emit("metrics", "audit", registry.to_dict())

    if args.format == "json":
        sys.stdout.write(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
    else:
        sys.stdout.write(render_report_table(report))
        if args.evidence and report["findings"]:
            sys.stdout.write("\nevidence:\n")
            sys.stdout.write(render_report_evidence(report))
    if args.out is not None:
        write_text_atomic(
            args.out, json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")
    return 0


def cmd_constraints_export(args) -> int:
    from .interchange import export_constraint_text
    from .pipeline import Pipeline

    pipeline = Pipeline(cache=cache_from_args(args), registry=args.registry)
    sources = _sources(pipeline, args.files)
    if len(sources) == 1:
        # One file exports its TU constraint program, pre-link: no
        # linkage escapes, no cross-module resolution.
        program = pipeline.member(sources[0]).program
    else:
        program = pipeline.link_sources(
            sources,
            _link_options(args),
            shards=args.shards,
            jobs=args.jobs,
            trace=args.trace,
        ).linked.program
    text = export_constraint_text(program)
    if args.trace is not None:
        args.trace.emit(
            "metrics", "constraints-export", args.registry.to_dict()
        )
    if args.out is not None:
        write_text_atomic(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_constraints_solve(args) -> int:
    import json

    from .analysis.solution import Solution
    from .driver import SolveTask, solve_tasks, source_digest
    from .interchange import parse_constraint_text

    # The tasks apply --pts-backend themselves; report the base name.
    config = _config(args, pts=False)
    tasks = []
    programs = {}
    for i, f in enumerate(args.files):
        path = pathlib.Path(f)
        text = path.read_text()
        digest = source_digest(text)
        if digest not in programs:
            # Parse in the main process even when solving on workers:
            # malformed text diagnoses here, file name attached, before
            # any pool spins up.
            programs[digest] = parse_constraint_text(text, path.name)
        tasks.append(
            SolveTask(
                index=i,
                file_name=path.name,
                source_hash=digest,
                config_name=config.name,
                source=text,
                pts_backend=args.pts_backend,
                repetitions=1,
                source_kind="lir",
            )
        )
    registry, trace = args.registry, args.trace
    results, stats = solve_tasks(
        tasks,
        jobs=args.jobs,
        cache=cache_from_args(args),
        programs=programs,
        registry=registry,
        trace=trace,
    )
    if trace is not None:
        trace.emit("metrics", "constraints-solve", registry.to_dict())
    entries = []
    for result in results:
        program = programs[tasks[result.index].source_hash]
        solution = Solution.from_canonical_dict(result.solution, program)
        digest = solution.named_canonical_digest()
        print(f"{result.file_name}: {program.num_vars} constraint"
              f" variables, {program.num_constraints()} constraints,"
              f" solution {digest[:12]}")
        external = sorted(map(str, solution.names(solution.external)))
        print(f"  externally accessible: {', '.join(external) or '(none)'}")
        if args.show_solution:
            _print_points_to(program, solution)
        entries.append(
            {
                "file": result.file_name,
                "config": result.config_name,
                "solution_digest": digest,
                "solution": solution.to_named_canonical(),
            }
        )
    if args.cache or args.jobs > 1:
        print(stats)
    if args.out is not None:
        report = {"schema": 1, "config": config.name, "results": entries}
        if registry is not None:
            report["metrics"] = registry.to_dict()
        write_text_atomic(
            args.out, json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.out}")
    return 0


def _read_project_files(paths) -> dict:
    """CLI FILE arguments → {member name: source text} in link order."""
    return {
        pathlib.Path(f).name: pathlib.Path(f).read_text() for f in paths
    }


def _serve_components(args):
    """(project, server) shared by ``serve`` and ``query``."""
    from .serve import DEFAULT_MAX_REQUEST_BYTES, AnalysisServer, Project

    project = Project(
        _config(args),
        _link_options(args),
        cache=cache_from_args(args),
        registry=args.registry,
    )
    server = AnalysisServer(
        project,
        timeout=args.timeout,
        max_request_bytes=(
            args.max_request_bytes
            if args.max_request_bytes is not None
            else DEFAULT_MAX_REQUEST_BYTES
        ),
        memo_entries=args.memo_entries,
        registry=args.registry,
        trace=args.trace,
        workers=getattr(args, "workers", 1),
        state_dir=getattr(args, "state_dir", None),
    )
    return project, server


def cmd_serve(args) -> int:
    from .serve import serve_stdio, serve_tcp

    project, server = _serve_components(args)
    if args.files:
        # Address the fleet's default project (a --state-dir restore
        # may have replaced the one _serve_components built), and
        # persist the startup generation like any other commit.
        from .serve import DEFAULT_PROJECT

        state = server._state(DEFAULT_PROJECT)
        with state.write_lock:
            state.project.open(_read_project_files(args.files))
            server._persist(state)
    if args.tcp is not None:
        host, _, port_text = args.tcp.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            print(
                f"repro: error: bad --tcp address {args.tcp!r}"
                " (expected HOST:PORT)",
                file=sys.stderr,
            )
            return 2

        def ready(bound_host: str, bound_port: int) -> None:
            # The banner goes to stderr: on --stdio, stdout *is*
            # the protocol stream, and tcp keeps the convention.
            print(
                f"repro serve: listening on {bound_host}:{bound_port}",
                file=sys.stderr,
                flush=True,
            )

        return serve_tcp(server, host or "127.0.0.1", port, ready=ready)
    return serve_stdio(server)


def cmd_query(args) -> int:
    import json

    from .serve import InProcessClient, encode_frame

    project, server = _serve_components(args)
    client = InProcessClient(server)
    failures = 0
    try:
        project.open(_read_project_files(args.files))
        for raw in args.query:
            raw = raw.strip()
            if raw.startswith("{"):
                try:
                    obj = json.loads(raw)
                except json.JSONDecodeError as exc:
                    print(
                        f"repro: error: bad --query JSON: {exc}",
                        file=sys.stderr,
                    )
                    return 2
                if not isinstance(obj, dict) or "method" not in obj:
                    print(
                        "repro: error: --query object needs a 'method' key",
                        file=sys.stderr,
                    )
                    return 2
                method = obj["method"]
                params = obj.get("params", {})
            else:
                method, params = raw, {}
            response = client.request(method, params)
            # Re-encode canonically: the printed line is byte-identical
            # to what a served session would have written.
            print(encode_frame(response))
            if not response["ok"]:
                failures += 1
    finally:
        server.finish()
    return 1 if failures else 0


def cmd_configs(args) -> int:
    configs = enumerate_configurations()
    for config in configs:
        print(config.name)
    print(f"\n{len(configs)} valid configurations", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}"
        )
    return value


def _add_config_options(
    p, config: bool = True, pts: bool = True, pts_aliases=()
) -> None:
    if config:
        p.add_argument("--config", default=None, help="e.g. IP+WL(FIFO)+PIP")
    if pts:
        aliases = "".join(f" ({a} is an alias)" for a in pts_aliases)
        p.add_argument(
            "--pts-backend",
            *pts_aliases,
            dest="pts_backend",
            choices=("set", "bitset"),
            default=None,
            help="points-to-set representation (default: the"
            f" configuration's, i.e. set){aliases}",
        )


def _add_link_options(p, sharded: bool = True) -> None:
    p.add_argument(
        "--internalize",
        action="store_true",
        help="treat the link set as the whole program (LTO-style):"
        " exported definitions outside --keep lose their linkage escape",
    )
    p.add_argument(
        "--keep", default=None,
        help="comma-separated symbols kept external under --internalize"
        " (default: main)",
    )
    if sharded:
        p.add_argument(
            "--shards", type=_positive_int, default=None, metavar="K",
            help="link through K hash-assigned shards and a hierarchical"
            " merge tree (C members only; byte-identical named solutions"
            " to the flat link)",
        )
        p.add_argument(
            "--jobs", type=int, default=1, metavar="N",
            help="worker processes for the sharded path (with --shards)",
        )


def _add_out_option(p, help: str) -> None:
    p.add_argument("--out", type=pathlib.Path, default=None, help=help)


def _add_cache_options(p, what: str) -> None:
    p.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help=f"memoise {what} under --cache-dir",
    )
    p.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=pathlib.Path(".repro-cache"),
    )
    p.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="bound each cache namespace to N entries (LRU eviction;"
        " default: unbounded)",
    )


def _add_obs_options(p) -> None:
    p.add_argument(
        "--profile", action="store_true",
        help="collect obs metrics (counters/timers) for this run",
    )
    p.add_argument(
        "--trace-out", type=pathlib.Path, default=None,
        help="write JSONL trace events here (implies --profile; a"
        " failed run leaves no file)",
    )


def _add_serve_options(p) -> None:
    _add_config_options(p, pts=False)
    _add_link_options(p, sharded=False)
    p.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-request deadline (an expired request answers a"
        " structured 'timeout' error; default: none)",
    )
    p.add_argument(
        "--max-request-bytes", type=int, default=None, metavar="N",
        help="reject request lines longer than N bytes"
        " (default: 1 MiB)",
    )
    p.add_argument(
        "--memo-max-entries", "--memo-entries", dest="memo_entries",
        type=int, default=1024, metavar="N",
        help="per-project query-memo capacity, shared across"
        " generations (--memo-entries is the old spelling)",
    )
    _add_cache_options(p, "pipeline stage artifacts")
    _add_obs_options(p)
    # stdout carries protocol frames: the trace note goes to stderr
    p.set_defaults(stdout_is_data=True)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile C to textual IR")
    p.add_argument("file")
    p.add_argument("--include", help="directory of headers", default=None)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("analyze", help="run the points-to analysis")
    p.add_argument("file")
    p.add_argument("--include", default=None)
    _add_config_options(p)
    p.add_argument("--dump-constraints", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="compare solver configurations")
    p.add_argument("file")
    p.add_argument("--include", default=None)
    _add_config_options(p, config=False)
    p.add_argument(
        "--jobs", type=int, default=1,
        help="solve configurations on N worker processes",
    )
    _add_cache_options(p, "solved results")
    _add_obs_options(p)
    p.add_argument("configs", nargs="*", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "link", help="link several translation units and solve jointly"
    )
    p.add_argument(
        "files", nargs="+", metavar="FILE",
        help="C translation units and/or .lir constraint-text files",
    )
    _add_config_options(p, pts=False)
    _add_link_options(p)
    p.add_argument(
        "--ladder",
        action="store_true",
        help="also solve every TU prefix and report the Ω-shrinkage ladder",
    )
    p.add_argument("--show-solution", action="store_true")
    _add_cache_options(p, "stage artifacts")
    _add_out_option(p, "write the full report JSON here")
    _add_obs_options(p)
    p.set_defaults(func=cmd_link)

    p = sub.add_parser(
        "audit",
        help="run a scenario audit client (escape, races, dangling,"
        " calls) over the solved program",
    )
    p.add_argument(
        "client",
        metavar="CLIENT",
        help="audit client name: escape | races | dangling | calls",
    )
    p.add_argument(
        "files", nargs="+", metavar="FILE",
        help="C translation units and/or .lir constraint-text files",
    )
    _add_config_options(p)
    p.add_argument(
        "--oracle",
        choices=("andersen", "basicaa", "combined"),
        default=None,
        help="alias oracle answering client queries (default: combined)",
    )
    p.add_argument(
        "--roots", default=None, metavar="FN[,FN...]",
        help="races: override thread-entry detection with these"
        " defined functions",
    )
    p.add_argument(
        "--heap-prefix", default=None, metavar="PREFIX",
        help="escape: heap-site name prefix (default: heap.)",
    )
    p.add_argument(
        "--frees", default=None, metavar="FN[,FN...]",
        help="dangling: deallocator function names (default: free)",
    )
    p.add_argument(
        "--include-bounded",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="calls: also report bounded call sites (default: yes)",
    )
    _add_link_options(p)
    p.add_argument(
        "--format",
        choices=("table", "json"),
        default="table",
        help="stdout rendering (default: table)",
    )
    p.add_argument(
        "--evidence",
        action="store_true",
        help="also print each finding's evidence chain (table format)",
    )
    _add_out_option(p, "write the canonical report JSON here")
    _add_cache_options(p, "stage artifacts and audit reports")
    _add_obs_options(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "constraints",
        help="LIR constraint-text interchange: export C programs as"
        " text, solve text directly",
    )
    csub = p.add_subparsers(dest="subcommand", required=True)

    pe = csub.add_parser(
        "export",
        help="compile C (or .lir) sources and print the canonical"
        " constraint text",
    )
    pe.add_argument("files", nargs="+", metavar="FILE")
    _add_link_options(pe)
    _add_out_option(pe, "write the constraint text here (default: stdout)")
    _add_cache_options(pe, "stage artifacts")
    _add_obs_options(pe)
    pe.set_defaults(func=cmd_constraints_export, stdout_is_data=True)

    ps = csub.add_parser(
        "solve",
        help="solve constraint-text files directly (no C frontend)",
    )
    ps.add_argument("files", nargs="+", metavar="FILE")
    _add_config_options(ps, pts_aliases=("--backend",))
    ps.add_argument(
        "--jobs", type=int, default=1,
        help="solve files on N worker processes",
    )
    ps.add_argument("--show-solution", action="store_true")
    _add_out_option(
        ps, "write a JSON report (named canonical solutions) here"
    )
    _add_cache_options(ps, "solved results")
    _add_obs_options(ps)
    ps.set_defaults(func=cmd_constraints_solve)

    p = sub.add_parser(
        "serve",
        help="persistent analysis server speaking NDJSON over"
        " stdio or TCP",
    )
    p.add_argument(
        "files", nargs="*", metavar="FILE",
        help="sources to open at startup, in link order"
        " (a client can also send an 'open' request)",
    )
    transport = p.add_mutually_exclusive_group()
    transport.add_argument(
        "--stdio", action="store_true",
        help="serve requests from stdin, one response line each (default)",
    )
    transport.add_argument(
        "--tcp", default=None, metavar="HOST:PORT",
        help="serve TCP connections; PORT 0 binds an ephemeral port"
        " (the bound address is printed to stderr)",
    )
    p.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="concurrent query workers; 1 (default) keeps the"
        " sequential one-connection-at-a-time behaviour, more turns"
        " --tcp into a thread-per-connection fleet",
    )
    p.add_argument(
        "--state-dir", type=pathlib.Path, default=None, metavar="DIR",
        help="persist every committed generation here and warm-start"
        " from it on restart (digest-validated)",
    )
    _add_serve_options(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "query",
        help="one-shot queries against an in-process analysis server",
    )
    p.add_argument("files", nargs="+", metavar="FILE")
    p.add_argument(
        "-q", "--query", action="append", required=True, metavar="REQUEST",
        help="a method name (e.g. 'classify') or a JSON object"
        ' {"method": ..., "params": {...}}; repeatable, answered in order',
    )
    _add_serve_options(p)
    p.set_defaults(func=cmd_query)

    # ``run`` and ``shardbench`` never reach argparse (main forwards
    # them first); their entries keep them in --help.
    p = sub.add_parser(
        "run",
        help="corpus experiment runner (repro.bench.runner pass-through)",
    )
    p.add_argument(
        "args", nargs=argparse.REMAINDER,
        help="arguments for repro.bench.runner (see its --help)",
    )
    p = sub.add_parser(
        "shardbench",
        help="sharded-link scaling benchmark"
        " (repro.bench.shardbench pass-through)",
    )
    p.add_argument(
        "args", nargs=argparse.REMAINDER,
        help="arguments for repro.bench.shardbench (see its --help)",
    )

    p = sub.add_parser("configs", help="list all valid configurations")
    p.set_defaults(func=cmd_configs)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # ``run`` forwards verbatim to repro.bench.runner's own parser.
    # Forward before parsing: argparse.REMAINDER cannot capture leading
    # options (``repro run --jobs 2`` would be rejected here otherwise).
    if argv[:1] == ["run"]:
        from .bench.runner import main as runner_main

        return runner_main(argv[1:])
    if argv[:1] == ["shardbench"]:
        from .bench.shardbench import main as shardbench_main

        return shardbench_main(argv[1:])

    from .obs import profiled_run
    from .shard import ShardError

    args = _parser().parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    try:
        with profiled_run(getattr(args, "profile", False), trace_out) as (
            registry,
            trace,
        ):
            args.registry, args.trace = registry, trace
            code = args.func(args)
            if code and trace is not None:
                trace.discard()
    except (ConfigurationError, ShardError) as exc:
        # A bad --config name or an unshardable member set is a usage
        # error, like argparse's own.
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    except LinkError as exc:
        for error in exc.errors:
            print(f"link error: {error}", file=sys.stderr)
        return 1
    except FRONTEND_ERRORS as exc:
        print(f"repro: error: {describe_error(exc)}", file=sys.stderr)
        return 1
    except OSError as exc:
        # Unreadable inputs, unwritable --out/--trace-out targets:
        # one-line diagnostic, nonzero exit, no traceback (and, thanks
        # to the atomic writers, no partial output file left behind).
        print(f"repro: error: {exc}", file=sys.stderr)
        return 1
    if code == 0 and trace_out is not None:
        notes = sys.stderr if getattr(args, "stdout_is_data", False) else None
        print(f"wrote {trace_out}", file=notes)
    return code


if __name__ == "__main__":
    sys.exit(main())
