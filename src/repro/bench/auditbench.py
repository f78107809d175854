"""Audit client benchmark (``BENCH_audit.json``).

Builds one linkable profile-shaped corpus (``repro.bench.corpus``),
links and solves it once, then measures every registered audit client
(escape, calls, races, dangling) three ways over the identical
solution:

- **direct** — :func:`repro.audit.run_audit` wall-clock and findings
  counts (the cost of the scan itself);
- **cached** — the ``audit`` pipeline stage cold (store) then warm
  (disk hit): the warm hit must be report-byte-identical to the cold
  run;
- **served** — the same queries through a :class:`QueryEngine` over a
  shared :class:`LRUMemo`, asked twice, reporting the memo hit rate
  (the second ask must be a pure memo hit).

The run record appends to a persistent trajectory file in the
``BENCH_solver.json`` discipline.

Usage::

    python -m repro.bench.auditbench [--out BENCH_audit.json] [--quick]
        [--profile NAME] [--files-scale F] [--size-scale S] [--seed N]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Dict, List, Optional

from ..audit import AuditContext, audit_names, canonical_json, run_audit
from ..driver.cache import ResultCache
from ..pipeline import Pipeline
from ..serve.project import Project
from ..serve.queries import LRUMemo, QueryEngine
from .corpus import PROFILES, generate_c_source, plan_profile_program
from .trajectory import append_trajectory, run_stamp

DEFAULT_PROFILE = "505.mcf"


def build_corpus(
    profile_name: str, files_scale: float, size_scale: float, seed: int
) -> Dict[str, str]:
    """One linkable multi-TU program shaped like ``profile_name``."""
    profile = PROFILES[profile_name]
    units = plan_profile_program(
        profile, files_scale=files_scale, size_scale=size_scale, seed=seed
    )
    return {
        f"{unit.prefix.rstrip('_')}.c": generate_c_source(unit)
        for unit in units
    }


def client_params(client: str, context: AuditContext) -> Dict:
    """Benchmark parameters per client.

    ``races`` gets two defined functions as explicit thread roots so the
    pairwise modref scan actually runs on corpora without
    ``pthread_create`` call sites.
    """
    if client != "races":
        return {}
    bindings = context.bindings()
    roots: List[str] = []
    for name in sorted(bindings):
        module = bindings[name].built.module
        roots.extend(fn.name for fn in module.defined_functions())
        if len(roots) >= 2:
            break
    return {"roots": sorted(roots[:2])}


def measure_direct(context: AuditContext, client: str, params: Dict) -> Dict:
    t0 = time.perf_counter()
    report = run_audit(context, client, params)
    wall_s = time.perf_counter() - t0
    counts = report.counts()
    return {
        "wall_s": wall_s,
        "findings": counts["total"],
        "unbounded": counts["unbounded"],
        "by_severity": counts["by_severity"],
        "digest": report.digest(),
    }


def measure_cached(
    pipeline: Pipeline,
    context: AuditContext,
    client: str,
    params: Dict,
    solution_digest: str,
) -> Dict:
    t0 = time.perf_counter()
    cold = pipeline.audit(context, client, params, solution_digest)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = pipeline.audit(context, client, params, solution_digest)
    warm_s = time.perf_counter() - t0
    return {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "warm_from_cache": warm.from_cache,
        "identical": canonical_json(cold.report) == canonical_json(warm.report),
    }


def measure_served(
    engine: QueryEngine, memo: LRUMemo, client: str, params: Dict
) -> Dict:
    """Ask the same audit twice; the second must answer from the memo."""
    hits0, misses0 = memo.hits, memo.misses
    request = {"client": client, "params": params}
    t0 = time.perf_counter()
    first = engine.evaluate("audit", dict(request))
    first_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    second = engine.evaluate("audit", dict(request))
    second_s = time.perf_counter() - t0
    hits = memo.hits - hits0
    lookups = hits + (memo.misses - misses0)
    return {
        "first_s": first_s,
        "second_s": second_s,
        "memo_hits": hits,
        "memo_lookups": lookups,
        "memo_hit_rate": hits / lookups if lookups else 0.0,
        "identical": canonical_json(first) == canonical_json(second),
    }


def run_benchmark(
    profile: str = DEFAULT_PROFILE,
    files_scale: float = 0.5,
    size_scale: float = 0.02,
    seed: int = 7,
    quick: bool = False,
) -> Dict:
    if quick:
        files_scale = min(files_scale, 0.25)
        size_scale = min(size_scale, 0.01)
    files = build_corpus(profile, files_scale, size_scale, seed)

    import tempfile

    with tempfile.TemporaryDirectory(prefix="auditbench-") as tmp:
        cache = ResultCache(pathlib.Path(tmp) / "cache")
        project = Project(cache=cache)
        t0 = time.perf_counter()
        snapshot = project.open(files)
        build_s = time.perf_counter() - t0
        context = AuditContext.from_snapshot(snapshot)
        solution_digest = snapshot.solution.named_canonical_digest()
        memo = LRUMemo()
        engine = QueryEngine(snapshot, memo)

        clients: Dict[str, Dict] = {}
        for client in audit_names():
            params = client_params(client, context)
            direct = measure_direct(context, client, params)
            cached = measure_cached(
                project.pipeline, context, client, params, solution_digest
            )
            served = measure_served(engine, memo, client, params)
            clients[client] = {
                "params": params,
                "direct": direct,
                "cached": cached,
                "served": served,
            }
            print(
                f"  {client:9s} {direct['findings']:5d} findings"
                f"  direct {direct['wall_s'] * 1e3:7.1f}ms"
                f"  warm-cache {cached['warm_s'] * 1e3:6.1f}ms"
                f"  served hit rate {served['memo_hit_rate']:.2f}"
            )

    all_ok = all(
        c["cached"]["warm_from_cache"]
        and c["cached"]["identical"]
        and c["served"]["identical"]
        and c["served"]["memo_hit_rate"] >= 0.5
        for c in clients.values()
    )
    return {
        **run_stamp(),
        "params": {
            "profile": profile,
            "files_scale": files_scale,
            "size_scale": size_scale,
            "seed": seed,
            "quick": quick,
        },
        "corpus": {"members": len(files)},
        "build_s": build_s,
        "solution_digest": solution_digest,
        "clients": clients,
        "target_met": all_ok,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_audit.json"),
        help="trajectory file to append this run to",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus (CI smoke run)",
    )
    parser.add_argument(
        "--profile", default=DEFAULT_PROFILE, choices=sorted(PROFILES)
    )
    parser.add_argument("--files-scale", type=float, default=0.5)
    parser.add_argument("--size-scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    record = run_benchmark(
        profile=args.profile,
        files_scale=args.files_scale,
        size_scale=args.size_scale,
        seed=args.seed,
        quick=args.quick,
    )
    append_trajectory(args.out, record, "auditbench")
    print(f"\nwrote {args.out}")
    print(
        "cache/memo/identity checks"
        f" {'PASSED' if record['target_met'] else 'FAILED'}"
        f" over {len(record['clients'])} clients"
        f" on {record['corpus']['members']} members"
    )
    return 0 if record["target_met"] else 1


if __name__ == "__main__":
    sys.exit(main())
