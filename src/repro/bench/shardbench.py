"""Sharded whole-program link benchmark (``BENCH_shard.json``).

Drives the full-scale corpus (``files_scale=1.0`` of a Table III
profile, generated as one linkable multi-TU program by
:func:`repro.bench.corpus.plan_profile_program`) through both cross-TU
paths and records the trajectory:

- **flat baseline** — the single-process ``Pipeline.link_sources`` path,
  timed end to end;
- **jobs sweep** — :func:`repro.shard.link_sharded` at a fixed shard
  count over ``--jobs 1/2/4/8``, each on a fresh cache (cold), with the
  1-job/8-job wall-clock ratio reported against the ≥3x near-linear
  target (recorded honestly: the record carries ``cpu_count``, and a
  1-core machine cannot show wall-clock parallel speedup — the gap
  analysis lives in ``docs/internals.md`` §14);
- **shards sweep** — wall-clock vs shard count at fixed jobs (the
  ``repro sweep --shards``-style axis);
- **warm + one-TU edit** — a persistent cache run proving the
  incremental contract (exactly one shard re-link plus its merge spine)
  via stage-counter deltas, embedded in the record;
- **byte identity** — both paths' joint programs solved once each and
  compared by streaming named-canonical digest; the sharded solution is
  additionally spilled through :class:`repro.shard.ShardSolutionStore`
  and must reproduce the same digest from disk.

Usage::

    python -m repro.bench.shardbench [--out BENCH_shard.json] [--quick]
"""

from __future__ import annotations

import argparse
import dataclasses
import pathlib
import shutil
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis import parse_name
from ..analysis.config import prepare_program, solve_prepared
from ..driver.cache import ResultCache
from ..obs import peak_rss_bytes
from ..pipeline import Pipeline
from ..shard import link_sharded, spine_slots, store_solution
from .corpus import PROFILES, generate_c_source, plan_profile_program
from .trajectory import append_trajectory, run_stamp

#: near-linear scaling target at 8 jobs over 1 job
SPEEDUP_TARGET = 3.0

DEFAULT_PROFILE = "557.xz"
DEFAULT_SHARDS = 8
DEFAULT_JOBS_SWEEP = (1, 2, 4, 8)
DEFAULT_SHARDS_SWEEP = (2, 4, 8, 16)
DEFAULT_CONFIG = "IP+OVS+WL(LRF)+OCD+PIP"

#: every key a valid run record must carry (the CI schema gate)
RECORD_KEYS = frozenset(
    {
        "timestamp",
        "python",
        "cpu_count",
        "params",
        "corpus",
        "flat",
        "jobs_sweep",
        "shards_sweep",
        "incremental",
        "identity",
        "solve",
        "peak_rss_bytes",
        "speedup_8x",
        "speedup_target",
        "shard_target_met",
    }
)


def build_corpus(
    profile_name: str, files_scale: float, size_scale: float, seed: int
) -> List[Tuple[str, str]]:
    """The benchmark's (name, text) member list, in link order."""
    profile = PROFILES[profile_name]
    units = plan_profile_program(
        profile, files_scale=files_scale, size_scale=size_scale, seed=seed
    )
    return [(u.name, generate_c_source(u)) for u in units]


def _solve_digest(program, config) -> Tuple[str, float, float]:
    """(streaming digest, solve seconds, extract seconds) of one joint
    program under ``config``."""
    t0 = time.perf_counter()
    solution = solve_prepared(prepare_program(program, config), config)
    solve_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    digest = solution.named_canonical_digest()
    return digest, solve_s, time.perf_counter() - t0


def run_benchmark(
    profile: str = DEFAULT_PROFILE,
    files_scale: float = 1.0,
    size_scale: float = 0.02,
    shards: int = DEFAULT_SHARDS,
    jobs_sweep: Sequence[int] = DEFAULT_JOBS_SWEEP,
    shards_sweep: Sequence[int] = DEFAULT_SHARDS_SWEEP,
    config_name: str = DEFAULT_CONFIG,
    pts: str = "bitset",
    seed: int = 0,
    quick: bool = False,
) -> Dict:
    if quick:
        profile = "505.mcf"
        shards = 4
        jobs_sweep = (1, 2)
        shards_sweep = (2, 4)
    config = dataclasses.replace(parse_name(config_name), pts=pts)

    t0 = time.perf_counter()
    sources = build_corpus(profile, files_scale, size_scale, seed)
    generate_s = time.perf_counter() - t0

    # --- flat baseline -----------------------------------------------
    pipeline = Pipeline()
    t0 = time.perf_counter()
    flat_art = pipeline.link_sources(
        [pipeline.source(n, t) for n, t in sources]
    )
    flat_link_s = time.perf_counter() - t0
    flat_program = flat_art.linked.program

    # --- jobs sweep (cold cache each) --------------------------------
    jobs_runs: List[Dict] = []
    sharded_program = None
    for jobs in jobs_sweep:
        t0 = time.perf_counter()
        result = link_sharded(sources, shards, jobs=jobs)
        seconds = time.perf_counter() - t0
        jobs_runs.append(
            {"jobs": jobs, "seconds": seconds, "stats": result.stats.to_dict()}
        )
        print(
            f"  shards={shards} jobs={jobs}: {seconds:.2f}s"
            f" ({result.stats.occupied} leaves,"
            f" {result.stats.rounds} rounds)"
        )
        if sharded_program is None:
            sharded_program = result.linked.program

    # --- shard-count sweep at jobs=1 ---------------------------------
    shards_runs: List[Dict] = []
    for k in shards_sweep:
        t0 = time.perf_counter()
        result = link_sharded(sources, k, jobs=1)
        shards_runs.append(
            {
                "shards": k,
                "seconds": time.perf_counter() - t0,
                "occupied": result.stats.occupied,
                "rounds": result.stats.rounds,
            }
        )

    # --- incremental warm-edit proof ---------------------------------
    cache_dir = tempfile.mkdtemp(prefix="repro-shardbench-")
    try:
        cache = ResultCache(pathlib.Path(cache_dir))
        link_sharded(sources, shards, jobs=1, cache=cache)
        t0 = time.perf_counter()
        warm = link_sharded(sources, shards, jobs=1, cache=cache)
        warm_s = time.perf_counter() - t0
        edit_name = sources[0][0]
        edited = [
            (n, t + "\nint shardbench_edit_marker;\n" if n == edit_name else t)
            for n, t in sources
        ]
        t0 = time.perf_counter()
        after = link_sharded(edited, shards, jobs=1, cache=cache)
        edit_s = time.perf_counter() - t0
        plan = after.plan
        spine = spine_slots(
            len(plan.occupied), plan.slot_for(edit_name)
        )
        incremental = {
            "warm_seconds": warm_s,
            "warm_runs": warm.stats.link_runs + warm.stats.merge_runs,
            "edit_seconds": edit_s,
            "edited_member": edit_name,
            "link_runs": after.stats.link_runs,
            "merge_runs": after.stats.merge_runs,
            "expected_spine": len(spine),
            "contract_met": (
                warm.stats.link_runs == 0
                and warm.stats.merge_runs == 0
                and after.stats.link_runs == 1
                and after.stats.merge_runs == len(spine)
                and after.stats.constraints_runs == 1
            ),
        }
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    # --- byte identity + streamed extraction -------------------------
    flat_digest, flat_solve_s, flat_extract_s = _solve_digest(
        flat_program, config
    )
    t0 = time.perf_counter()
    solution = solve_prepared(
        prepare_program(sharded_program, config), config
    )
    shard_solve_s = time.perf_counter() - t0
    shard_digest = solution.named_canonical_digest()
    store_dir = tempfile.mkdtemp(prefix="repro-shardstore-")
    try:
        t0 = time.perf_counter()
        store = store_solution(
            solution.iter_named_canonical(),
            solution.named_external(),
            store_dir,
        )
        store_digest = store.digest()
        shard_extract_s = time.perf_counter() - t0
        store_entries = store.entries
    finally:
        shutil.rmtree(store_dir, ignore_errors=True)
    identity_ok = flat_digest == shard_digest == store_digest

    t1 = jobs_runs[0]["seconds"]
    t_last = jobs_runs[-1]["seconds"]
    speedup = t1 / t_last if t_last > 0 else 0.0
    measured_8x = any(r["jobs"] >= 8 for r in jobs_runs)

    record = {
        **run_stamp(),
        "params": {
            "profile": profile,
            "files_scale": files_scale,
            "size_scale": size_scale,
            "shards": shards,
            "config": config.name,
            "pts": pts,
            "seed": seed,
            "quick": quick,
        },
        "corpus": {
            "members": len(sources),
            "generate_seconds": generate_s,
            "joint_vars": flat_program.num_vars,
            "joint_constraints": flat_program.num_constraints(),
        },
        "flat": {"link_seconds": flat_link_s},
        "jobs_sweep": jobs_runs,
        "shards_sweep": shards_runs,
        "incremental": incremental,
        "identity": {
            "ok": identity_ok,
            "flat_digest": flat_digest,
            "sharded_digest": shard_digest,
            "store_digest": store_digest,
            "store_entries": store_entries,
        },
        "solve": {
            "flat_seconds": flat_solve_s,
            "sharded_seconds": shard_solve_s,
            "flat_extract_seconds": flat_extract_s,
            "sharded_extract_seconds": shard_extract_s,
        },
        "peak_rss_bytes": peak_rss_bytes(),
        "speedup_8x": speedup if measured_8x else None,
        "speedup_target": SPEEDUP_TARGET,
        "shard_target_met": bool(
            measured_8x and speedup >= SPEEDUP_TARGET and identity_ok
        ),
    }
    return record


def validate_record(record: Dict) -> None:
    """Raise ValueError naming the first schema violation (CI gate)."""
    if not isinstance(record, dict):
        raise ValueError("record is not an object")
    missing = sorted(RECORD_KEYS - set(record))
    if missing:
        raise ValueError(f"record missing keys: {missing}")
    if not isinstance(record["jobs_sweep"], list) or not record["jobs_sweep"]:
        raise ValueError("jobs_sweep must be a non-empty list")
    for run in record["jobs_sweep"]:
        for key in ("jobs", "seconds", "stats"):
            if key not in run:
                raise ValueError(f"jobs_sweep run missing {key!r}")
    if not isinstance(record["identity"].get("ok"), bool):
        raise ValueError("identity.ok must be a bool")
    if not isinstance(record["incremental"].get("contract_met"), bool):
        raise ValueError("incremental.contract_met must be a bool")
    if not isinstance(record["shard_target_met"], bool):
        raise ValueError("shard_target_met must be a bool")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_shard.json"),
        help="trajectory file to append this run to",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small profile, 2-point jobs sweep (CI smoke run)",
    )
    parser.add_argument("--profile", default=DEFAULT_PROFILE,
                        choices=sorted(PROFILES))
    parser.add_argument("--files-scale", type=float, default=1.0)
    parser.add_argument("--size-scale", type=float, default=0.02)
    parser.add_argument("--shards", type=int, default=DEFAULT_SHARDS)
    parser.add_argument(
        "--jobs-sweep", default=None, metavar="N,N,...",
        help="comma-separated jobs values (default: 1,2,4,8)",
    )
    parser.add_argument(
        "--shards-sweep", default=None, metavar="K,K,...",
        help="comma-separated shard counts for the shards axis"
        " (default: 2,4,8,16)",
    )
    parser.add_argument("--config", default=DEFAULT_CONFIG)
    parser.add_argument("--pts", default="bitset", choices=("set", "bitset"))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    jobs_sweep = (
        tuple(int(x) for x in args.jobs_sweep.split(","))
        if args.jobs_sweep
        else DEFAULT_JOBS_SWEEP
    )
    shards_sweep = (
        tuple(int(x) for x in args.shards_sweep.split(","))
        if args.shards_sweep
        else DEFAULT_SHARDS_SWEEP
    )
    record = run_benchmark(
        profile=args.profile,
        files_scale=args.files_scale,
        size_scale=args.size_scale,
        shards=args.shards,
        jobs_sweep=jobs_sweep,
        shards_sweep=shards_sweep,
        config_name=args.config,
        pts=args.pts,
        seed=args.seed,
        quick=args.quick,
    )
    validate_record(record)
    append_trajectory(args.out, record, "shardbench")

    print(f"\nwrote {args.out}")
    print(
        f"identity: {'byte-identical' if record['identity']['ok'] else 'DIVERGED'}"
        f"  incremental contract:"
        f" {'met' if record['incremental']['contract_met'] else 'BROKEN'}"
    )
    if record["speedup_8x"] is not None:
        print(
            f"headline: jobs-8/jobs-1 wall-clock {record['speedup_8x']:.2f}x"
            f" on {record['cpu_count']} CPU(s)"
            f" — target {record['speedup_target']:.1f}x"
            f" {'MET' if record['shard_target_met'] else 'NOT met'}"
        )
    # Identity and the incremental contract gate the exit code; the
    # wall-clock target is reported but cannot gate on arbitrary
    # hardware (a 1-core runner can never meet it).
    ok = record["identity"]["ok"] and record["incremental"]["contract_met"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
