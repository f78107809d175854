"""Points-to-set backend microbenchmark (``BENCH_solver.json``).

Runs identical solver configurations under the ``set`` and ``bitset``
backends (:mod:`repro.analysis.pts`) over the synthetic corpus files
with at least ``--min-vars`` constraint variables, asserts that both
backends produce the identical canonical :class:`Solution` on every
measurement, and appends one run record to a persistent trajectory file
so successive PRs can track solver performance.

Two configuration groups are measured and reported separately:

- **propagation** (the headline): EP-mode worklist configurations
  without difference propagation.  With explicit pointees the Ω node's
  huge pointee set is propagated everywhere, so bulk set operations
  dominate the runtime — the workload the bitset representation exists
  for (union/difference/intersection as single C-speed bignum ops).
- **sparse-control**: configurations whose propagated sets are small
  *by design* — IP mode (implicit pointees keep explicit sets tiny;
  that is the paper's point) and DP (difference propagation reduces
  every transfer to a delta).  There is little bulk work to accelerate,
  so the group documents that the bitset backend is roughly neutral
  where its strength cannot apply.

The headline acceptance target (median propagation-group speedup ≥ 2×)
is evaluated and stored in the run record.  Older records in the
trajectory file may also carry fields of a since-removed ``reduce``
group; appending never rewrites them.

Usage::

    python -m repro.bench.solverbench [--out BENCH_solver.json] [--quick]
        [--repetitions N] [--min-vars V] [--files-scale F]
        [--size-scale S] [--seed N]
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..driver import ResultCache, SolveTask, TaskResult, solve_tasks, source_digest
from ..driver.cache import cache_from_args
from ..obs import Registry, TraceWriter, profiled_run
from .runner import build_programs
from .suite import CorpusFile, build_corpus, flatten
from .timing import distribution
from .trajectory import append_trajectory, run_stamp

#: EP-mode, propagation-dominated configurations — the headline group
PROPAGATION_CONFIGS = [
    "EP+WL(FIFO)",
    "EP+WL(LIFO)",
    "EP+WL(LRF)",
]

#: sparse-set configurations (IP mode / difference propagation) —
#: recorded as a control group
CONTROL_CONFIGS = [
    "IP+WL(FIFO)",
    "IP+WL(FIFO)+PIP",
    "EP+WL(FIFO)+LCD+DP",
]

SPEEDUP_TARGET = 2.0


#: per-task metadata parallel to the task list: (file, config, group)
#: for each set/bitset task *pair*
PairMeta = Tuple[CorpusFile, str, str]


def build_backend_tasks(
    files: Sequence[CorpusFile],
    grouped_configs: Sequence[Tuple[str, Sequence[str]]],
    repetitions: int,
) -> Tuple[List[SolveTask], List[PairMeta]]:
    """One set-backend and one bitset-backend task per (file, config).

    The two tasks of a pair are adjacent (set at even index, bitset at
    odd), so merged results pair up positionally.
    """
    tasks: List[SolveTask] = []
    meta: List[PairMeta] = []
    for file in files:
        digest = source_digest(file.source)
        for group, names in grouped_configs:
            for name in names:
                for backend in ("set", "bitset"):
                    tasks.append(
                        SolveTask(
                            index=len(tasks),
                            file_name=file.spec.name,
                            source_hash=digest,
                            config_name=name,
                            spec=file.spec,
                            pts_backend=backend,
                            repetitions=repetitions,
                        )
                    )
                meta.append((file, name, group))
    return tasks, meta


def pair_rows(
    results: Sequence[TaskResult], meta: Sequence[PairMeta]
) -> List[Dict]:
    """Fold (set, bitset) result pairs into measurement rows,
    equivalence-checking the canonical solutions of every pair."""
    rows: List[Dict] = []
    for i, (file, name, group) in enumerate(meta):
        set_result, bitset_result = results[2 * i], results[2 * i + 1]
        if (
            set_result.solution["points_to"] != bitset_result.solution["points_to"]
            or set_result.solution["external"] != bitset_result.solution["external"]
        ):
            raise AssertionError(
                f"backends disagree on {file.spec.name} / {name}"
            )
        set_stats = set_result.solution["stats"]
        bit_stats = bitset_result.solution["stats"]
        if set_stats["explicit_pointees"] != bit_stats["explicit_pointees"]:
            raise AssertionError(
                f"explicit_pointees differ on {file.spec.name} / {name}: "
                f"{set_stats['explicit_pointees']}"
                f" != {bit_stats['explicit_pointees']}"
            )
        rows.append(
            {
                "file": file.spec.name,
                "num_vars": file.program.num_vars,
                "config": name,
                "group": group,
                "set_s": set_result.runtime_s,
                "bitset_s": bitset_result.runtime_s,
                "speedup": set_result.runtime_s / bitset_result.runtime_s,
                "explicit_pointees": set_stats["explicit_pointees"],
                "shared_sets": set_stats["shared_sets"],
            }
        )
    return rows


def measure_file(
    file: CorpusFile,
    config_names: List[str],
    group: str,
    repetitions: int,
) -> List[Dict]:
    """Per-(file, config) timings for both backends, equivalence-checked
    (the in-process single-file path; ``run_benchmark`` fans the same
    tasks out over the driver)."""
    tasks, meta = build_backend_tasks(
        [file], [(group, config_names)], repetitions
    )
    results, _ = solve_tasks(tasks, jobs=1, programs=build_programs([file]))
    return pair_rows(results, meta)


def run_benchmark(
    files_scale: float = 0.012,
    size_scale: float = 0.02,
    seed: int = 1,
    min_vars: int = 2000,
    repetitions: int = 2,
    quick: bool = False,
    profiles: Optional[List[str]] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    registry: Optional[Registry] = None,
    trace: Optional[TraceWriter] = None,
) -> Dict:
    """Build the corpus, measure both backends, return one run record.

    ``jobs`` fans the (file, config, backend) measurements out over the
    driver's process pool.  ``cache`` is **off by default** here, unlike
    the experiment runner: a timing benchmark that replays cached wall
    times measures the code as it was when the entry was written, which
    is only meaningful when explicitly requested (``--cache``).  An
    enabled ``registry`` adds a ``metrics`` block to the run record (the
    profiled solve is a separate, untimed pass — wall measurements stay
    clean); ``trace`` gets one ``solve`` event per measurement task.
    """
    if quick and profiles is None:
        profiles = ["500.perlbench", "502.gcc"]
    t0 = time.time()
    corpus = build_corpus(
        files_scale=files_scale,
        size_scale=size_scale,
        seed=seed,
        profiles=profiles,
    )
    all_files = flatten(corpus)
    files = [f for f in all_files if f.program.num_vars >= min_vars]
    print(
        f"corpus: {len(all_files)} files built in {time.time() - t0:.0f}s,"
        f" {len(files)} with |V| >= {min_vars}"
    )
    if not files:
        raise SystemExit(
            f"no corpus file reaches |V| >= {min_vars};"
            " increase --size-scale or lower --min-vars"
        )
    prop_configs = PROPAGATION_CONFIGS[:2] if quick else PROPAGATION_CONFIGS
    ctrl_configs = CONTROL_CONFIGS[:1] if quick else CONTROL_CONFIGS

    t0 = time.time()
    tasks, meta = build_backend_tasks(
        files,
        [("propagation", prop_configs), ("sparse-control", ctrl_configs)],
        repetitions,
    )
    results, driver_stats = solve_tasks(
        tasks,
        jobs=jobs,
        cache=cache,
        programs=build_programs(files),
        registry=registry,
        trace=trace,
    )
    measurements = pair_rows(results, meta)
    print(f"  {len(tasks)} measurements in {time.time() - t0:.1f}s"
          f" ({driver_stats})")

    summary: Dict[str, Dict] = {}
    for group in ("propagation", "sparse-control"):
        speedups = [m["speedup"] for m in measurements if m["group"] == group]
        summary[group] = {
            "n": len(speedups),
            "speedup": distribution(speedups),
        }
    headline = summary["propagation"]["speedup"]["p50"]
    metrics = (
        registry.to_dict()
        if registry is not None and registry.enabled
        else None
    )
    record = {
        **run_stamp(),
        "params": {
            "files_scale": files_scale,
            "size_scale": size_scale,
            "seed": seed,
            "min_vars": min_vars,
            "repetitions": repetitions,
            "quick": quick,
            "jobs": jobs,
        },
        "driver": driver_stats.to_dict(),
        "configs": {
            "propagation": prop_configs,
            "sparse-control": ctrl_configs,
        },
        "measurements": measurements,
        "summary": summary,
        "headline_median_speedup": headline,
        "speedup_target": SPEEDUP_TARGET,
        "target_met": headline >= SPEEDUP_TARGET,
    }
    if metrics is not None:
        record["metrics"] = metrics
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_solver.json"),
        help="trajectory file to append this run to",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small corpus and config slice (CI smoke run)",
    )
    parser.add_argument("--repetitions", type=int, default=None)
    parser.add_argument("--min-vars", type=int, default=2000)
    parser.add_argument("--files-scale", type=float, default=0.012)
    parser.add_argument("--size-scale", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="fan measurements out over N worker processes (wall times"
        " then include per-worker load; use 1 for the quietest numbers)",
    )
    parser.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="replay cached measurements from --cache-dir (off by"
        " default: cached wall times describe older code)",
    )
    parser.add_argument(
        "--cache-dir", type=pathlib.Path, default=pathlib.Path(".repro-cache")
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="collect obs metrics into the run record (measured wall"
        " times are unaffected: only the untimed solve is profiled)",
    )
    parser.add_argument(
        "--trace-out", type=pathlib.Path, default=None,
        help="write JSONL trace events here (implies --profile)",
    )
    args = parser.parse_args(argv)
    repetitions = args.repetitions
    if repetitions is None:
        repetitions = 1 if args.quick else 2

    with profiled_run(args.profile, args.trace_out) as (registry, trace):
        record = run_benchmark(
            files_scale=args.files_scale,
            size_scale=args.size_scale,
            seed=args.seed,
            min_vars=args.min_vars,
            repetitions=repetitions,
            quick=args.quick,
            jobs=args.jobs,
            cache=cache_from_args(args),
            registry=registry,
            trace=trace,
        )
        if trace is not None:
            trace.emit("metrics", "solverbench", registry.to_dict())
    append_trajectory(args.out, record, "solverbench")

    print(f"\nwrote {args.out}")
    for group, stats in record["summary"].items():
        d = stats["speedup"]
        print(
            f"{group:>16}: n={stats['n']:3d}  p10={d['p10']:.2f}x"
            f"  p50={d['p50']:.2f}x  p90={d['p90']:.2f}x  max={d['max']:.2f}x"
        )
    print(
        f"headline median (propagation group):"
        f" {record['headline_median_speedup']:.2f}x"
        f" — target {record['speedup_target']:.1f}x"
        f" {'MET' if record['target_met'] else 'NOT met'}"
    )
    return 0 if record["target_met"] else 1


if __name__ == "__main__":
    sys.exit(main())
