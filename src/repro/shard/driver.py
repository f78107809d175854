"""Sharded link execution: pool jobs, merge tree, cache plumbing.

Execution plan for :func:`link_sharded` (``docs/internals.md`` §14):

1. **Plan** — :func:`repro.shard.plan.plan_shards` assigns TUs to K
   slots by name hash; empty slots drop out, occupied slots become the
   merge tree's leaves in ascending slot order.
2. **Shard links** — one :class:`ShardLinkJob` per occupied slot runs
   the staged pipeline for its members (``constraints`` stage, disk
   hits on warm runs) and links them **open** into a ``shardlink``
   artifact.  Jobs fan out over the driver's shared
   :class:`repro.driver.pool.Executor`.
3. **Merge tree** — :func:`repro.shard.tree.merge_rounds` schedules
   O(log K) rounds of pairwise :class:`MergeJob`\\ s; each loads its two
   child artifacts from the cache, re-links their joint programs (open
   at interior nodes; the caller's :class:`LinkOptions` at the root
   only) and stores a ``shardmerge`` artifact.  Rounds are barriers;
   merges within a round run in parallel.

Artifacts never travel over the pool's pipes — workers exchange them
through the shared content-addressed cache, which the executor reopens
in every worker with the caller's bound (an ephemeral temp cache is
created when the caller runs cacheless, or bounds the cache below the
occupied shard count).  The parent derives every
``shard.*`` counter from the per-job ``from_cache`` flags **in slot /
schedule order**, so counters are invariant across ``--jobs`` and pool
start methods, exactly like the flat driver's.

Correctness relies on two linker properties (proven by the staged-merge
test suite): the joint symbol table is re-linkable (pass 3 records it),
and linkage-seeded escapes are recomputed — never OR-merged — at every
level, so interior open links leave no trace in the root's escape set.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..driver.cache import ResultCache
from ..driver.pool import Executor, Worker
from ..link import LinkedProgram, LinkOptions, link_programs
from ..obs import Registry, TraceWriter, record_peak_rss, scope as _obs_scope
from ..pipeline.stages import Pipeline, _key
from .plan import ShardPlan, plan_shards
from .tree import merge_rounds

__all__ = [
    "MergeJob",
    "ShardError",
    "ShardLinkJob",
    "ShardedLinkResult",
    "link_sharded",
]


class ShardError(Exception):
    """Sharded-link orchestration failure (not a linker diagnostic —
    :class:`repro.link.LinkError` propagates unchanged)."""


# ----------------------------------------------------------------------
# Picklable jobs and results (pool wire format)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardLinkJob:
    """Build + open-link one shard's members (leaf of the merge tree)."""

    index: int  # unique within one link_sharded call (reorder key)
    shard: int  # original plan slot (counter naming)
    sources: Tuple[Tuple[str, str], ...]  # (name, text) in link order


@dataclass(frozen=True)
class MergeJob:
    """Merge two tree nodes (or re-link one, at a singleton root)."""

    index: int
    round: int
    out: int
    left: Tuple[str, str]  # (stage, key) of the left child artifact
    right: Optional[Tuple[str, str]]  # None: singleton root re-link
    options: Optional[Dict]  # LinkOptions.to_dict() at the root, else None


@dataclass(frozen=True)
class ShardJobResult:
    """What a worker sends back: keys and cache provenance, never the
    artifact itself (it lives in the shared cache)."""

    index: int
    key: str
    from_cache: bool
    #: per-member constraints-stage provenance (shard-link jobs only)
    members_from_cache: Tuple[bool, ...] = ()


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------


def _load_linked(cache: ResultCache, ref: Tuple[str, str]) -> LinkedProgram:
    stage, key = ref
    payload = cache.load_stage(stage, key)
    if payload is None:
        raise ShardError(
            f"missing {stage} artifact {key[:12]}… (cache pruned or"
            " removed between phases); re-run cold"
        )
    return LinkedProgram.from_dict(payload)


def shard_link_key(members: Sequence[Tuple[str, str]]) -> str:
    """Stage key of one shard's open link: (name, program_digest) pairs
    in link order.  Mode-independent — interior links are always open,
    so both final link modes share every shard artifact."""
    return _key("shardlink", *[f"{n}:{d}" for n, d in members])


def merge_key(
    options_key: str, left_key: str, right_key: Optional[str]
) -> str:
    """Stage key of one merge node: chained on the child keys (which
    transitively hash every leaf digest below) plus the link mode this
    node applies ("open" everywhere except the root)."""
    parts = [options_key, left_key]
    if right_key is not None:
        parts.append(right_key)
    return _key("shardmerge", *parts)


def _execute_shard_link(job: ShardLinkJob, worker: Worker) -> ShardJobResult:
    cache = worker.cache
    pipeline = Pipeline(cache=cache)
    members = [
        pipeline.constraints(pipeline.source(name, text))
        for name, text in job.sources
    ]
    key = shard_link_key([(m.name, m.program_digest) for m in members])
    flags = tuple(m.from_cache for m in members)
    if cache.load_stage("shardlink", key) is not None:
        return ShardJobResult(job.index, key, True, flags)
    linked = link_programs([m.program for m in members], LinkOptions())
    cache.store_stage("shardlink", key, linked.to_dict())
    return ShardJobResult(job.index, key, False, flags)


def _compose_member_maps(
    cache: ResultCache,
    shard_refs: Sequence[Tuple[str, str]],
    edges: Sequence[
        Tuple[Tuple[str, str], Tuple[str, str], Optional[Tuple[str, str]]]
    ],
    root: Tuple[str, str],
    root_linked: LinkedProgram,
) -> Dict[str, List[int]]:
    """Member name → root-joint-index maps, composed bottom-up.

    Each leaf's ``var_maps`` is keyed by member names; each merge
    node's by its children's program names.  Walking the recorded
    merge edges in execution order and substituting child maps through
    the parent map yields, at the root, exactly the member-keyed shape
    a flat link produces — against the *sharded* joint index space.
    """
    state: Dict[Tuple[str, str], Tuple[str, Dict[str, List[int]]]] = {}
    for ref in shard_refs:
        leaf = _load_linked(cache, ref)
        state[ref] = (
            leaf.program.name,
            {m: list(v) for m, v in leaf.var_maps.items()},
        )
    for out, left, right in edges:
        parent = root_linked if out == root else _load_linked(cache, out)
        combined: Dict[str, List[int]] = {}
        for child in (left, right):
            if child is None:
                continue
            child_name, child_maps = state.pop(child)
            parent_map = parent.var_maps[child_name]
            for member, mapping in child_maps.items():
                combined[member] = [parent_map[i] for i in mapping]
        state[out] = (parent.program.name, combined)
    return state[root][1]


def _execute_merge(job: MergeJob, worker: Worker) -> ShardJobResult:
    cache = worker.cache
    options = (
        LinkOptions.from_dict(job.options)
        if job.options is not None
        else LinkOptions()
    )
    key = merge_key(
        options.cache_key,
        job.left[1],
        None if job.right is None else job.right[1],
    )
    if cache.load_stage("shardmerge", key) is not None:
        return ShardJobResult(job.index, key, True)
    programs = [_load_linked(cache, job.left).program]
    if job.right is not None:
        programs.append(_load_linked(cache, job.right).program)
    linked = link_programs(programs, options)
    cache.store_stage("shardmerge", key, linked.to_dict())
    return ShardJobResult(job.index, key, False)


# ----------------------------------------------------------------------
# Parent-side orchestration
# ----------------------------------------------------------------------


@dataclass
class ShardStats:
    """One sharded link's accounting (all jobs-invariant)."""

    shards: int = 0  # requested K
    occupied: int = 0  # leaves actually linked
    members: int = 0
    rounds: int = 0
    constraints_runs: int = 0
    constraints_hits: int = 0
    link_runs: int = 0
    link_hits: int = 0
    merge_runs: int = 0
    merge_hits: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "shards": self.shards,
            "occupied": self.occupied,
            "members": self.members,
            "rounds": self.rounds,
            "constraints_runs": self.constraints_runs,
            "constraints_hits": self.constraints_hits,
            "link_runs": self.link_runs,
            "link_hits": self.link_hits,
            "merge_runs": self.merge_runs,
            "merge_hits": self.merge_hits,
        }


@dataclass
class ShardedLinkResult:
    """The root artifact plus full provenance of one sharded link."""

    plan: ShardPlan
    options: LinkOptions
    linked: LinkedProgram
    root: Tuple[str, str]  # (stage, key) of the root artifact
    #: leaf artifact keys by occupied-slot position
    shard_keys: List[str]
    stats: ShardStats
    #: member name → joint-index map into ``linked.program``, composed
    #: through the merge tree (only when requested via ``member_maps``)
    member_var_maps: Optional[Dict[str, List[int]]] = None


def link_sharded(
    sources: Sequence[Tuple[str, str]],
    shards: int,
    options: Optional[LinkOptions] = None,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    registry: Optional[Registry] = None,
    trace: Optional[TraceWriter] = None,
    start_method: Optional[str] = None,
    member_maps: bool = False,
) -> ShardedLinkResult:
    """Link ``sources`` (``(name, text)`` pairs, in link order) through
    K shards and a hierarchical merge tree.

    The result's named canonical solutions are byte-identical to the
    flat ``Pipeline.link_sources`` path for any ``shards >= 1``, any
    ``jobs`` and both link modes (the exactness suite locks this).
    Counters land under ``shard.*`` including per-shard
    ``shard.link.s<slot>.{runs,hits}``; one ``link`` trace event named
    ``"shard"`` summarises the run.
    """
    sources = list(sources)
    if not sources:
        raise ShardError("cannot shard-link zero sources")
    options = options if options is not None else LinkOptions()
    plan = plan_shards([name for name, _ in sources], shards)
    by_name = dict(sources)
    stats = ShardStats(
        shards=shards, occupied=len(plan.occupied), members=len(sources)
    )

    ephemeral: Optional[str] = None
    if cache is None or (
        cache.max_entries is not None
        and cache.max_entries < len(plan.occupied)
    ):
        # Leaf and merge artifacts travel through the cache, and at most
        # one per occupied shard must coexist in a namespace; a tighter
        # bound would evict leaves before their merge reads them.
        ephemeral = tempfile.mkdtemp(prefix="repro-shard-")
        cache = ResultCache(ephemeral)

    try:
        with Executor(jobs, cache, start_method=start_method) as executor:
            # --- phase 1: shard links (leaves) ------------------------
            link_jobs = [
                ShardLinkJob(
                    index=i,
                    shard=slot,
                    sources=tuple(
                        (name, by_name[name]) for name in plan.groups[slot]
                    ),
                )
                for i, slot in enumerate(plan.occupied)
            ]
            with _obs_scope(registry, "shard.link"):
                leaf_results = executor.map(_execute_shard_link, link_jobs)
            record_peak_rss(registry)
            for job, result in zip(link_jobs, leaf_results):
                hit = result.from_cache
                stats.link_hits += hit
                stats.link_runs += not hit
                c_hits = sum(result.members_from_cache)
                stats.constraints_hits += c_hits
                stats.constraints_runs += len(result.members_from_cache) - c_hits
                if registry is not None and registry.enabled:
                    field = "hits" if hit else "runs"
                    registry.add(f"shard.link.s{job.shard}.{field}")
                    registry.add(f"shard.link.{field}")
            shard_keys = [r.key for r in leaf_results]

            # --- phase 2: merge tree ----------------------------------
            nodes: List[Tuple[str, str]] = [
                ("shardlink", key) for key in shard_keys
            ]
            rounds = merge_rounds(len(nodes))
            stats.rounds = len(rounds)
            next_index = len(link_jobs)
            edges: List[
                Tuple[
                    Tuple[str, str],
                    Tuple[str, str],
                    Optional[Tuple[str, str]],
                ]
            ] = []
            with _obs_scope(registry, "shard.merge"):
                for r, round_nodes in enumerate(rounds):
                    is_root_round = r == len(rounds) - 1
                    batch = []
                    for node in round_nodes:
                        batch.append(
                            MergeJob(
                                index=next_index,
                                round=r,
                                out=node.out,
                                left=nodes[node.left],
                                right=nodes[node.right],
                                options=(
                                    options.to_dict()
                                    if is_root_round
                                    else None
                                ),
                            )
                        )
                        next_index += 1
                    results = executor.map(_execute_merge, batch)
                    merged: List[Tuple[str, str]] = [
                        ("shardmerge", res.key) for res in results
                    ]
                    for job, res in zip(batch, results):
                        edges.append(
                            (("shardmerge", res.key), job.left, job.right)
                        )
                    if len(nodes) % 2:  # odd tail passes through
                        merged.append(nodes[-1])
                    for res in results:
                        hit = res.from_cache
                        stats.merge_hits += hit
                        stats.merge_runs += not hit
                        if registry is not None and registry.enabled:
                            registry.add(
                                "shard.merge.hits" if hit else "shard.merge.runs"
                            )
                    nodes = merged
                if not rounds and options.cache_key != "open":
                    # Singleton tree but a non-open final mode: re-link
                    # the lone open artifact under the caller's options.
                    job = MergeJob(
                        index=next_index,
                        round=0,
                        out=0,
                        left=nodes[0],
                        right=None,
                        options=options.to_dict(),
                    )
                    res = executor.map(_execute_merge, [job])[0]
                    hit = res.from_cache
                    stats.merge_hits += hit
                    stats.merge_runs += not hit
                    if registry is not None and registry.enabled:
                        registry.add(
                            "shard.merge.hits" if hit else "shard.merge.runs"
                        )
                    edges.append((("shardmerge", res.key), job.left, None))
                    nodes = [("shardmerge", res.key)]
            record_peak_rss(registry)

        root = nodes[0]
        linked = _load_linked(cache, root)
        member_var_maps = (
            _compose_member_maps(
                cache,
                [("shardlink", key) for key in shard_keys],
                edges,
                root,
                linked,
            )
            if member_maps
            else None
        )
    finally:
        if ephemeral is not None:
            shutil.rmtree(ephemeral, ignore_errors=True)

    if registry is not None and registry.enabled:
        registry.add("shard.links")
        registry.add("shard.plan.shards", shards)
        registry.add("shard.plan.occupied", stats.occupied)
        registry.add("shard.plan.members", stats.members)
        registry.add("shard.merge.rounds", stats.rounds)
        registry.add("shard.constraints.runs", stats.constraints_runs)
        registry.add("shard.constraints.hits", stats.constraints_hits)
    if trace is not None:
        trace.emit("link", "shard", dict(stats.to_dict(), mode=options.cache_key))

    return ShardedLinkResult(
        plan=plan,
        options=options,
        linked=linked,
        root=root,
        shard_keys=shard_keys,
        stats=stats,
        member_var_maps=member_var_maps,
    )
