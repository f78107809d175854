"""``repro.shard`` — sharded, hierarchical cross-TU analysis.

The flat cross-TU path (:meth:`repro.pipeline.Pipeline.link_sources`)
builds every TU's constraints and links them in one process.  At the
paper's full Table III scale (thousands of TUs) that serialises the
dominant frontend cost and holds every intermediate in one address
space.  This package splits the path three ways (``docs/internals.md``
§14):

- :mod:`repro.shard.plan` — a deterministic planner assigning TUs to K
  shards by *name* hash, so editing a TU's content never migrates it to
  a different shard (the property that makes warm re-links touch one
  shard only).
- :mod:`repro.shard.driver` — per-shard constraint building + linking as
  driver-pool jobs, then a hierarchical O(log K) merge tree over the
  linker's re-linkable joint symbol tables.  Every stage is a
  content-addressed cache artifact (``shardlink`` / ``shardmerge``
  stages), so a one-TU edit re-runs exactly one shard link plus the
  merge spine above it.
- :mod:`repro.shard.store` — a spill-to-disk named-solution store fed by
  :meth:`repro.analysis.solution.Solution.iter_named_canonical`, so
  full-scale named solutions never materialise in RAM; its streaming
  digest is byte-equal to the flat path's canonical JSON digest (the
  correctness oracle).

Interior merge nodes always link **open**: internalizing a strict
subset of the program would unsoundly hide symbols the rest of the tree
still imports.  Only the root applies the caller's
:class:`repro.link.LinkOptions`.
"""

from .driver import ShardError, ShardedLinkResult, ShardStats, link_sharded
from .plan import ShardPlan, plan_shards, shard_of
from .store import ShardSolutionStore, store_solution
from .tree import MergeNode, merge_rounds, spine_slots, spine_union

__all__ = [
    "MergeNode",
    "ShardError",
    "ShardPlan",
    "ShardSolutionStore",
    "ShardStats",
    "ShardedLinkResult",
    "link_sharded",
    "merge_rounds",
    "plan_shards",
    "shard_of",
    "spine_slots",
    "spine_union",
    "store_solution",
]
