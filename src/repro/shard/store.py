"""Spill-to-disk store for named canonical solutions.

Full-scale linked programs have hundreds of thousands of named memory
locations; building the whole ``to_named_canonical()`` dict (names,
pointee name lists, plus the JSON text to hash it) roughly doubles the
solver's resident set right at its peak.  The store instead consumes
:meth:`repro.analysis.solution.Solution.iter_named_canonical` one entry
at a time and spills each entry to one of P hash-partitioned JSONL
files; reading streams the partitions back through a k-way
:func:`heapq.merge`, so neither writing nor reading ever holds more
than one partition's *keys* in memory.

Entries arrive in globally sorted name order (the iterator's contract),
so each partition file is written already sorted and needs no sort on
read.  The streaming :meth:`ShardSolutionStore.digest` reproduces —
byte for byte — the sha256 of the flat path's canonical JSON::

    sha256(json.dumps(solution.to_named_canonical(),
                      sort_keys=True, separators=(",", ":")))

which is the cross-build identity oracle used by the shard CI smoke and
the exactness tests.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import os
import pathlib
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from ..driver.cache import write_text_atomic

__all__ = ["ShardSolutionStore", "store_solution"]


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _partition_of(name: str, partitions: int) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % partitions


class ShardSolutionStore:
    """One named solution, spilled across hash-partitioned JSONL files.

    Lifecycle: construct → :meth:`write` every entry (sorted name order,
    as ``iter_named_canonical`` yields) → :meth:`finalize` with the
    external list → read via :meth:`iter_entries` / :meth:`digest` /
    :meth:`to_named_canonical`.  Writing after finalize, or reading
    before it, raises — a half-written store must never masquerade as a
    solution.
    """

    MANIFEST = "manifest.json"

    def __init__(self, root: os.PathLike, partitions: int = 16) -> None:
        if partitions < 1:
            raise ValueError("partitions must be >= 1")
        self.root = pathlib.Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.partitions = partitions
        self.entries = 0
        self._handles: Optional[List] = None
        self._finalized = self._load_manifest()

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _part_path(self, i: int) -> pathlib.Path:
        return self.root / f"part-{i:04d}.jsonl"

    def _open_handles(self) -> List:
        if self._handles is None:
            self._handles = [
                open(self._part_path(i), "w", encoding="utf-8")
                for i in range(self.partitions)
            ]
        return self._handles

    def write(self, name: str, pointees: List[str]) -> None:
        """Append one ``(name, pointees)`` entry to its partition."""
        if self._finalized:
            raise RuntimeError("store is finalized; cannot write")
        handles = self._open_handles()
        line = _dumps([name, pointees])
        handles[_partition_of(name, self.partitions)].write(line + "\n")
        self.entries += 1

    def finalize(self, external: List[str]) -> None:
        """Seal the store, recording the external set and entry count."""
        if self._finalized:
            raise RuntimeError("store is already finalized")
        for handle in self._open_handles():
            handle.close()
        self._handles = None
        manifest = {
            "partitions": self.partitions,
            "entries": self.entries,
            "external": list(external),
        }
        write_text_atomic(self.root / self.MANIFEST, _dumps(manifest))
        self._finalized = True
        self._external = list(external)

    def _load_manifest(self) -> bool:
        path = self.root / self.MANIFEST
        if not path.is_file():
            return False
        manifest = json.loads(path.read_text())
        self.partitions = int(manifest["partitions"])
        self.entries = int(manifest["entries"])
        self._external = list(manifest["external"])
        return True

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _require_finalized(self) -> None:
        if not self._finalized:
            raise RuntimeError("store is not finalized")

    @property
    def external(self) -> List[str]:
        self._require_finalized()
        return list(self._external)

    def _iter_partition(self, i: int) -> Iterator[Tuple[str, List[str]]]:
        path = self._part_path(i)
        if not path.is_file():
            return
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                if line.strip():
                    name, pointees = json.loads(line)
                    yield name, pointees

    def iter_entries(self) -> Iterator[Tuple[str, List[str]]]:
        """All entries in globally sorted name order (streaming k-way
        merge; partitions were written pre-sorted)."""
        self._require_finalized()
        yield from heapq.merge(
            *[self._iter_partition(i) for i in range(self.partitions)]
        )

    def to_named_canonical(self) -> Dict:
        """Materialise the full named canonical dict (small stores /
        tests only — defeats the point at scale)."""
        return {
            "points_to": dict(self.iter_entries()),
            "external": self.external,
        }

    def digest(self) -> str:
        """Streaming sha256 of the canonical JSON of this solution (see
        module docstring for the exact byte contract)."""
        self._require_finalized()
        h = hashlib.sha256()
        h.update(b'{"external":')
        h.update(_dumps(self.external).encode("utf-8"))
        h.update(b',"points_to":{')
        first = True
        for name, pointees in self.iter_entries():
            if not first:
                h.update(b",")
            first = False
            h.update(_dumps(name).encode("utf-8"))
            h.update(b":")
            h.update(_dumps(pointees).encode("utf-8"))
        h.update(b"}}")
        return h.hexdigest()


def store_solution(
    solution: "Iterable[Tuple[str, List[str]]]",
    external: List[str],
    root: os.PathLike,
    partitions: int = 16,
) -> ShardSolutionStore:
    """Stream ``solution`` entries (e.g. ``iter_named_canonical()``)
    into a fresh store under ``root`` and finalize it."""
    store = ShardSolutionStore(root, partitions=partitions)
    for name, pointees in solution:
        store.write(name, pointees)
    store.finalize(external)
    return store
