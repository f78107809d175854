"""In-memory projects with stage-granular incremental rebuilds.

A :class:`Project` owns a set of named C sources plus one
:class:`~repro.analysis.config.Configuration` and link policy, and keeps
them built through the staged pipeline (parse → lower → constraints →
link → solve) into an immutable :class:`Snapshot`: the linked
:class:`~repro.link.LinkedProgram` and its canonical
:class:`~repro.analysis.solution.Solution`, stamped with a monotone
generation counter.

Incrementality is *stage-granular* and content-addressed, not
diff-based: :meth:`Project.update` replaces whole members, and the
(name, content-digest) memos of the pipeline plus the project's own
member table guarantee that re-parsing/lowering/constraint-building
happens for exactly the edited members — the others replay their
existing :class:`~repro.pipeline.ConstraintsArtifact` (or their
``stages/`` disk-cache entry in a fresh process).  Linking and solving
always re-run on the joint program (both are cached by content too, so
an update that round-trips back to known text is nearly free).

Rebuilds are transactional: a frontend or link error during
``open``/``update`` leaves the project serving its previous generation
unchanged.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..analysis.config import Configuration
from ..analysis.frontend import ModuleConstraints, SummaryFn, build_constraints
from ..analysis.omega import OMEGA
from ..analysis.solution import Solution
from ..analysis.api import DEFAULT_CONFIGURATION
from ..driver.cache import ResultCache
from ..link import LinkedProgram, LinkOptions
from ..obs import NULL_REGISTRY, Registry
from ..pipeline import ConstraintsArtifact, Pipeline, SourceArtifact

__all__ = ["MemberBinding", "Project", "Snapshot"]


class MemberBinding:
    """One member's IR↔joint-solution view, for value-level queries.

    The joint :class:`Solution` speaks joint constraint-variable
    indexes; alias oracles and the call-graph client speak IR values of
    one member module.  A binding re-derives the member's
    :class:`ModuleConstraints` (deterministic from the memoised module)
    and composes its value→variable map with the linker's
    original→joint map, presenting exactly the interface
    :class:`repro.alias.AndersenAA` and
    :func:`repro.clients.callgraph.build_call_graph` consume.
    """

    def __init__(
        self,
        built: ModuleConstraints,
        mapping: Sequence[int],
        solution: Solution,
    ):
        self.built = built
        self.mapping = list(mapping)
        self.solution = solution
        self._value_of_loc: Dict[int, object] = {}
        for value, loc in built.memloc_of.items():
            self._value_of_loc[loc] = value
        for call, loc in built.heap_site_of.items():
            self._value_of_loc[loc] = call

    @property
    def module(self):
        return self.built.module

    def points_to(self, value) -> frozenset:
        """Sol of the member value, in *joint* indexes (plus Ω)."""
        var = self.built.var_of_value.get(value)
        if var is None:
            return frozenset()
        try:
            return self.solution.points_to(self.mapping[var])
        except KeyError:
            return frozenset()

    def externally_accessible_values(self) -> frozenset:
        """The member's memory objects that are in the joint E."""
        external = self.solution.external
        return frozenset(
            value
            for loc, value in self._value_of_loc.items()
            if self.mapping[loc] in external
        )


@dataclass
class Snapshot:
    """One generation's immutable analysis state.

    Queries answered against a snapshot are stable: a concurrent
    ``update`` produces a *new* snapshot and never mutates this one.
    Member bindings (and the name→variable index) are derived lazily and
    memoised on the snapshot, so pure solution-level sessions never
    touch the frontend.
    """

    generation: int
    config: Configuration
    options: LinkOptions
    sources: Tuple[SourceArtifact, ...]
    members: Tuple[ConstraintsArtifact, ...]
    linked: LinkedProgram
    solution: Solution
    _pipeline: Pipeline
    _summaries: Optional[Dict[str, SummaryFn]] = None
    _bindings: Dict[str, MemberBinding] = field(default_factory=dict)
    _vars_by_name: Optional[Dict[str, List[int]]] = None
    #: guards the lazy binding/name-index memos — concurrent read-only
    #: query workers share one snapshot and may race to derive them
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # ------------------------------------------------------------------

    def member_names(self) -> List[str]:
        return [src.name for src in self.sources]

    def source(self, name: str) -> SourceArtifact:
        for src in self.sources:
            if src.name == name:
                return src
        raise KeyError(name)

    def binding(self, name: str) -> MemberBinding:
        """The (lazily built) value-level view of one member."""
        with self._lock:
            binding = self._bindings.get(name)
            if binding is not None:
                return binding
            src = self.source(name)  # KeyError on unknown members
            module = self._pipeline.lower(src)
            built = build_constraints(module, self._summaries)
            member = next(m for m in self.members if m.name == name)
            if built.program.digest() != member.program_digest:
                raise RuntimeError(
                    f"non-deterministic constraint build for member {name!r}"
                )
            binding = MemberBinding(
                built, self.linked.var_maps[name], self.solution
            )
            self._bindings[name] = binding
            return binding

    def vars_named(self, name: str) -> List[int]:
        """Joint variable indexes carrying ``name`` (usually 0 or 1)."""
        with self._lock:
            index = self._vars_by_name
            if index is None:
                index = {}
                for v, var_name in enumerate(self.linked.program.var_names):
                    index.setdefault(var_name, []).append(v)
                self._vars_by_name = index
        return index.get(name, [])

    # ------------------------------------------------------------------

    def named_solution(self) -> Dict:
        """The canonical name-keyed solution (byte-comparable form)."""
        return self.solution.to_named_canonical()

    def omega_pointers(self) -> List[str]:
        """Names of memory-location pointers with Ω in their Sol set."""
        program = self.linked.program
        names = []
        for p in self.solution.pointers():
            if program.in_m[p] and OMEGA in self.solution.points_to(p):
                names.append(program.var_names[p])
        return sorted(names)

    def imp_funcs(self) -> List[str]:
        """Names of functions still classified ImpFunc after linking."""
        program = self.linked.program
        return sorted(
            program.var_names[v]
            for v in range(program.num_vars)
            if program.flag_impfunc[v]
        )

    def summary(self) -> Dict:
        """Status block: generation, membership and joint sizes."""
        return {
            "generation": self.generation,
            "config": self.config.name,
            "options": self.options.to_dict(),
            "members": self.member_names(),
            "digests": {src.name: src.digest for src in self.sources},
            "link": self.linked.summary(),
        }


class Project:
    """Sources + configuration kept built through the staged pipeline.

    ``cache`` (optional) backs the persistent pipeline stages, so a
    server restarted over known sources rebuilds from disk without
    parsing or solving; ``registry`` receives the pipeline's
    ``pipeline.<stage>.*`` counters — the observable proof that an
    update re-ran exactly the edited members.
    """

    def __init__(
        self,
        config: Optional[Configuration] = None,
        options: Optional[LinkOptions] = None,
        cache: Optional[ResultCache] = None,
        summaries: Optional[Dict[str, SummaryFn]] = None,
        summaries_tag: str = "default",
        registry: Optional[Registry] = None,
    ) -> None:
        self.config = config if config is not None else DEFAULT_CONFIGURATION
        self.options = options if options is not None else LinkOptions()
        self.registry = registry if registry is not None else NULL_REGISTRY
        self.pipeline = Pipeline(
            cache=cache,
            summaries=summaries,
            summaries_tag=summaries_tag,
            registry=self.registry,
        )
        self._summaries = summaries
        self.generation = 0
        self._sources: Dict[str, SourceArtifact] = {}
        #: (name, digest) → ConstraintsArtifact; the member-level memo
        #: that makes an N−1-unchanged update skip N−1 constraint builds
        self._member_memo: Dict[Tuple[str, str], ConstraintsArtifact] = {}
        self._snapshot: Optional[Snapshot] = None
        #: serializes rebuilds: one writer builds generation G+1 while
        #: readers keep answering against the immutable snapshot G (the
        #: commit is a single attribute assignment, atomic under the GIL)
        self._write_lock = threading.RLock()

    # ------------------------------------------------------------------

    @property
    def is_open(self) -> bool:
        return self._snapshot is not None

    @property
    def snapshot(self) -> Snapshot:
        if self._snapshot is None:
            raise RuntimeError("no project open (call open() first)")
        return self._snapshot

    # ------------------------------------------------------------------

    def open(self, files: Mapping[str, str]) -> Snapshot:
        """(Re)build the project from scratch over ``files``.

        ``files`` maps member names to source text; iteration order is
        link order.  Raises frontend/link errors without changing the
        previously served state.
        """
        if not files:
            raise ValueError("cannot open a project with no sources")
        with self._write_lock:
            sources = {
                name: SourceArtifact.of(name, text)
                for name, text in files.items()
            }
            snapshot = self._rebuild(sources)
            self._sources = sources
            return snapshot

    def update(
        self,
        changed: Optional[Mapping[str, str]] = None,
        removed: Sequence[str] = (),
    ) -> Snapshot:
        """Apply an edit set and rebuild incrementally.

        ``changed`` maps member names to their new text (new names are
        appended to the link order); ``removed`` names leave the
        project.  An update that changes nothing still advances the
        generation (the rebuild replays entirely from memos).
        """
        with self._write_lock:
            if self._snapshot is None:
                raise RuntimeError("no project open (call open() first)")
            sources = dict(self._sources)
            for name in removed:
                if name not in sources:
                    raise KeyError(f"cannot remove unknown member {name!r}")
                del sources[name]
            for name, text in (changed or {}).items():
                sources[name] = SourceArtifact.of(name, text)
            if not sources:
                raise ValueError("update would leave the project empty")
            snapshot = self._rebuild(sources)
            self._sources = sources
            return snapshot

    def restore(
        self,
        sources: Sequence[SourceArtifact],
        members: Sequence[ConstraintsArtifact],
        linked: LinkedProgram,
        solution: Solution,
        generation: int,
    ) -> Snapshot:
        """Adopt a previously persisted generation without rebuilding.

        The snapshot-persistence layer (:mod:`repro.serve.state`) calls
        this with fully validated artifacts: the project starts serving
        ``generation`` immediately, and the member memo is seeded so the
        first ``update`` is as incremental as it would have been in the
        original process.
        """
        with self._write_lock:
            self.generation = generation
            self._sources = {src.name: src for src in sources}
            for src, member in zip(sources, members):
                self._member_memo[(src.name, src.digest)] = member
            self._snapshot = Snapshot(
                generation=generation,
                config=self.config,
                options=self.options,
                sources=tuple(sources),
                members=tuple(members),
                linked=linked,
                solution=solution,
                _pipeline=self.pipeline,
                _summaries=self._summaries,
            )
            return self._snapshot

    # ------------------------------------------------------------------

    def _member(self, src: SourceArtifact) -> ConstraintsArtifact:
        key = (src.name, src.digest)
        member = self._member_memo.get(key)
        if member is None:
            member = self.pipeline.constraints(src)
            self._member_memo[key] = member
        return member

    def _rebuild(self, sources: Mapping[str, SourceArtifact]) -> Snapshot:
        members = [self._member(src) for src in sources.values()]
        link_art = self.pipeline.link(members, self.options)
        linked = link_art.linked
        solve_art = self.pipeline.solve(
            linked.program, self.config, program_digest=None
        )
        solution = solve_art.attach(linked.program)
        self.generation += 1
        self.registry.add("serve.generations")
        self._snapshot = Snapshot(
            generation=self.generation,
            config=self.config,
            options=self.options,
            sources=tuple(sources.values()),
            members=tuple(members),
            linked=linked,
            solution=solution,
            _pipeline=self.pipeline,
            _summaries=self._summaries,
        )
        return self._snapshot

    # ------------------------------------------------------------------

    def stage_report(self, timings: bool = True) -> Dict[str, Dict]:
        """Cumulative pipeline stage counters (see Pipeline)."""
        return self.pipeline.stage_report(timings=timings)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            f"generation {self.generation}, {len(self._sources)} members"
            if self._snapshot is not None
            else "closed"
        )
        return f"<Project {state}>"
