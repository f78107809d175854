"""The cross-TU constraint linker.

:func:`link_programs` merges per-TU constraint programs (paper phase-1
artifacts) into one joint program, in three steps:

1. **Symbol resolution.**  Non-``internal`` symbols are grouped by name.
   At most one occurrence may be a definition (two strong definitions is
   a link error naming both modules, mirroring
   :func:`repro.ir.verifier.verify_modules`); declarations whose printed
   type conflicts with the definition's are rejected the same way.
   Unprototyped declarations (``i32(...)``) are compatible with any
   definition, like a C89 implicit declaration.

2. **Renumbering.**  Programs are processed in link order; every
   variable gets a dense joint index at its first occurrence, and later
   occurrences of a *resolved symbol* map onto the representative
   created by the first.  The per-module original→joint maps are kept on
   the result (:attr:`LinkedProgram.var_maps`) so per-TU solutions can
   be compared against the joint one.  Because the first member's
   variables are renumbered identically regardless of what follows, a
   TU-prefix ladder observes the same joint indexes for TU₀ at every
   rung.

3. **De-escaping.**  Semantic flags (escapes observed in data flow) are
   OR-merged and are untouchable.  Linkage-seeded escapes are discarded
   and *recomputed* for the joint unit: an import satisfied by a member
   definition no longer feeds Ω by itself, and ``ImpFunc`` survives only
   on still-unresolved functions.  Exported definitions stay externally
   accessible (the linked unit is still an incomplete program) unless
   :attr:`LinkOptions.internalize` hides them.

Monotonicity: ``ImpFunc``/Ω over-approximate *any* possible external
code, including the member TUs themselves, so replacing the implicit
model of a TU with its real constraints can only shrink the solution —
|Ω| and every concretized Sol set are non-increasing along any TU-prefix
chain (the Hypothesis property suite checks exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.constraints import ConstraintProgram, ProgramSymbol
from ..obs import Registry, scope as _obs_scope


class LinkError(Exception):
    """Symbol-resolution failure; ``errors`` lists every violation."""

    def __init__(self, errors: List[str]):
        self.errors = errors
        super().__init__("\n".join(errors))


@dataclass(frozen=True)
class LinkOptions:
    """Link-time policy knobs.

    ``internalize=False`` (the default) keeps concatenation semantics:
    exported definitions remain externally accessible, exactly as if the
    member sources had been pasted into one file — the sound, monotone
    mode the prefix ladder uses.  ``internalize=True`` treats the link
    set as the whole program (LTO-style): exported definitions outside
    ``keep`` lose their linkage escape.  Only sound when the link set
    really is closed, so it is never applied to prefixes.
    """

    internalize: bool = False
    keep: Tuple[str, ...] = ("main",)

    @property
    def cache_key(self) -> str:
        if not self.internalize:
            return "open"
        return "internalize:" + ",".join(sorted(self.keep))

    def to_dict(self) -> Dict:
        return {"internalize": self.internalize, "keep": sorted(self.keep)}

    @classmethod
    def from_dict(cls, data: Dict) -> "LinkOptions":
        return cls(
            internalize=bool(data["internalize"]), keep=tuple(data["keep"])
        )


@dataclass
class SymbolResolution:
    """Link-time fate of one non-internal symbol name."""

    name: str
    kind: str  # "func" | "data"
    var: int  # joint constraint variable
    defined_in: Optional[str]  # member module name, None if unresolved
    referenced_by: List[str]  # member modules that only declare it
    internalized: bool = False

    @property
    def resolved(self) -> bool:
        return self.defined_in is not None

    def to_dict(self) -> Dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "var": self.var,
            "defined_in": self.defined_in,
            "referenced_by": list(self.referenced_by),
            "internalized": self.internalized,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SymbolResolution":
        return cls(
            name=data["name"],
            kind=data["kind"],
            var=int(data["var"]),
            defined_in=data["defined_in"],
            referenced_by=list(data["referenced_by"]),
            internalized=bool(data["internalized"]),
        )


@dataclass
class LinkedProgram:
    """A joint constraint program plus link provenance."""

    program: ConstraintProgram
    options: LinkOptions
    members: List[str]  # module names in link order
    #: per member module: original variable index → joint index
    var_maps: Dict[str, List[int]]
    #: per non-internal symbol name, its link-time resolution
    resolutions: Dict[str, SymbolResolution]

    # ------------------------------------------------------------------

    def member_vars(self, member: str) -> List[int]:
        """Joint indexes of one member's variables (its image)."""
        return self.var_maps[member]

    def resolved_imports(self) -> List[str]:
        """Names that some member imports and another member defines."""
        return sorted(
            name
            for name, res in self.resolutions.items()
            if res.resolved and res.referenced_by
        )

    def unresolved_imports(self) -> List[str]:
        """Names no member defines (still satisfied only by Ω)."""
        return sorted(
            name for name, res in self.resolutions.items() if not res.resolved
        )

    def summary(self) -> Dict[str, int]:
        return {
            "members": len(self.members),
            "joint_vars": self.program.num_vars,
            "joint_constraints": self.program.num_constraints(),
            "symbols": len(self.resolutions),
            "resolved_imports": len(self.resolved_imports()),
            "unresolved_imports": len(self.unresolved_imports()),
        }

    # ------------------------------------------------------------------
    # Canonical serialisation (pipeline stage cache)
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "program": self.program.to_dict(),
            "options": self.options.to_dict(),
            "members": list(self.members),
            "var_maps": {m: list(v) for m, v in self.var_maps.items()},
            "resolutions": [
                self.resolutions[name].to_dict()
                for name in sorted(self.resolutions)
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "LinkedProgram":
        return cls(
            program=ConstraintProgram.from_dict(data["program"]),
            options=LinkOptions.from_dict(data["options"]),
            members=list(data["members"]),
            var_maps={m: list(v) for m, v in data["var_maps"].items()},
            resolutions={
                r["name"]: SymbolResolution.from_dict(r)
                for r in data["resolutions"]
            },
        )


# ----------------------------------------------------------------------


def _types_conflict(def_key: str, decl_key: str) -> bool:
    """A declaration conflicts with the definition it resolves to unless
    the printed types match or the declaration is unprototyped (C89
    implicit / empty parameter list, printed with ``...``)."""
    return def_key != decl_key and "..." not in decl_key


def resolve_symbols(
    programs: Sequence[ConstraintProgram],
) -> Dict[str, List[Tuple[ConstraintProgram, ProgramSymbol]]]:
    """Group non-internal symbols by name, validating resolution rules.

    Raises :class:`LinkError` on duplicate strong definitions or
    def/decl type conflicts; each message names both offending modules.
    """
    occurrences: Dict[str, List[Tuple[ConstraintProgram, ProgramSymbol]]] = {}
    for program in programs:
        for sym in program.symbols.values():
            if sym.linkage == "internal":
                continue
            occurrences.setdefault(sym.name, []).append((program, sym))

    errors: List[str] = []
    for name in sorted(occurrences):
        occs = occurrences[name]
        defined = [(p, s) for p, s in occs if s.defined]
        if len(defined) > 1:
            mods = " and ".join(f"'{p.name}'" for p, _ in defined[:2])
            errors.append(
                f"duplicate definition of symbol '{name}' in modules {mods}"
            )
            continue
        if not defined:
            continue
        def_program, def_sym = defined[0]
        for program, sym in occs:
            if sym.defined:
                continue
            if sym.kind != def_sym.kind:
                errors.append(
                    f"symbol kind mismatch for '{name}': {def_sym.kind}"
                    f" definition in module '{def_program.name}',"
                    f" {sym.kind} declaration in module '{program.name}'"
                )
            elif _types_conflict(def_sym.type_key, sym.type_key):
                errors.append(
                    f"type mismatch for symbol '{name}': defined as"
                    f" {def_sym.type_key} in module '{def_program.name}',"
                    f" declared as {sym.type_key} in module '{program.name}'"
                )
    if errors:
        raise LinkError(errors)
    return occurrences


def linked_name(names: Sequence[str]) -> str:
    """The joint program's name for members ``names`` in link order."""
    return "linked(" + "+".join(names) + ")"


def link_programs(
    programs: Sequence[ConstraintProgram],
    options: Optional[LinkOptions] = None,
    registry: Optional[Registry] = None,
) -> LinkedProgram:
    """Merge per-TU constraint programs into one joint program.

    ``registry`` (optional) receives ``link.*`` counters and one timer
    per pass (``link.resolve`` / ``link.renumber`` / ``link.copy`` /
    ``link.deescape``); profiling never changes the linked output.
    """
    options = options if options is not None else LinkOptions()
    programs = list(programs)
    if not programs:
        raise LinkError(["cannot link zero programs"])
    names = [p.name for p in programs]
    if len(set(names)) != len(names):
        raise LinkError([f"duplicate member module names: {names}"])
    for program in programs:
        if program.omega is not None:
            raise LinkError(
                [
                    f"module '{program.name}' is EP-lowered; link phase-1"
                    " (implicit-Ω) programs and lower the joint program"
                ]
            )

    with _obs_scope(registry, "link.resolve"):
        occurrences = resolve_symbols(programs)
    defined_in: Dict[str, str] = {}
    def_sym_of: Dict[str, ProgramSymbol] = {}
    for name, occs in occurrences.items():
        for program, sym in occs:
            if sym.defined:
                defined_in[name] = program.name
                def_sym_of[name] = sym

    linked = ConstraintProgram(linked_name(names))

    # --- pass 1: renumber ---------------------------------------------
    rep: Dict[str, int] = {}  # symbol name → joint representative var
    var_maps: Dict[str, List[int]] = {}
    with _obs_scope(registry, "link.renumber"):
        for program in programs:
            sym_by_var = {
                s.var: s
                for s in program.symbols.values()
                if s.linkage != "internal"
            }
            mapping: List[int] = []
            for v in range(program.num_vars):
                sym = sym_by_var.get(v)
                if sym is not None and sym.name in rep:
                    j = rep[sym.name]
                    # Classification must agree across occurrences;
                    # tolerate a pointer-compatible occurrence widening
                    # the joint var.
                    if program.in_p[v]:
                        linked.in_p[j] = True
                else:
                    j = linked.add_var(
                        program.var_names[v], program.in_p[v], program.in_m[v]
                    )
                    if sym is not None:
                        rep[sym.name] = j
                mapping.append(j)
            var_maps[program.name] = mapping

    # --- pass 2: copy constraints and semantic flags ------------------
    with _obs_scope(registry, "link.copy"):
        for program in programs:
            m = var_maps[program.name]
            for v in range(program.num_vars):
                j = m[v]
                linked.base[j].update(m[x] for x in program.base[v])
                linked.simple_out[j].update(
                    m[x] for x in program.simple_out[v] if m[x] != j
                )
                linked.load_from[j].extend(m[x] for x in program.load_from[v])
                linked.store_into[j].extend(
                    m[x] for x in program.store_into[v]
                )
                if program.flag_pte[v]:
                    linked.flag_pte[j] = True
                if program.flag_pe[v]:
                    linked.flag_pe[j] = True
                if program.flag_sscalar[v]:
                    linked.flag_sscalar[j] = True
                if program.flag_lscalar[v]:
                    linked.flag_lscalar[j] = True
                if program.flag_ea[v] and v not in program.linkage_ea:
                    linked.mark_externally_accessible(j)  # semantic
            for fc in program.funcs:
                linked.add_func(
                    m[fc.func],
                    None if fc.ret is None else m[fc.ret],
                    [None if a is None else m[a] for a in fc.args],
                    variadic=fc.variadic,
                )
            for cc in program.calls:
                linked.add_call(
                    m[cc.target],
                    None if cc.ret is None else m[cc.ret],
                    [None if a is None else m[a] for a in cc.args],
                )

    # --- pass 3: de-escape (recompute linkage seeds) ------------------
    resolutions: Dict[str, SymbolResolution] = {}
    with _obs_scope(registry, "link.deescape"):
        for name in sorted(occurrences):
            occs = occurrences[name]
            j = rep[name]
            resolved = name in defined_in
            kind = occs[0][1].kind
            referenced_by = [p.name for p, s in occs if not s.defined]
            internalized = False
            if not resolved:
                # Still satisfied only by the external world.
                linked.mark_externally_accessible(j, linkage=True)
                if kind == "func" and any(
                    p.flag_impfunc[s.var] for p, s in occs
                ):
                    linked.mark_imported_function(j)
            elif options.internalize and name not in options.keep:
                internalized = True  # hidden: no linkage escape
            else:
                linked.mark_externally_accessible(j, linkage=True)
            resolutions[name] = SymbolResolution(
                name=name,
                kind=kind,
                var=j,
                defined_in=defined_in.get(name),
                referenced_by=referenced_by,
                internalized=internalized,
            )
            # Joint symbol table: the linked program is itself linkable.
            # For unresolved symbols the joint declaration keeps the most
            # specific (prototyped) type among the occurrences, so a later
            # staged merge against a definition still sees any conflict —
            # an unprototyped first occurrence must not launder a
            # conflicting prototyped one behind "...".
            def_sym = def_sym_of.get(name)
            if def_sym is not None:
                type_key = def_sym.type_key
            else:
                type_key = min(
                    (s.type_key for _, s in occs),
                    key=lambda k: ("..." in k, k),
                )
            linked.add_symbol(
                ProgramSymbol(
                    name=name,
                    var=j,
                    kind=kind,
                    linkage=(
                        "internal"
                        if internalized
                        else ("external" if resolved else "import")
                    ),
                    defined=resolved,
                    type_key=type_key,
                )
            )

    if registry is not None and registry.enabled:
        registry.add("link.links")
        registry.add("link.members", len(programs))
        registry.add("link.symbols", len(resolutions))
        registry.add("link.joint_vars", linked.num_vars)
        resolved_n = sum(
            1
            for res in resolutions.values()
            if res.resolved and res.referenced_by
        )
        unresolved_n = sum(
            1 for res in resolutions.values() if not res.resolved
        )
        registry.add("link.resolved_imports", resolved_n)
        registry.add("link.unresolved_imports", unresolved_n)

    return LinkedProgram(
        program=linked,
        options=options,
        members=names,
        var_maps=var_maps,
        resolutions=resolutions,
    )
