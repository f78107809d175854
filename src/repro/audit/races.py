"""The data-race candidate finder over modref summaries.

IR-tier client.  Thread-entry roots come from ``pthread_create``-style
spawn sites (the start-routine argument's points-to set, resolved to
defined functions), with a ``roots`` parameter overriding detection for
programs whose spawn API the scanner does not know.  ``main`` (when
defined) is the implicit original thread.

Two roots may run concurrently; their transitive may-mod/may-ref
summaries (:func:`repro.clients.modref.compute_mod_ref` — callee
effects and the external Ω footprint already folded in) intersect into
the set of shared abstract objects.  A write/write overlap is a
``high`` candidate, write/read ``medium``.  An overlap *on Ω itself* is
reported once, unbounded: both regions touch unknown external memory,
and nothing more precise can be said about incomplete programs.

Function memory locations are excluded from conflict objects (code is
not data), and a root paired with itself is considered only when it is
spawned at least twice — and then only on global-symbol objects, since
the abstraction cannot distinguish the two instances' private frames.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..analysis.omega import OMEGA
from ..clients.callgraph import build_call_graph
from ..clients.modref import compute_mod_ref
from ..ir import Call
from ..ir.module import Function
from .base import AuditClient, AuditContext, register
from .findings import Evidence, Finding

__all__ = ["RaceAudit", "THREAD_SPAWN"]

#: spawn-API name → 0-based index of the start-routine argument
THREAD_SPAWN = {"pthread_create": 2, "thrd_create": 1}


class RaceAudit(AuditClient):
    name = "races"
    title = "data-race candidates between call-graph-concurrent regions"
    requires_ir = True
    PARAMS = {"roots": []}

    def run(self, context: AuditContext, params: Dict) -> List[Finding]:
        bindings = self.ir_members(context)
        findings: List[Finding] = []
        for member in sorted(bindings):
            findings.extend(
                self._member_findings(context, member, bindings[member], params)
            )
        return findings

    # ------------------------------------------------------------------

    def _member_findings(
        self, context: AuditContext, member: str, binding, params: Dict
    ) -> List[Finding]:
        module = binding.built.module
        graph = build_call_graph(binding)
        summaries = compute_mod_ref(binding, graph)
        program = context.program

        spawn_counts: Dict[Function, int] = {}
        spawn_evidence: Dict[Function, List[Evidence]] = {}
        override = params["roots"]
        if override:
            for name in override:
                fn = module.functions.get(name)
                if fn is None or fn.is_declaration:
                    continue  # override names live in another member
                spawn_counts[fn] = spawn_counts.get(fn, 0) + 1
                spawn_evidence.setdefault(fn, []).append(
                    Evidence(
                        "call-edge",
                        f"{fn.name} declared a thread root by the"
                        " 'roots' parameter",
                        (fn.name,),
                    )
                )
        else:
            self._detect_spawns(binding, module, spawn_counts, spawn_evidence)

        if not spawn_counts:
            return []

        parties: List[Function] = []
        main = module.functions.get("main")
        if main is not None and not main.is_declaration:
            if main not in spawn_counts:
                parties.append(main)
        parties.extend(spawn_counts)

        pairs: List[Tuple[Function, Function]] = []
        for i, a in enumerate(parties):
            for b in parties[i + 1 :]:
                pairs.append((a, b))
        for root, count in spawn_counts.items():
            if count >= 2:
                pairs.append((root, root))

        data_symbols = {
            sym.var
            for sym in program.symbols.values()
            if sym.kind == "data"
        }
        funcs = set(program.funcs_of)

        out: List[Finding] = []
        for a, b in pairs:
            sa, sb = summaries.get(a), summaries.get(b)
            if sa is None or sb is None:
                continue
            write_write = sa.mod & sb.mod
            read_write = ((sa.mod & sb.ref) | (sa.ref & sb.mod)) - write_write
            shared = [(o, True) for o in write_write] + [
                (o, False) for o in read_write
            ]
            for obj, is_ww in sorted(
                shared, key=lambda item: self._display(program, item[0])
            ):
                if obj != OMEGA and obj in funcs:
                    continue  # code is not data
                if a is b and obj != OMEGA and obj not in data_symbols:
                    continue  # self-race: instance-private frames aliased
                display = self._display(program, obj)
                unbounded = obj == OMEGA
                evidence: List[Evidence] = []
                for root in dict.fromkeys((a, b)):
                    evidence.extend(spawn_evidence.get(root, []))
                for side, summary in ((a, sa), (b, sb)):
                    access = (
                        "write"
                        if obj in summary.mod
                        else "read"
                    )
                    evidence.append(
                        Evidence(
                            "modref",
                            f"{side.name} may {access} {display}"
                            " (transitive modref summary)",
                            (side.name, display),
                        )
                    )
                who = (
                    f"two instances of {a.name}"
                    if a is b
                    else f"{a.name} and {b.name}"
                )
                out.append(
                    Finding(
                        client=self.name,
                        kind="race-candidate",
                        severity="high" if is_ww else "medium",
                        subject=f"{member}:{display}",
                        message=(
                            f"{who} may run concurrently and both"
                            f" write {display}"
                            if is_ww
                            else f"{who} may run concurrently; one"
                            f" writes {display} while the other"
                            " reads it"
                        ),
                        may_must="may",
                        unbounded=unbounded,
                        evidence=tuple(evidence),
                    )
                )
        return out

    # ------------------------------------------------------------------

    def _detect_spawns(
        self, binding, module, spawn_counts, spawn_evidence
    ) -> None:
        functions_by_joint = {}
        for value, loc in binding.built.memloc_of.items():
            if isinstance(value, Function):
                functions_by_joint[binding.mapping[loc]] = value
        for fn in module.defined_functions():
            for inst in fn.instructions():
                if not (
                    isinstance(inst, Call)
                    and inst.is_direct()
                    and isinstance(inst.callee, Function)
                    and inst.callee.name in THREAD_SPAWN
                ):
                    continue
                position = THREAD_SPAWN[inst.callee.name]
                if position >= len(inst.args):
                    continue
                routines = [
                    functions_by_joint.get(x)
                    for x in binding.points_to(inst.args[position])
                    if x != OMEGA
                ]
                for routine in sorted(
                    (
                        r
                        for r in routines
                        if r is not None and not r.is_declaration
                    ),
                    key=lambda f: f.name,
                ):
                    spawn_counts[routine] = spawn_counts.get(routine, 0) + 1
                    spawn_evidence.setdefault(routine, []).append(
                        Evidence(
                            "call-edge",
                            f"{fn.name} spawns {routine.name} via"
                            f" {inst.callee.name}",
                            (fn.name, routine.name, inst.callee.name),
                        )
                    )

    @staticmethod
    def _display(program, obj) -> str:
        return obj if obj == OMEGA else program.var_names[obj]


register(RaceAudit())
