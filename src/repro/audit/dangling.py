"""Dangling-pointer candidates: use-after-free, double-free, dead stack.

IR-tier client.  Three scenario families share one scan:

- **use-after-free / double-free** — a load/store/memcpy (or another
  free) whose pointer's Sol intersects the Sol of a pointer previously
  passed to a ``frees``-listed deallocator *in the same function, later
  in layout order*.  Andersen's solution is flow-insensitive, so layout
  order is a proxy for program order and every hit is a **may** finding
  — except a ``MustAlias`` double-free of the identical SSA pointer,
  which holds on every execution reaching it.
- **stack-return / stack-escape** — a frame's alloca outliving its
  scope: returned directly, or stored into memory that outlives the
  frame (a global, a heap cell, Ω/E).  Storing a local's address into
  another *local* is ordinary by-reference argument passing and is not
  reported.
- **dead-scope-access** — a load/store in one function whose pointer
  may target an alloca owned by a *different* function, when that
  alloca independently escaped (a stack-return/stack-escape finding
  names it).  Without the escape gate this would flag every
  by-reference callee; with it, the access is evidence the dangling
  address actually travels.

The alias ``oracle`` parameter picks the engine answering the
free-vs-access intersection queries, exactly as in the serve
``may_alias`` method.
"""

from __future__ import annotations

from typing import Dict, List

from ..analysis.omega import OMEGA
from ..ir import Alloca, Call, Load, Memcpy, Ret, Store
from ..ir.module import Function
from .base import AuditClient, AuditContext, make_oracle, register
from .findings import Evidence, Finding

__all__ = ["DanglingAudit"]

from ..alias import MUST_ALIAS, NO_ALIAS
from ..alias.client import _access_size


class DanglingAudit(AuditClient):
    name = "dangling"
    title = "use-after-free, double-free and escaped-stack candidates"
    requires_ir = True
    PARAMS = {"frees": ["free"]}

    def run(self, context: AuditContext, params: Dict) -> List[Finding]:
        bindings = self.ir_members(context)
        frees = params["frees"]
        if not isinstance(frees, list) or not all(
            isinstance(name, str) and name for name in frees
        ):
            from .base import AuditError

            raise AuditError(
                f"frees must be a list of function names: {frees!r}"
            )
        findings: List[Finding] = []
        for member in sorted(bindings):
            findings.extend(
                self._member_findings(
                    context, member, bindings[member], set(frees),
                    params["oracle"],
                )
            )
        return findings

    # ------------------------------------------------------------------

    def _member_findings(
        self, context: AuditContext, member: str, binding, frees, oracle
    ) -> List[Finding]:
        program = context.program
        names = program.var_names
        module = binding.built.module
        aa = make_oracle(binding, oracle)

        # Member-wide alloca map: joint index → (owner function, name).
        allocas: Dict[int, tuple] = {}
        for value, loc in binding.built.memloc_of.items():
            if isinstance(value, Alloca) and value.parent is not None:
                joint = binding.mapping[loc]
                allocas[joint] = (value.parent.parent, names[joint])

        # Locations that outlive any frame: globals, heap cells, E, Ω.
        outliving = set(binding.mapping[loc]
                        for loc in binding.built.heap_site_of.values())
        outliving |= {
            sym.var
            for sym in program.symbols.values()
            if sym.kind == "data"
        }
        outliving |= set(context.solution.external)

        findings: List[Finding] = []
        escaped: Dict[int, Finding] = {}

        for fn in module.defined_functions():
            findings.extend(
                self._scan_frees(member, fn, binding, aa, frees, names)
            )
            findings.extend(
                self._scan_stack(
                    member, fn, binding, allocas, outliving, names, escaped
                )
            )

        # Pass C needs the full escaped set, so it runs after all
        # functions contributed their stack-return/stack-escape findings.
        for fn in module.defined_functions():
            for index, inst in enumerate(fn.instructions()):
                for what, ptr in self._accessed_pointers(inst):
                    pts = binding.points_to(ptr)
                    for joint in sorted(pts & set(escaped)):
                        owner, aname = allocas[joint]
                        if owner is fn:
                            continue
                        findings.append(
                            Finding(
                                client=self.name,
                                kind="dead-scope-access",
                                severity="medium",
                                subject=f"{member}:{fn.name}#{index}",
                                message=(
                                    f"{what} in {fn.name} may target"
                                    f" {aname}, a stack slot of"
                                    f" {owner.name} that escapes its"
                                    " frame"
                                ),
                                evidence=(
                                    Evidence(
                                        "points-to",
                                        f"Sol of the {what} pointer"
                                        f" contains {aname}",
                                        (aname,),
                                    ),
                                    Evidence(
                                        "scope",
                                        f"{aname} is owned by"
                                        f" {owner.name} and outlives it"
                                        f" (finding {escaped[joint].id})",
                                        (aname, owner.name),
                                    ),
                                ),
                            )
                        )
        return findings

    # ------------------------------------------------------------------

    @staticmethod
    def _accessed_pointers(inst):
        if isinstance(inst, Load):
            yield "load", inst.pointer
        elif isinstance(inst, Store):
            yield "store", inst.pointer
        elif isinstance(inst, Memcpy):
            yield "memcpy write", inst.dst
            yield "memcpy read", inst.src

    def _scan_frees(
        self, member: str, fn: Function, binding, aa, frees, names
    ) -> List[Finding]:
        findings: List[Finding] = []
        freed: List[tuple] = []  # (index, pointer value, Sol)
        for index, inst in enumerate(fn.instructions()):
            if (
                isinstance(inst, Call)
                and inst.is_direct()
                and isinstance(inst.callee, Function)
                and inst.callee.name in frees
                and inst.args
            ):
                q = inst.args[0]
                qpts = binding.points_to(q)
                for index0, q0, q0pts in freed:
                    res = aa.alias(q, None, q0, None)
                    if res is NO_ALIAS or not (qpts & q0pts or res is MUST_ALIAS):
                        continue
                    shared = sorted(
                        names[x] for x in (qpts & q0pts) if x != OMEGA
                    )
                    findings.append(
                        Finding(
                            client=self.name,
                            kind="double-free",
                            severity="high",
                            subject=f"{member}:{fn.name}#{index}",
                            message=(
                                f"{fn.name} may free"
                                f" {shared[0] if shared else 'the same object'}"
                                f" twice (earlier free at #{index0})"
                            ),
                            may_must="must" if res is MUST_ALIAS else "may",
                            unbounded=OMEGA in (qpts & q0pts),
                            evidence=(
                                Evidence(
                                    "free-site",
                                    f"free at {fn.name}#{index0}"
                                    " deallocates"
                                    f" {{{', '.join(sorted(str(names[x]) if x != OMEGA else OMEGA for x in q0pts))}}}",
                                    tuple(shared),
                                ),
                                Evidence(
                                    "alias",
                                    f"the {oracle_name(aa)} oracle answers"
                                    f" {res} for the two freed pointers",
                                    (),
                                ),
                            ),
                        )
                    )
                freed.append((index, q, qpts))
            else:
                for what, ptr in self._accessed_pointers(inst):
                    pts = binding.points_to(ptr)
                    for index0, q0, q0pts in freed:
                        res = aa.alias(ptr, _access_size(ptr.type), q0, None)
                        if res is NO_ALIAS or not (pts & q0pts):
                            continue
                        shared = sorted(
                            names[x] for x in (pts & q0pts) if x != OMEGA
                        )
                        findings.append(
                            Finding(
                                client=self.name,
                                kind="use-after-free",
                                severity="high",
                                subject=f"{member}:{fn.name}#{index}",
                                message=(
                                    f"{what} in {fn.name} may touch"
                                    f" {shared[0] if shared else 'memory'}"
                                    f" freed at #{index0}"
                                ),
                                unbounded=OMEGA in (pts & q0pts),
                                evidence=(
                                    Evidence(
                                        "free-site",
                                        f"free at {fn.name}#{index0}"
                                        f" deallocates it",
                                        tuple(shared),
                                    ),
                                    Evidence(
                                        "points-to",
                                        f"Sol of the {what} pointer"
                                        " intersects the freed set at"
                                        f" {{{', '.join(shared) or OMEGA}}}",
                                        tuple(shared),
                                    ),
                                ),
                            )
                        )
                        break  # one finding per access is enough
        return findings

    def _scan_stack(
        self, member, fn, binding, allocas, outliving, names, escaped
    ) -> List[Finding]:
        findings: List[Finding] = []
        own = {j for j, (owner, _) in allocas.items() if owner is fn}
        for index, inst in enumerate(fn.instructions()):
            if isinstance(inst, Ret) and inst.value is not None:
                pts = binding.points_to(inst.value)
                for joint in sorted(pts & own):
                    aname = allocas[joint][1]
                    finding = Finding(
                        client=self.name,
                        kind="stack-return",
                        severity="high",
                        subject=f"{member}:{aname}",
                        message=(
                            f"{fn.name} may return the address of its"
                            f" own stack slot {aname}"
                        ),
                        evidence=(
                            Evidence(
                                "points-to",
                                f"Sol of the return value of {fn.name}"
                                f" contains {aname}",
                                (fn.name, aname),
                            ),
                            Evidence(
                                "scope",
                                f"{aname} dies when {fn.name} returns",
                                (aname, fn.name),
                            ),
                        ),
                    )
                    findings.append(finding)
                    escaped.setdefault(joint, finding)
            elif isinstance(inst, Store):
                vpts = binding.points_to(inst.value)
                stored = vpts & set(allocas)
                if not stored:
                    continue
                ppts = binding.points_to(inst.pointer)
                into = sorted(
                    names[x] for x in ppts if x != OMEGA and x in outliving
                )
                omega = OMEGA in ppts
                if not into and not omega:
                    continue  # local-into-local: by-reference passing
                for joint in sorted(stored):
                    aname = allocas[joint][1]
                    dest = into[0] if into else OMEGA
                    finding = Finding(
                        client=self.name,
                        kind="stack-escape",
                        severity="medium",
                        subject=f"{member}:{aname}",
                        message=(
                            f"{fn.name} may store the address of stack"
                            f" slot {aname} into {dest}, which outlives"
                            " the frame"
                        ),
                        unbounded=omega,
                        evidence=(
                            Evidence(
                                "points-to",
                                f"the stored value may be {aname};"
                                " the destination may be"
                                f" {{{', '.join(into + ([OMEGA] if omega else []))}}}",
                                (aname,) + tuple(into),
                            ),
                            Evidence(
                                "scope",
                                f"{aname} dies at scope exit while the"
                                " destination does not",
                                (aname,),
                            ),
                        ),
                    )
                    findings.append(finding)
                    escaped.setdefault(joint, finding)
        return findings


def oracle_name(aa) -> str:
    return type(aa).__name__


register(DanglingAudit())
