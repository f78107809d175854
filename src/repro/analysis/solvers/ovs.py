"""Offline Variable Substitution (OVS), Rountev & Chandra (paper Table IV).

Before solving, find sets of *pointer-equivalent* variables — variables
guaranteed to end up with identical Sol sets — and unify each set so the
solver maintains a single shared Sol_e set for it.  Unlike online cycle
detection, the equivalence is computed purely from the constraint set,
by hashed value numbering over an offline flow graph
(:func:`offline_variable_labels`).

Two variables with equal labels provably receive exactly the same
explicit pointees and the same ``⊒ Ω`` flag at fixpoint, so unifying
them preserves the solution exactly — which the paper's validation
(identical solutions across all configurations) requires.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Set

from ..constraints import ConstraintProgram
from .cycles import strongly_connected_components

__all__ = ["PTE_TOKEN", "compute_ovs_groups", "offline_variable_labels"]

#: shared token for every ``p ⊒ Ω`` variable (all gain the same
#: implicit pointees)
PTE_TOKEN = ("pte",)


def offline_variable_labels(program: ConstraintProgram) -> List[int]:
    """Hashed value number per constraint variable.

    Builds the offline flow graph (nodes ``v`` in ``[0, n)`` plus a
    dereference node ``ref(v) = n + v`` per loaded-from variable; edges
    ``q → p`` for simple constraints and ``ref(q) → p`` for loads),
    processes the SCC condensation in topological order and assigns
    every SCC the *union* of its predecessors' labels plus its own
    tokens:

    - a base constraint ``p ⊇ {x}`` contributes ⟨base, x⟩;
    - the ``p ⊒ Ω`` flag contributes the shared :data:`PTE_TOKEN`;
    - *indirect* members (dereference nodes, memory locations, function
      formals, call returns — anything written through channels the
      offline graph does not model) contribute one fresh token per SCC.

    Equal labels are interned to one dense value number, so two
    variables are pointer-equivalent iff their value numbers are equal.
    Keeping full union labels (the HU variant) rather than value-
    numbering over predecessor sets is what lets two variables merge
    when their *combined* inflows agree but arrive along different
    edges.
    """
    n = program.num_vars

    indirect = [False] * n
    for v in range(n):
        if program.in_m[v]:
            indirect[v] = True  # store rules write into memory locations
    for fc in program.funcs:
        for a in fc.args:
            if a is not None:
                indirect[a] = True  # CALL rule writes actuals into formals
    for cc in program.calls:
        if cc.ret is not None:
            indirect[cc.ret] = True  # CALL rule writes func returns here

    # Offline graph: node v in [0, n); ref(v) = n + v.
    adj: Dict[int, List[int]] = {}

    def edge(a: int, b: int) -> None:
        adj.setdefault(a, []).append(b)

    roots: Set[int] = set()
    for src in range(n):
        for dst in program.simple_out[src]:
            edge(src, dst)
            roots.add(src)
            roots.add(dst)
        for dst in program.load_from[src]:
            edge(n + src, dst)
            roots.add(n + src)
            roots.add(dst)
    roots.update(range(n))

    sccs = strongly_connected_components(roots, lambda v: adj.get(v, ()))
    # Tarjan emits SCCs in reverse topological order.
    sccs.reverse()

    # Accumulate labels forward through the condensation, interning
    # each distinct label to a dense value number.
    intern: Dict[FrozenSet, int] = {}
    incoming: Dict[int, Set] = {}
    vn_of: Dict[int, int] = {}
    for scc_id, scc in enumerate(sccs):
        label: Set = set()
        fresh_needed = False
        for node in scc:
            label |= incoming.pop(node, set())
            if node >= n or indirect[node]:
                fresh_needed = True
            else:
                for x in program.base[node]:
                    label.add(("base", x))
                if program.flag_pte[node]:
                    label.add(PTE_TOKEN)
        if fresh_needed:
            label.add(("fresh", scc_id))
        frozen = frozenset(label)
        vn = intern.setdefault(frozen, len(intern))
        members = set(scc)
        for node in scc:
            vn_of[node] = vn
        for node in scc:
            for succ in adj.get(node, ()):
                if succ not in members:  # cross-SCC edge
                    incoming.setdefault(succ, set()).update(frozen)

    return [vn_of[v] for v in range(n)]


def compute_ovs_groups(program: ConstraintProgram) -> List[List[int]]:
    """Groups (each ≥ 2 variables, ascending) safe to pre-unify."""
    labels = offline_variable_labels(program)
    groups: Dict[int, List[int]] = {}
    for v, vn in enumerate(labels):
        groups.setdefault(vn, []).append(v)
    return [g for g in groups.values() if len(g) >= 2]

