"""Golden regression fixtures: small programs with locked solutions.

Each hand-written program isolates one shape that a constraint-graph
simplification is tempted to get wrong (a pointer-equivalent diamond, a
copy chain, duplicate constraints, a base implied by an edge, two
memory locations with identical inflows, the IP ea/pte flag rule).  The
test locks the named canonical solution under several configurations,
with and without offline variable substitution, so a change that moves
any solution fails with the precise fixture that moved.
"""

import json

import pytest

from repro.analysis import ConstraintProgram, parse_name, run_configuration
from repro.analysis.solvers.ovs import compute_ovs_groups

CONFIGS = [
    "IP+WL(FIFO)",
    "IP+Naive",
    "EP+WL(FIFO)",
    "EP+WL(FIFO)+LCD+DP",
    "IP+OVS+WL(FIFO)",
    "EP+OVS+WL(FIFO)+LCD+DP",
]


def named(program, config_name):
    sol = run_configuration(program, parse_name(config_name))
    return json.dumps(sol.to_named_canonical(), sort_keys=True)


# ----------------------------------------------------------------------
# Fixture programs
# ----------------------------------------------------------------------


def diamond():
    """p, a, b all carry label {base loc}: one pointer-equivalence class."""
    cp = ConstraintProgram("diamond")
    loc = cp.add_memory("loc")
    cell = cp.add_memory("cell")
    p = cp.add_register("p")
    a = cp.add_register("a")
    cp.add_register("b")
    q = cp.add_register("q")
    cp.add_base(p, loc)
    cp.add_simple(a, p)
    cp.add_simple(a + 1, p)
    cp.add_base(q, cell)
    cp.add_store(q, a)  # *q ⊇ a: cell observes the class
    return cp


def chain():
    """g ⊇ {l1}, t ⊇ {l2}, g → t: labels differ, g is never read."""
    cp = ConstraintProgram("chain")
    l1 = cp.add_memory("l1")
    l2 = cp.add_memory("l2")
    g = cp.add_register("g")
    t = cp.add_register("t")
    cp.add_base(g, l1)
    cp.add_base(t, l2)
    cp.add_simple(t, g)
    return cp


def duplicates():
    """Repeated load/store constraints."""
    cp = ConstraintProgram("dup")
    l1 = cp.add_memory("l1")
    p = cp.add_register("p")
    a = cp.add_register("a")
    cp.add_base(p, l1)
    cp.add_load(a, p)
    cp.add_load(a, p)
    cp.add_store(p, a)
    cp.add_store(p, a)
    return cp


def subsumed_base():
    """u ⊇ {x}, u → v, v ⊇ {x, y}: x ∈ base[v] is implied by the edge."""
    cp = ConstraintProgram("subsume")
    x = cp.add_memory("x")
    y = cp.add_memory("y")
    u = cp.add_register("u")
    v = cp.add_register("v")
    w = cp.add_register("w")
    cp.add_base(u, x)
    cp.add_base(v, x)
    cp.add_base(v, y)
    cp.add_simple(v, u)
    cp.add_store(u, v)
    cp.add_store(v, w)
    cp.add_base(w, y)
    return cp


def memory_never_merges():
    """m1 and m2 receive identical inflows but are locations — the fresh
    per-SCC token must keep them apart (merging M vars is unsound)."""
    cp = ConstraintProgram("memsafe")
    m1 = cp.add_memory("m1")
    cp.add_memory("m2")
    p = cp.add_register("p")
    cp.add_base(p, m1)
    cp.add_simple(m1, p)
    cp.add_simple(m1 + 1, p)
    return cp


def ea_pte_flags():
    """IP flag rule: ea[x] ∧ pte[p] subsumes x ∈ base[p]."""
    cp = ConstraintProgram("eapte")
    x = cp.add_memory("x")
    y = cp.add_memory("y")
    p = cp.add_register("p")
    cp.add_base(p, x)
    cp.add_base(p, y)
    cp.mark_points_to_external(p)
    cp.mark_externally_accessible(x)
    cp.add_store(p, p)
    return cp


#: (builder, golden named canonical under sort_keys json)
GOLDEN = [
    (
        diamond,
        '{"external": [], "points_to": {"cell": ["loc"], "loc": []}}',
    ),
    (
        chain,
        '{"external": [], "points_to": {"l1": [], "l2": []}}',
    ),
    (
        duplicates,
        '{"external": [], "points_to": {"l1": []}}',
    ),
    (
        subsumed_base,
        '{"external": [], "points_to": {"x": ["x", "y"], "y": ["y"]}}',
    ),
    (
        memory_never_merges,
        '{"external": [], "points_to": {"m1": ["m1"], "m2": ["m1"]}}',
    ),
    (
        ea_pte_flags,
        '{"external": ["x", "y"], "points_to": '
        '{"x": ["x", "y", "\\u03a9"], "y": ["x", "y", "\\u03a9"]}}',
    ),
]

IDS = [g[0].__name__ for g in GOLDEN]


class TestGoldenFixtures:
    @pytest.mark.parametrize("case", GOLDEN, ids=IDS)
    def test_locked_solution(self, case):
        build, golden = case
        cp = build()
        for config in CONFIGS:
            assert named(cp, config) == golden, config

    def test_memory_locations_never_pointer_equivalent(self):
        assert compute_ovs_groups(memory_never_merges()) == []
