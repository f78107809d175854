"""Cycle-detection and offline-variable-substitution tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ConstraintProgram, parse_name, run_configuration
from repro.analysis.solvers.cycles import (
    HybridCycleDetection,
    strongly_connected_components,
)
from repro.analysis.solvers.ovs import compute_ovs_groups
from repro.analysis.solvers.worklist import WorklistSolver
from repro.analysis.testing import random_program


def chain_with_cycle() -> ConstraintProgram:
    """x → a → b → c → a (a,b,c form a simple-edge cycle)."""
    cp = ConstraintProgram("cycle")
    loc = cp.add_memory("loc")
    x = cp.add_register("x")
    a = cp.add_register("a")
    b = cp.add_register("b")
    c = cp.add_register("c")
    cp.add_base(x, loc)
    cp.add_simple(a, x)
    cp.add_simple(b, a)
    cp.add_simple(c, b)
    cp.add_simple(a, c)
    return cp


class TestSCC:
    def test_finds_cycle(self):
        graph = {1: [2], 2: [3], 3: [1], 4: [1]}
        sccs = strongly_connected_components([4], lambda v: graph.get(v, ()))
        big = [s for s in sccs if len(s) > 1]
        assert len(big) == 1 and sorted(big[0]) == [1, 2, 3]

    def test_dag_all_singletons(self):
        graph = {1: [2, 3], 2: [3], 3: []}
        sccs = strongly_connected_components([1], lambda v: graph.get(v, ()))
        assert all(len(s) == 1 for s in sccs)

    def test_reverse_topological_emission(self):
        graph = {1: [2], 2: [3], 3: []}
        sccs = strongly_connected_components([1], lambda v: graph.get(v, ()))
        flat = [s[0] for s in sccs]
        assert flat == [3, 2, 1]


class TestOnlineDetectors:
    @pytest.mark.parametrize(
        "config", ["IP+WL(FIFO)+OCD", "IP+WL(FIFO)+LCD", "IP+WL(LRF)+OCD"]
    )
    def test_cycle_collapsed(self, config):
        cp = chain_with_cycle()
        from repro.analysis.config import _make_detector, parse_name

        cfg = parse_name(config)
        solver = WorklistSolver(
            cp,
            order=cfg.order,
            cycle_detector=_make_detector(cfg, cp),
        )
        solution = solver.solve()
        # Solution is right…
        assert solution.names(solution.points_to_name("a")) == {"loc"}
        # …and OCD must have unified the a→b→c→a cycle.
        if "OCD" in config:
            st = solver.state
            assert st.find(2) == st.find(3) == st.find(4)  # a, b, c

    def test_lcd_triggers_on_equal_sets(self):
        # A two-node cycle where both ends converge to the same set.
        cp = ConstraintProgram("two")
        loc = cp.add_memory("loc")
        a = cp.add_register("a")
        b = cp.add_register("b")
        cp.add_base(a, loc)
        cp.add_simple(b, a)
        cp.add_simple(a, b)
        from repro.analysis.solvers.cycles import LazyCycleDetection

        solver = WorklistSolver(cp, order="FIFO", cycle_detector=LazyCycleDetection())
        solver.solve()
        assert solver.state.find(a) == solver.state.find(b)
        assert solver.state.stats.unifications >= 1


class TestHCD:
    def test_offline_map_single_ref_scc(self):
        # *p is in a cycle with r:  store *p ⊇ q, load r ⊇ *p, simple q ⊇ r.
        cp = ConstraintProgram("hcd")
        x = cp.add_memory("x")
        p = cp.add_register("p")
        q = cp.add_register("q")
        r = cp.add_register("r")
        cp.add_store(p, q)  # *p ⊇ q : q → ref(p)
        cp.add_load(r, p)  # r ⊇ *p : ref(p) → r
        cp.add_simple(q, r)  # q ⊇ r : r → q
        cp.add_base(p, x)
        hcd = HybridCycleDetection(cp)
        assert p in hcd.hcd_map
        assert set(hcd.hcd_map[p]) == {q, r}

    def test_online_unifies_pointee_with_cycle(self):
        cp = ConstraintProgram("hcd2")
        x = cp.add_memory("x")
        y = cp.add_memory("y")
        p = cp.add_register("p")
        q = cp.add_register("q")
        r = cp.add_register("r")
        cp.add_store(p, q)
        cp.add_load(r, p)
        cp.add_simple(q, r)
        cp.add_base(p, x)
        cp.add_base(q, y)
        hcd = HybridCycleDetection(cp)
        solver = WorklistSolver(cp, order="FIFO", cycle_detector=hcd)
        solution = solver.solve()
        st = solver.state
        # x ∈ Sol(p) materialises the cycle q → x → r → q.
        assert st.find(q) == st.find(r) == st.find(x)
        # And the solution matches the oracle.
        oracle = run_configuration(cp, parse_name("IP+Naive"))
        assert solution == oracle

    def test_multi_ref_sccs_skipped(self):
        # Cycle through two ref nodes: q → ref(p) → r → ref(u) → q.
        cp = ConstraintProgram("hcd3")
        p = cp.add_register("p")
        u = cp.add_register("u")
        q = cp.add_register("q")
        r = cp.add_register("r")
        cp.add_store(p, q)  # q → ref(p)
        cp.add_load(r, p)  # ref(p) → r
        cp.add_store(u, r)  # r → ref(u)
        cp.add_load(q, u)  # ref(u) → q
        hcd = HybridCycleDetection(cp)
        assert not hcd.hcd_map  # precision-preservation demands skipping

    def test_precision_preserved_when_deref_set_empty(self):
        # Sol(p) stays empty: q and r must NOT be merged, and r's
        # solution must stay empty while q gets {y}.
        cp = ConstraintProgram("hcd4")
        y = cp.add_memory("y")
        p = cp.add_register("p")
        q = cp.add_register("q")
        r = cp.add_register("r")
        w = cp.add_register("w")
        cp.add_store(p, q)
        cp.add_load(r, p)
        cp.add_simple(q, r)
        cp.add_base(w, y)
        cp.add_simple(q, w)  # q ⊇ w gives q {y}; r must not get it
        hcd = HybridCycleDetection(cp)
        solver = WorklistSolver(cp, order="FIFO", cycle_detector=hcd)
        solution = solver.solve()
        assert solution.names(solution.points_to_name("q")) == {"y"}
        assert solution.points_to_name("r") == frozenset()


class TestOVS:
    def test_duplicate_sources_unified(self):
        cp = ConstraintProgram("ovs")
        x = cp.add_memory("x")
        src = cp.add_register("src")
        a = cp.add_register("a")
        b = cp.add_register("b")
        cp.add_base(src, x)
        cp.add_simple(a, src)
        cp.add_simple(b, src)
        groups = compute_ovs_groups(cp)
        assert any(set(g) >= {a, b} for g in groups)

    def test_distinct_sources_not_unified(self):
        cp = ConstraintProgram("ovs2")
        x = cp.add_memory("x")
        y = cp.add_memory("y")
        a = cp.add_register("a")
        b = cp.add_register("b")
        cp.add_base(a, x)
        cp.add_base(b, y)
        groups = compute_ovs_groups(cp)
        assert not any(a in g and b in g for g in groups)

    def test_memory_locations_not_cross_unified(self):
        cp = ConstraintProgram("ovs3")
        m1 = cp.add_memory("m1")
        m2 = cp.add_memory("m2")
        groups = compute_ovs_groups(cp)
        assert not any(m1 in g and m2 in g for g in groups)

    def test_simple_cycle_unified(self):
        cp = chain_with_cycle()
        groups = compute_ovs_groups(cp)
        # a, b, c (vars 2, 3, 4) are in one simple-edge SCC.
        assert any({2, 3, 4} <= set(g) for g in groups)

    def test_pte_only_registers_unified(self):
        cp = ConstraintProgram("ovs4")
        a = cp.add_register("a")
        b = cp.add_register("b")
        cp.mark_points_to_external(a)
        cp.mark_points_to_external(b)
        groups = compute_ovs_groups(cp)
        assert any(a in g and b in g for g in groups)

    @pytest.mark.parametrize("seed", [0, 4, 9, 14])
    def test_ovs_preserves_solutions(self, seed):
        program = random_program(seed, n_vars=30, n_constraints=60)
        plain = run_configuration(program, parse_name("IP+WL(FIFO)"))
        with_ovs = run_configuration(program, parse_name("IP+OVS+WL(FIFO)"))
        assert plain == with_ovs

    @given(
        st.tuples(
            st.integers(min_value=0, max_value=10_000),  # seed
            st.integers(min_value=6, max_value=40),  # vars
            st.integers(min_value=5, max_value=80),  # constraints
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_merged_variables_have_equal_unreduced_sols(self, params):
        """Every OVS group is pointer-equivalent: solving the original,
        unmerged program gives its members the identical final Sol set,
        explicitly (EP) and through Ω (IP)."""
        program = random_program(*params)
        groups = compute_ovs_groups(program)
        for config in ("IP+Naive", "EP+WL(FIFO)"):
            sol = run_configuration(program, parse_name(config))
            for group in groups:
                sols = {sol.points_to(v) for v in group}
                assert len(sols) == 1, (config, group)
