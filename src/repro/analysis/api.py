"""High-level entry points for the points-to analysis.

Typical use::

    from repro.analysis import analyze_module, Configuration

    result = analyze_module(module)            # fastest configuration
    targets = result.points_to_values(ptr)     # IR values + maybe OMEGA
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Sequence

from ..ir.module import Module
from ..ir.values import Value
from .config import Configuration, run_configuration
from .frontend import ModuleConstraints, SummaryFn, build_constraints
from .omega import OMEGA
from .solution import Solution

#: the paper's overall fastest configuration (Table V): IP+WL(FIFO)+PIP
DEFAULT_CONFIGURATION = Configuration(
    representation="IP", ovs=False, solver="WL", order="FIFO", pip=True
)


class PointsToResult:
    """Solved points-to information tied back to one module's IR values.

    ``mapping`` sends the module's constraint variables to ``solution``
    indexes.  ``None`` is the identity: the solution is this module's
    own.  A linked member passes the linker's local→joint map instead,
    and the view then answers in *joint* indexes of the joint solution
    — the one interface alias oracles, mod/ref, the call graph, the
    optimisations and the audit clients consume.
    """

    def __init__(
        self,
        built: ModuleConstraints,
        solution: Solution,
        mapping: Optional[Sequence[int]] = None,
    ):
        self.built = built
        self.solution = solution
        self.mapping = (
            range(built.program.num_vars) if mapping is None else mapping
        )
        #: solution index → IR memory object
        self._value_of_loc: Dict[int, Value] = {}
        for value, loc in built.memloc_of.items():
            self._value_of_loc[self.mapping[loc]] = value
        for call, loc in built.heap_site_of.items():
            self._value_of_loc[self.mapping[loc]] = call

    # ------------------------------------------------------------------

    @property
    def module(self) -> Module:
        return self.built.module

    def var_of(self, value: Value) -> Optional[int]:
        """Constraint variable holding ``value`` (None if untracked)."""
        return self.built.var_of_value.get(value)

    def points_to(self, value: Value) -> FrozenSet:
        """Sol of the pointer held in ``value`` (solution indexes/OMEGA).

        Untracked values (null, scalars) have an empty solution.
        """
        var = self.var_of(value)
        if var is None:
            return frozenset()
        try:
            return self.solution.points_to(self.mapping[var])
        except KeyError:
            return frozenset()

    def points_to_values(self, value: Value) -> FrozenSet:
        """Sol mapped back to IR memory objects; OMEGA passes through."""
        out = set()
        for x in self.points_to(value):
            if x == OMEGA:
                out.add(OMEGA)
            else:
                out.add(self._value_of_loc.get(x, x))
        return frozenset(out)

    def may_point_to_external(self, value: Value) -> bool:
        """True iff the held pointer may have an unknown origin (p ⊒ Ω)."""
        return OMEGA in self.points_to(value)

    def externally_accessible_values(self) -> FrozenSet:
        """This module's memory objects whose location is in E."""
        external = self.solution.external
        return frozenset(
            value
            for loc, value in self._value_of_loc.items()
            if loc in external
        )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PointsToResult of {self.built.module.name}>"


def analyze_module(
    module: Module,
    configuration: Optional[Configuration] = None,
    summaries: Optional[Dict[str, SummaryFn]] = None,
) -> PointsToResult:
    """Run the full two-phase analysis on an IR module."""
    config = configuration or DEFAULT_CONFIGURATION
    built = build_constraints(module, summaries)
    solution = run_configuration(built.program, config)
    return PointsToResult(built, solution)


def analyze_source(
    source: str,
    name: str = "module",
    configuration: Optional[Configuration] = None,
    summaries: Optional[Dict[str, SummaryFn]] = None,
) -> PointsToResult:
    """Compile a C translation unit and analyse it."""
    from ..frontend import compile_c  # local import: frontend is optional

    module = compile_c(source, name)
    return analyze_module(module, configuration, summaries)
