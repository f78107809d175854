"""Cross-TU constraint linking (the incremental-completeness story).

The paper analyses each translation unit alone, feeding every external
symbol into Ω.  This package merges the per-TU
:class:`~repro.analysis.constraints.ConstraintProgram` artifacts of
several TUs into one joint program: symbol references are resolved
(definitions beat declarations), variables are renumbered into a dense
joint index space, and linkage-seeded escapes are *recomputed* for the
larger unit — so Ω monotonically shrinks as more of the program becomes
visible.
"""

from .linker import (
    LinkedProgram,
    LinkError,
    LinkOptions,
    SymbolResolution,
    link_programs,
    linked_name,
)

__all__ = [
    "LinkError",
    "LinkOptions",
    "LinkedProgram",
    "SymbolResolution",
    "link_programs",
    "linked_name",
]
