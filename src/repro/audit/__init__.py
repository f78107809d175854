"""Scenario analysis clients over the points-to oracles (audit tier).

The paper motivates a sound points-to analysis by the *clients* it
enables; this package turns four of those scenarios into deterministic,
severity-ranked audit reports with evidence chains:

==========  ==========================================================
``escape``  heap sites whose only remaining references escape into Ω
            or are dropped (leak candidates)
``races``   modref read/write conflicts on shared abstract objects
            between call-graph-concurrent regions
``dangling``  use-after-free / double-free / escaped-stack candidates
``calls``   per-callsite indirect-call target sets for CFI hardening,
            Ω/ImpFunc flagged unbounded
==========  ==========================================================

Every client runs under every alias oracle (``andersen`` / ``basicaa``
/ ``combined``), consumes only the canonical solution (so every solver
configuration and points-to-set backend gives the same report) and
produces byte-identical canonical reports across ``--jobs`` and cache
state.  Surfaces: ``repro audit <client>`` (CLI), the cached ``audit``
pipeline stage, and the serve ``audit``/``audit_batch`` query methods.
"""

from .base import (
    AuditClient,
    AuditContext,
    AuditError,
    CLIENTS,
    audit_names,
    make_oracle,
    normalize_client_params,
    register,
    run_audit,
)
from .context import build_audit_context
from .findings import (
    Evidence,
    Finding,
    Report,
    SEVERITIES,
    render_report_evidence,
    render_report_table,
)
from .params import ORACLES, ParamError, REQUIRED, canonical_json, normalize_params

# Importing the client modules registers them.
from . import calls as _calls  # noqa: F401
from . import dangling as _dangling  # noqa: F401
from . import escape as _escape  # noqa: F401
from . import races as _races  # noqa: F401

__all__ = [
    "AuditClient",
    "AuditContext",
    "AuditError",
    "CLIENTS",
    "Evidence",
    "Finding",
    "ORACLES",
    "ParamError",
    "REQUIRED",
    "Report",
    "SEVERITIES",
    "audit_names",
    "build_audit_context",
    "canonical_json",
    "make_oracle",
    "normalize_client_params",
    "normalize_params",
    "register",
    "render_report_evidence",
    "render_report_table",
    "run_audit",
]
