"""Shared helpers for the audit test suite.

``build_context`` links through the same front door as ``repro audit``
(``Pipeline.link_sources``) — flat (C and ``.lir`` members mixed) or
sharded (C only, any ``--shards`` / ``--jobs``) — so determinism tests
compare exactly what the CLI would produce.
"""

import pathlib

from repro.analysis import DEFAULT_CONFIGURATION
from repro.audit import build_audit_context
from repro.link import LinkOptions
from repro.pipeline import Pipeline

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"


def read_fixture(name: str) -> str:
    return (FIXTURES / name).read_text()


def build_context(
    files,
    config=None,
    cache=None,
    registry=None,
    shards=0,
    jobs=1,
):
    """Link + solve fixture members; returns (pipeline, context, solution).

    ``files`` maps member names to source text (fixture names resolve
    via :func:`read_fixture`).  ``shards`` > 0 selects the sharded link
    path (C members only), anything else the flat path.
    """
    kwargs = {"cache": cache}
    if registry is not None:
        kwargs["registry"] = registry
    pipeline = Pipeline(**kwargs)
    sources = [
        pipeline.source(name, text) for name, text in files.items()
    ]
    link_art = pipeline.link_sources(
        sources,
        LinkOptions(),
        shards=shards or None,
        jobs=jobs,
        member_maps=True,
    )
    linked = link_art.linked
    configuration = config if config is not None else DEFAULT_CONFIGURATION
    solution = pipeline.solve(linked.program, configuration).attach(
        linked.program
    )
    ir_sources = [s for s in sources if not s.name.endswith(".lir")]
    context = build_audit_context(
        pipeline, ir_sources, linked, solution,
        var_maps=link_art.member_var_maps,
    )
    return pipeline, context, solution


def fixture_context(names, **kwargs):
    """`build_context` over fixture files by name."""
    return build_context(
        {name: read_fixture(name) for name in names}, **kwargs
    )
