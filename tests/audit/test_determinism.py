"""The audit determinism matrix (PR acceptance oracle).

For a fixed (client, oracle), the canonical report must be
byte-identical across every axis that must not matter:

- points-to backend (``set`` / ``bitset``),
- flat link vs sharded link at any ``--shards`` / ``--jobs``,
- cold vs warm pipeline cache (and a fresh process over the same
  cache directory, modelled by a fresh ``Pipeline``).
"""

import dataclasses

import pytest

from repro.analysis import DEFAULT_CONFIGURATION
from repro.audit import ORACLES, audit_names, canonical_json, run_audit
from repro.driver import ResultCache

from .util import fixture_context

FILES = ["leak.c", "race.c", "dangling.c"]


def report_json(client, oracle, **kwargs):
    _, context, _ = fixture_context(FILES, **kwargs)
    return run_audit(context, client, {"oracle": oracle}).to_json()


class TestBackendMatrix:
    @pytest.mark.parametrize("client", audit_names())
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_backend_invariant(self, client, oracle):
        reports = {
            pts: report_json(
                client,
                oracle,
                config=dataclasses.replace(DEFAULT_CONFIGURATION, pts=pts),
            )
            for pts in ("set", "bitset")
        }
        assert reports["bitset"] == reports["set"], f"{client}/{oracle}"


class TestShardingJobsInvariance:
    @pytest.mark.parametrize("client", audit_names())
    def test_sharded_link_any_jobs_matches_flat(self, client):
        flat = report_json(client, "combined")
        for shards, jobs in [(2, 1), (2, 2), (3, 4)]:
            got = report_json(client, "combined", shards=shards, jobs=jobs)
            assert got == flat, f"{client} shards={shards} jobs={jobs}"


class TestCacheInvariance:
    @pytest.mark.parametrize("client", audit_names())
    def test_cold_warm_and_fresh_process_identical(self, client, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        pipeline, context, solution = fixture_context(FILES, cache=cache)
        digest = solution.named_canonical_digest()

        cold = pipeline.audit(context, client, None, digest)
        assert not cold.from_cache
        warm = pipeline.audit(context, client, None, digest)
        assert warm.from_cache
        assert canonical_json(cold.report) == canonical_json(warm.report)

        # A fresh pipeline over the same cache directory (a new
        # process) must answer from disk with the identical report.
        pipeline2, context2, solution2 = fixture_context(
            FILES, cache=ResultCache(tmp_path / "cache")
        )
        fresh = pipeline2.audit(
            context2, client, None, solution2.named_canonical_digest()
        )
        assert fresh.from_cache
        assert canonical_json(fresh.report) == canonical_json(cold.report)

    def test_explicit_defaults_share_the_cache_entry(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        pipeline, context, solution = fixture_context(FILES, cache=cache)
        digest = solution.named_canonical_digest()
        first = pipeline.audit(context, "escape", None, digest)
        assert not first.from_cache
        explicit = pipeline.audit(
            context,
            "escape",
            {"oracle": "combined", "heap_prefix": "heap."},
            digest,
        )
        assert explicit.from_cache
        assert canonical_json(explicit.report) == canonical_json(first.report)
