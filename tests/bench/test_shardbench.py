"""shardbench record schema and end-to-end quick run."""

import copy
import json

import pytest

from repro.bench.shardbench import (
    RECORD_KEYS,
    append_trajectory,
    run_benchmark,
    validate_record,
)


@pytest.fixture(scope="module")
def quick_record():
    return run_benchmark(quick=True, files_scale=0.4, size_scale=0.02)


class TestQuickRun:
    def test_record_validates(self, quick_record):
        validate_record(quick_record)
        assert set(quick_record) >= RECORD_KEYS

    def test_identity_holds(self, quick_record):
        identity = quick_record["identity"]
        assert identity["ok"] is True
        assert identity["flat_digest"] == identity["sharded_digest"]
        assert identity["store_digest"] == identity["flat_digest"]

    def test_incremental_contract_met(self, quick_record):
        inc = quick_record["incremental"]
        assert inc["contract_met"] is True
        assert inc["link_runs"] == 1
        assert inc["merge_runs"] == inc["expected_spine"]
        assert inc["warm_runs"] == 0

    def test_speedup_recorded_honestly(self, quick_record):
        """quick sweeps jobs (1, 2) only — no 8-job point exists, so
        speedup_8x must be null and the target unmet, never fabricated."""
        assert quick_record["speedup_8x"] is None
        assert quick_record["shard_target_met"] is False
        assert quick_record["cpu_count"] >= 1

    def test_jobs_sweep_shape(self, quick_record):
        runs = quick_record["jobs_sweep"]
        assert [r["jobs"] for r in runs] == [1, 2]
        for r in runs:
            assert r["seconds"] > 0
            assert r["stats"]["members"] == quick_record["corpus"]["members"]

    def test_record_is_json_serialisable(self, quick_record):
        json.dumps(quick_record)

    def test_append_trajectory(self, quick_record, tmp_path):
        path = tmp_path / "BENCH_shard.json"
        append_trajectory(path, quick_record, "shardbench")
        append_trajectory(path, quick_record, "shardbench")
        data = json.loads(path.read_text())
        assert data["benchmark"] == "shardbench"
        assert data["schema"] == 1
        assert len(data["runs"]) == 2


class TestValidateRecord:
    def base(self, quick_record):
        return copy.deepcopy(quick_record)

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="not an object"):
            validate_record([])

    def test_rejects_missing_keys(self, quick_record):
        record = self.base(quick_record)
        del record["identity"]
        with pytest.raises(ValueError, match="missing keys"):
            validate_record(record)

    def test_rejects_empty_jobs_sweep(self, quick_record):
        record = self.base(quick_record)
        record["jobs_sweep"] = []
        with pytest.raises(ValueError, match="jobs_sweep"):
            validate_record(record)

    def test_rejects_malformed_sweep_run(self, quick_record):
        record = self.base(quick_record)
        record["jobs_sweep"] = [{"jobs": 1}]
        with pytest.raises(ValueError, match="seconds"):
            validate_record(record)

    def test_rejects_non_bool_flags(self, quick_record):
        record = self.base(quick_record)
        record["identity"]["ok"] = "yes"
        with pytest.raises(ValueError, match="identity.ok"):
            validate_record(record)
        record = self.base(quick_record)
        record["shard_target_met"] = 1
        with pytest.raises(ValueError, match="shard_target_met"):
            validate_record(record)
