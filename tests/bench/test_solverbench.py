"""Unit tests for the solver backend benchmark (``repro.bench.solverbench``)."""

import json

import pytest

from repro.bench import PROFILES
from repro.bench.corpus import specs_for_profile
from repro.bench.solverbench import (
    CONTROL_CONFIGS,
    PROPAGATION_CONFIGS,
    append_trajectory,
    measure_file,
    run_benchmark,
)
from repro.bench.suite import build_file


@pytest.fixture(scope="module")
def small_file():
    spec = specs_for_profile(PROFILES["544.nab"], 0.01, 0.004, seed=3)[0]
    return build_file(spec)


class TestMeasureFile:
    def test_row_shape_and_equivalence(self, small_file):
        rows = measure_file(
            small_file, ["EP+WL(FIFO)", "IP+WL(FIFO)"], "propagation", 1
        )
        assert [r["config"] for r in rows] == ["EP+WL(FIFO)", "IP+WL(FIFO)"]
        for row in rows:
            assert row["file"] == small_file.spec.name
            assert row["group"] == "propagation"
            assert row["num_vars"] == small_file.program.num_vars
            assert row["set_s"] > 0 and row["bitset_s"] > 0
            assert row["speedup"] == pytest.approx(
                row["set_s"] / row["bitset_s"]
            )
            assert row["explicit_pointees"] >= 0
            assert row["shared_sets"] > 0

    def test_config_groups_are_disjoint(self):
        assert not set(PROPAGATION_CONFIGS) & set(CONTROL_CONFIGS)
        assert all(c.startswith("EP") for c in PROPAGATION_CONFIGS)
        # The headline group must be free of difference propagation:
        # DP transfers deltas, i.e. sparse sets, by design.
        assert not any("DP" in c for c in PROPAGATION_CONFIGS)


class TestRunBenchmark:
    def test_record_shape(self):
        record = run_benchmark(
            files_scale=0.01,
            size_scale=0.004,
            seed=3,
            min_vars=1,
            repetitions=1,
            quick=True,
            profiles=["544.nab"],
        )
        assert record["params"]["min_vars"] == 1
        assert record["measurements"]
        groups = {m["group"] for m in record["measurements"]}
        assert groups == {"propagation", "sparse-control"}
        for group in groups:
            assert record["summary"][group]["n"] > 0
            assert "p50" in record["summary"][group]["speedup"]
        assert record["headline_median_speedup"] == (
            record["summary"]["propagation"]["speedup"]["p50"]
        )
        assert record["target_met"] == (
            record["headline_median_speedup"] >= record["speedup_target"]
        )

    def test_unreachable_min_vars_rejected(self):
        with pytest.raises(SystemExit, match="no corpus file"):
            run_benchmark(
                files_scale=0.01,
                size_scale=0.004,
                seed=3,
                min_vars=10**9,
                repetitions=1,
                quick=True,
                profiles=["544.nab"],
            )


class TestAppendTrajectory:
    def test_creates_and_appends(self, tmp_path):
        path = tmp_path / "BENCH_solver.json"
        append_trajectory(path, {"headline_median_speedup": 2.5})
        append_trajectory(path, {"headline_median_speedup": 2.7})
        data = json.loads(path.read_text())
        assert data["benchmark"] == "solverbench"
        assert data["schema"] == 1
        assert [r["headline_median_speedup"] for r in data["runs"]] == [2.5, 2.7]

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(SystemExit, match="not a trajectory file"):
            append_trajectory(path, {})
