"""The benchmark's own tests.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
The smoke runs use ``--smoke`` (tiny inputs), so the whole file takes
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import inputs
import workloads
from harness import ROOT, Span, layer_table, self_times, uncovered_frac

BENCH = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170,
    )


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def span(id, name, start, end, parent=None, run="r"):
    return Span(id, name, start, end, parent, run)


def test_self_time_subtracts_children_and_merges_overlaps():
    spans = [
        span(1, "run", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, 1),
        span(3, "b", 3.0, 6.0, 1),  # overlaps a: 1..6 covered once
        span(4, "c", 2.0, 3.0, 2),
        span(5, "a", 8.0, 12.0, 1),  # runs past its parent: clipped at 10
    ]
    own = self_times(spans)
    assert own[("r", 1)] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[("r", 2)] == pytest.approx(3.0 - 1.0)
    assert own[("r", 3)] == pytest.approx(3.0)
    table = layer_table(spans)
    assert table["a"]["calls"] == 2
    assert table["a"]["total_s"] == pytest.approx(7.0)
    assert table["a"]["self_s"] == pytest.approx(2.0 + 4.0)
    assert uncovered_frac(spans) == pytest.approx(0.3)


def test_span_ids_are_scoped_by_run():
    spans = [
        span(1, "run", 0.0, 4.0, run="parent"),
        span(2, "x", 0.0, 1.0, 1, run="parent"),
        span(1, "driver.task", 0.0, 3.0, run="pool-7"),
        span(2, "y", 0.0, 3.0, 1, run="pool-7"),
    ]
    own = self_times(spans)
    assert own[("parent", 1)] == pytest.approx(3.0)
    assert own[("pool-7", 1)] == pytest.approx(0.0)
    assert uncovered_frac(spans) == pytest.approx(0.75)


# ----------------------------------------------------------------------
# Oracles fire on corrupted outputs
# ----------------------------------------------------------------------


@pytest.fixture
def smoke_ctx(tmp_path):
    return workloads.Context(seed=3, seconds=0.0, trace=False, work=tmp_path,
                             sizes=inputs.SMOKE)


def test_digest_oracle_fires_on_a_wrong_reference(smoke_ctx, monkeypatch):
    good = workloads.c_build(smoke_ctx)
    assert not good.failures and good.attempted >= 2
    monkeypatch.setattr(workloads, "reference_digest", lambda program: "0" * 64)
    bad = workloads.c_build(smoke_ctx)
    assert any("!= reference" in failure for failure in bad.failures)


def test_sweep_oracle_fires_on_disagreement_and_warm_drift():
    row = [0, "a.c", "IP+WL(FIFO)", {"points_to": [[1, [2]]], "external": [], "stats": {}}]
    other = json.loads(json.dumps(row))
    other[0], other[2] = 1, "IP+WL(FIFO)+PIP"
    agreeing = json.dumps([row, other])
    out = workloads.Outcome()
    workloads.check_sweep(out, "t", [agreeing, agreeing])
    assert not out.failures and out.attempted == 2

    other[3]["points_to"] = [[1, [3]]]
    disagreeing = json.dumps([row, other])
    workloads.check_sweep(out, "t", [disagreeing, agreeing])
    assert [f for f in out.failures if "disagrees" in f]
    assert [f for f in out.failures if "differs from cold" in f]


def test_serve_oracle_fires_on_a_wrong_answer_or_rebuild():
    out = workloads.Outcome()
    workloads.check_serve(out, ['{"a":1}', '{"b":2}'], ['{"a":1}', '{"b":2}'], [1, 1])
    assert not out.failures
    workloads.check_serve(out, ['{"a":1}', '{"b":3}'], ['{"a":1}', '{"b":2}'], [1, 2])
    assert len(out.failures) == 2


def test_serve_oracle_fires_in_a_served_run(smoke_ctx, monkeypatch):
    real = workloads.reference_answers

    def corrupted(files, script):
        answers = real(files, script)
        return answers[:-1] + [answers[-1].replace("escape", "leak")]

    monkeypatch.setattr(workloads, "reference_answers", corrupted)
    smoke_ctx.seconds = 1.0
    out = workloads.serve_edit(smoke_ctx)
    assert any("differs from a cold open" in f for f in out.failures)


# ----------------------------------------------------------------------
# The command, as a user runs it
# ----------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    if trace:
        assert "per-layer split" in proc.stdout


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.LAYER_UNITS


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "c-build", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
