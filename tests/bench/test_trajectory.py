"""The shared trajectory writer behind every ``BENCH_*.json`` file."""

import json
import os

from repro.bench.trajectory import append_trajectory, run_stamp


def test_run_stamp_carries_the_host():
    stamp = run_stamp()
    assert list(stamp) == ["timestamp", "python", "cpu_count"]
    assert stamp["cpu_count"] == os.cpu_count()


def test_append_writes_atomically(tmp_path):
    path = tmp_path / "BENCH_x.json"
    append_trajectory(path, {"n": 1}, "xbench")
    append_trajectory(path, {"n": 2}, "xbench")
    assert json.loads(path.read_text()) == {
        "benchmark": "xbench",
        "schema": 1,
        "runs": [{"n": 1}, {"n": 2}],
    }
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_x.json"]
