"""servebench unit tests: workload determinism, load harness mechanics,
identity checking, and trajectory bookkeeping.

The full subprocess path (spawn_server against a real ``repro serve``
process) is exercised by the CI ``serve-load-smoke`` job; here the load
harness runs against an in-process ``serve_tcp`` thread so the tests
stay fast and hermetic.
"""

import json
import threading

import pytest

from repro.bench.servebench import (
    append_trajectory,
    build_workload,
    fetch_status,
    identity_check,
    run_load,
    _session,
)
from repro.obs import Registry
from repro.serve import (
    AnalysisServer,
    InProcessClient,
    Project,
    serve_tcp,
    validate_response,
)


class TestWorkload:
    def test_deterministic(self):
        files_a, script_a = build_workload(seed=7)
        files_b, script_b = build_workload(seed=7)
        assert files_a == files_b
        assert script_a == script_b

    def test_seed_changes_sources(self):
        files_a, _ = build_workload(seed=7)
        files_b, _ = build_workload(seed=8)
        assert files_a != files_b

    def test_workload_opens_and_answers(self):
        files, script = build_workload(seed=7, n_units=2, unit_size=20)
        server = AnalysisServer(Project())
        client = InProcessClient(server)
        client.call("open", {"files": files})
        for method, params in script:
            assert client.request(method, dict(params))["ok"]


@pytest.fixture
def tcp_fleet():
    """An in-process fleet server on a real TCP port, pre-opened."""
    files, script = build_workload(seed=7, n_units=2, unit_size=20)
    server = AnalysisServer(Project(), registry=Registry(), workers=4)
    InProcessClient(server).call("open", {"files": files})
    bound = {}
    ready = threading.Event()

    def on_ready(host, port):
        bound["addr"] = (host, port)
        ready.set()

    thread = threading.Thread(
        target=serve_tcp, args=(server,), kwargs={"ready": on_ready},
        daemon=True,
    )
    thread.start()
    assert ready.wait(10)
    yield (*bound["addr"], script)
    server.closing = True
    thread.join(timeout=10)


class TestLoadHarness:
    def test_run_load_counts_and_identity(self, tcp_fleet):
        host, port, script = tcp_fleet
        # One serial session over the full doubled script — request ids
        # run 1..2N, exactly like each concurrent client's session.
        reference = [
            line
            for _, line in _session(
                host, port, list(script) * 2, think_s=0.0
            )
        ]
        load = run_load(
            host, port, script, clients=3, rounds=2, think_s=0.0
        )
        assert load["clients"] == 3
        assert load["requests"] == 3 * 2 * len(script)
        assert load["qps"] > 0
        assert set(load["latency_s"]) == {
            "p10", "p25", "p50", "p90", "p99", "max", "mean"
        }
        assert identity_check(reference, load["lines"])
        for session in load["lines"]:
            for line in session:
                assert validate_response(json.loads(line))["ok"]

    def test_fetch_status(self, tcp_fleet):
        host, port, _ = tcp_fleet
        status = fetch_status(host, port)
        assert status["open"] is True
        assert status["workers"]["pool_size"] == 4

    def test_identity_check_catches_divergence(self):
        assert identity_check(["a", "b"], [["a", "b"], ["a", "b"]])
        assert not identity_check(["a", "b"], [["a", "b"], ["a", "X"]])
        assert not identity_check(["a", "b"], [["a"]])


class TestTrajectory:
    def test_creates_and_appends(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        append_trajectory(path, {"speedup": 2.5}, "servebench")
        append_trajectory(path, {"speedup": 3.0}, "servebench")
        data = json.loads(path.read_text())
        assert data["benchmark"] == "servebench"
        assert data["schema"] == 1
        assert [run["speedup"] for run in data["runs"]] == [2.5, 3.0]

    def test_refuses_non_trajectory_file(self, tmp_path):
        path = tmp_path / "BENCH_serve.json"
        path.write_text("[]")
        with pytest.raises(SystemExit):
            append_trajectory(path, {}, "servebench")
