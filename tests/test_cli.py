"""CLI tests (python -m repro)."""

import json
import os
import pathlib
import signal
import subprocess
import sys

import pytest

from repro import __version__
from repro.__main__ import main

SRC = """
static int x;
extern int* getPtr(void);
int* p = &x;
int use(void) { return *getPtr(); }
"""


@pytest.fixture
def cfile(tmp_path):
    path = tmp_path / "demo.c"
    path.write_text(SRC)
    return str(path)


class TestCLI:
    def test_compile(self, cfile, capsys):
        assert main(["compile", cfile]) == 0
        out = capsys.readouterr().out
        assert "@p" in out and "define" in out

    def test_analyze(self, cfile, capsys):
        assert main(["analyze", cfile]) == 0
        out = capsys.readouterr().out
        assert "externally accessible" in out
        assert "getPtr" in out
        assert "Sol(" in out

    def test_analyze_with_config_and_dump(self, cfile, capsys):
        assert main(
            ["analyze", cfile, "--config", "EP+Naive", "--dump-constraints"]
        ) == 0
        out = capsys.readouterr().out
        assert "EP+Naive" in out
        assert "ImpFunc" in out  # from the constraint dump

    def test_analyze_pts_backend(self, cfile, capsys):
        assert main(["analyze", cfile, "--pts-backend", "bitset"]) == 0
        bitset_out = capsys.readouterr().out
        assert main(["analyze", cfile]) == 0
        set_out = capsys.readouterr().out
        # Identical report apart from the configuration banner.
        strip = lambda text: [
            l for l in text.splitlines() if not l.startswith(";")
        ]
        assert strip(bitset_out) == strip(set_out)

    def test_analyze_unknown_pts_backend_rejected(self, cfile, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", cfile, "--pts-backend", "roaring"])

    def test_sweep(self, cfile, capsys):
        assert main(["sweep", cfile]) == 0
        out = capsys.readouterr().out
        assert "identical solution" in out

    def test_sweep_pts_backend(self, cfile, capsys):
        assert main(["sweep", cfile, "--pts-backend", "bitset"]) == 0
        out = capsys.readouterr().out
        assert "identical solution" in out

    def test_configs(self, capsys):
        assert main(["configs"]) == 0
        out = capsys.readouterr().out
        assert "IP+WL(FIFO)+PIP" in out.splitlines()

    def test_include_dir(self, tmp_path, capsys):
        (tmp_path / "api.h").write_text("extern int api(void);\n")
        source = tmp_path / "m.c"
        source.write_text('#include "api.h"\nint f(void) { return api(); }\n')
        assert main(
            ["analyze", str(source), "--include", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "api" in out


@pytest.fixture
def tu_pair(tmp_path):
    a = tmp_path / "a.c"
    a.write_text(
        "extern int *get_cell(void);\n"
        "int *ap;\n"
        "void use(void) { ap = get_cell(); }\n"
    )
    b = tmp_path / "b.c"
    b.write_text("int cell;\nint *get_cell(void) { return &cell; }\n")
    return str(a), str(b)


class TestLinkCLI:
    def test_link_two_files(self, tu_pair, capsys):
        assert main(["link", *tu_pair]) == 0
        out = capsys.readouterr().out
        assert "linked 2 modules" in out
        assert "get_cell: defined in b.c, imported by a.c" in out
        assert "externally accessible" in out

    def test_link_ladder(self, tu_pair, capsys):
        assert main(["link", *tu_pair, "--ladder"]) == 0
        out = capsys.readouterr().out
        assert "prefix ladder" in out
        assert "|E∩TU0|" in out

    def test_link_report_json(self, tu_pair, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        cache_dir = tmp_path / "cache"
        args = [
            "link", *tu_pair, "--ladder", "--cache",
            "--cache-dir", str(cache_dir), "--out", str(report_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["link"]["members"] == 2
        assert report["resolved_imports"] == ["get_cell"]
        assert "points_to" in report["solution"]
        assert set(report["stages"]) == {
            "parse", "lower", "constraints", "import", "link", "solve",
            "audit",
        }
        assert all("seconds" in s for s in report["stages"].values())
        assert len(report["ladder"]) == 2

        # Warm re-run: every persistent stage hits the cache.
        assert main(args) == 0
        capsys.readouterr()
        warm = json.loads(report_path.read_text())
        assert warm["stages"]["parse"]["runs"] == 0
        assert warm["stages"]["constraints"]["hits"] == 2
        assert warm["solution"] == report["solution"]

    def test_link_show_solution(self, tu_pair, capsys):
        assert main(["link", *tu_pair, "--show-solution"]) == 0
        out = capsys.readouterr().out
        assert "Sol(" in out

    def test_link_internalize(self, tu_pair, capsys):
        assert main(["link", *tu_pair, "--internalize", "--keep", "use"]) == 0
        out = capsys.readouterr().out
        # Internalized: cell/ap are no longer externally accessible.
        external = out.split("externally accessible:")[1]
        assert "cell" not in external and "ap" not in external

    def test_link_duplicate_definition_fails(self, tmp_path, capsys):
        a = tmp_path / "a.c"
        a.write_text("int shared;\n")
        b = tmp_path / "b.c"
        b.write_text("int shared;\n")
        assert main(["link", str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert "link error" in err
        assert "duplicate definition of symbol 'shared'" in err

    def test_link_single_file_matches_analyze(self, cfile, capsys):
        assert main(["link", cfile]) == 0
        out = capsys.readouterr().out
        assert "linked 1 modules" in out
        assert "getPtr" in out

    def test_link_cache_max_entries(self, tu_pair, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        args = [
            "link", *tu_pair, "--cache", "--cache-dir", str(cache_dir),
            "--cache-max-entries", "1",
        ]
        assert main(args) == 0
        capsys.readouterr()
        # Two TUs through a 1-entry bound: the per-TU constraints
        # namespace is evicted down to one entry; the command still
        # succeeds and re-runs.
        assert len(list(cache_dir.glob("stages/constraints/*/*.json"))) == 1
        assert main(args) == 0
        capsys.readouterr()


class TestShardedLinkCLI:
    def test_link_shards_matches_flat_output(self, tu_pair, capsys):
        assert main(["link", *tu_pair, "--show-solution"]) == 0
        flat = capsys.readouterr().out
        assert main(
            ["link", *tu_pair, "--shards", "2", "--jobs", "2",
             "--show-solution"]
        ) == 0
        sharded = capsys.readouterr().out
        assert "; sharded: " in sharded
        assert flat.split("\n", 1)[0] == sharded.split("\n", 1)[0]
        # Resolution provenance names differ (hierarchical links report
        # their immediate child, e.g. "linked(b.c)"), but the external
        # set and the solution are identical to the flat run.
        assert (
            flat.split("externally accessible:")[1]
            == sharded.split("externally accessible:")[1]
        )

    def test_link_shards_report_carries_stats(self, tu_pair, tmp_path, capsys):
        import json

        report_path = tmp_path / "report.json"
        cache_dir = tmp_path / "cache"
        args = [
            "link", *tu_pair, "--shards", "2", "--cache",
            "--cache-dir", str(cache_dir), "--out", str(report_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        report = json.loads(report_path.read_text())
        assert report["shard"]["members"] == 2
        assert report["shard"]["link_runs"] == report["shard"]["occupied"]
        # Warm rerun: shard artifacts all hit.
        assert main(args) == 0
        capsys.readouterr()
        warm = json.loads(report_path.read_text())
        assert warm["shard"]["link_runs"] == 0
        assert warm["shard"]["link_hits"] == report["shard"]["occupied"]
        assert warm["solution"] == report["solution"]

    def test_link_shards_internalize(self, tu_pair, capsys):
        assert main(
            ["link", *tu_pair, "--shards", "3", "--internalize",
             "--keep", "use"]
        ) == 0
        out = capsys.readouterr().out
        external = out.split("externally accessible:")[1]
        assert "cell" not in external and "ap" not in external

    def test_shardbench_help_passthrough(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["shardbench", "--help"])
        assert exc.value.code == 0
        assert "--jobs-sweep" in capsys.readouterr().out


class TestVersionAndDiagnostics:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"

    @pytest.fixture
    def badfile(self, tmp_path):
        path = tmp_path / "broken.c"
        path.write_text("int main(void) { return 0\n")
        return str(path)

    @pytest.mark.parametrize(
        "command",
        [
            lambda f: ["compile", f],
            lambda f: ["analyze", f],
            lambda f: ["sweep", f],
            lambda f: ["link", f],
            lambda f: ["query", f, "-q", "classify"],
        ],
    )
    def test_frontend_errors_are_one_line_diagnostics(
        self, badfile, capsys, command
    ):
        assert main(command(badfile)) == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        [line] = [l for l in captured.err.splitlines() if l]
        assert line.startswith("repro: error: broken.c:2: ")

    @pytest.mark.parametrize("name", ["IP+Bogus+WL(FIFO)", "IP+Reduce+WL(FIFO)"])
    def test_bad_config_is_a_usage_error(self, cfile, capsys, name):
        for command in (
            ["analyze", cfile],
            ["link", cfile],
            ["audit", "escape", cfile],
            ["constraints", "solve", cfile],
            ["serve", cfile],
        ):
            assert main([*command, "--config", name]) == 2, command
            err = capsys.readouterr().err
            assert "Traceback" not in err
            [line] = [l for l in err.splitlines() if l]
            assert line.startswith("repro: error: "), command
            assert "'Reduce'" in line or "'Bogus'" in line

    def test_sema_error_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "sema.c"
        path.write_text("int f(void) { return undeclared_name; }\n")
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro: error: sema.c:1: ")
        assert "undeclared_name" in err


class TestServeQueryCLI:
    def test_query_single_and_json_forms(self, tu_pair, capsys):
        assert main([
            "query", *tu_pair,
            "-q", "classify",
            "-q", json.dumps(
                {"method": "points_to", "params": {"var": "ap"}}
            ),
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        first, second = (json.loads(line) for line in lines)
        assert first["ok"] and first["generation"] == 1
        assert "cell" in first["result"]["external"]
        # Open-world linking: ap is itself external, so its Sol keeps Ω.
        assert "cell" in second["result"]["pointees"]
        assert second["result"]["omega"] is True

    def test_query_internalized_is_precise(self, tu_pair, capsys):
        assert main([
            "query", *tu_pair, "--internalize", "--keep", "use",
            "-q", json.dumps(
                {"method": "points_to", "params": {"var": "ap"}}
            ),
        ]) == 0
        response = json.loads(capsys.readouterr().out)
        # Whole-program view: ap can only hold &cell, no Ω.
        assert response["result"]["pointees"] == ["cell"]
        assert response["result"]["omega"] is False

    def test_query_error_exits_nonzero(self, tu_pair, capsys):
        assert main(["query", *tu_pair, "-q", "frobnicate"]) == 1
        response = json.loads(capsys.readouterr().out)
        assert response["error"]["code"] == "unknown_method"

    def test_query_bad_json(self, tu_pair, capsys):
        assert main(["query", *tu_pair, "-q", "{nope"]) == 2
        assert "bad --query JSON" in capsys.readouterr().err

    def test_query_matches_repeat_runs_byte_identically(
        self, tu_pair, capsys
    ):
        argv = ["query", *tu_pair, "-q", "solution"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_serve_stdio_subprocess_session(self, tu_pair, tmp_path):
        import subprocess
        import sys

        from repro.obs import read_trace
        from repro.serve import validate_response

        trace_path = tmp_path / "serve-trace.jsonl"
        requests = [
            {"schema": 1, "id": 1, "method": "ping", "params": {}},
            {"schema": 1, "id": 2, "method": "open",
             "params": {"files": {
                 "a.c": "int cell; int *get(void) { return &cell; }",
             }}},
            {"schema": 1, "id": 3, "method": "points_to",
             "params": {"var": "get.ret"}},
            {"schema": 1, "id": 4, "method": "shutdown", "params": {}},
        ]
        stdin = "not even json\n" + "".join(
            json.dumps(r) + "\n" for r in requests
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--stdio",
             "--trace-out", str(trace_path)],
            input=stdin, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        responses = [
            validate_response(json.loads(line))
            for line in proc.stdout.splitlines()
        ]
        assert [r.get("id") for r in responses] == [None, 1, 2, 3, 4]
        assert responses[0]["error"]["code"] == "parse_error"
        assert all(r["ok"] for r in responses[1:])
        events = read_trace(trace_path, events=["serve"])
        assert [e["name"] for e in events] == [
            "<invalid>", "ping", "open", "points_to", "shutdown"
        ]


ARENA = str(
    pathlib.Path(__file__).resolve().parents[1] / "examples/corpus/arena.c"
)


@pytest.fixture
def badc(tmp_path):
    path = tmp_path / "bad.c"
    path.write_text("int f(void) { return 1 +; }\n")
    return str(path)


def run_repro(*args, timeout=60):
    """Run the CLI in a subprocess; a run still going after ``timeout``
    seconds fails the test, its whole process group killed."""
    import repro

    env = dict(
        os.environ, PYTHONPATH=str(pathlib.Path(repro.__file__).parents[1])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"repro {' '.join(args)} still running after {timeout}s")
    return proc.returncode, out, err


class TestWorkerErrors:
    @pytest.mark.parametrize(
        "command",
        [
            lambda bad: ["sweep", bad, "--jobs", "2"],
            lambda bad: ["link", ARENA, bad, "--shards", "2", "--jobs", "2"],
        ],
        ids=["sweep", "sharded-link"],
    )
    def test_parse_error_in_a_pool_worker_exits_1(self, badc, command):
        code, _, err = run_repro(*command(badc))
        assert code == 1, err
        assert err.startswith("repro: error: bad.c:1: "), err


class TestLinkFrontDoor:
    @pytest.mark.parametrize(
        "command", [["link"], ["constraints", "export"], ["audit", "escape"]]
    )
    def test_sharded_paths_name_the_failing_file(self, badc, capsys, command):
        assert main([*command, ARENA, badc, "--shards", "2"]) == 1
        err = capsys.readouterr().err
        assert err == "repro: error: bad.c:1: unexpected token ';'\n"

    @pytest.mark.parametrize("shards", ["0", "-1", "two"])
    def test_shards_must_be_a_positive_integer(self, tu_pair, capsys, shards):
        with pytest.raises(SystemExit) as exc:
            main(["link", *tu_pair, "--shards", shards])
        assert exc.value.code == 2
        assert "argument --shards" in capsys.readouterr().err

    @pytest.fixture
    def lir_pair(self, tu_pair, tmp_path, capsys):
        """``a.c`` exported as ``a.lir``, next to the C ``b.c``."""
        lir = tmp_path / "a.lir"
        assert main(["constraints", "export", tu_pair[0], "--out", str(lir)]) == 0
        capsys.readouterr()
        return str(lir), tu_pair[1]

    @pytest.mark.parametrize("command", [["link"], ["constraints", "export"]])
    def test_lir_members_match_their_c_source(
        self, tu_pair, lir_pair, capsys, command
    ):
        assert main([*command, *tu_pair]) == 0
        from_c = capsys.readouterr().out
        assert main([*command, *lir_pair]) == 0
        assert capsys.readouterr().out == from_c

    @pytest.mark.parametrize(
        "command", [["link"], ["constraints", "export"], ["audit", "escape"]]
    )
    def test_lir_members_cannot_shard(self, lir_pair, capsys, command):
        assert main([*command, *lir_pair, "--shards", "2"]) == 2
        assert capsys.readouterr().err == (
            "repro: error: --shards cannot link .lir members"
            " (use the flat path)\n"
        )


class TestTraceOnFailure:
    @pytest.mark.parametrize("command", [["link"], ["audit", "escape"]])
    def test_frontend_error_leaves_no_trace_file(
        self, badc, tmp_path, capsys, command
    ):
        trace = tmp_path / "t.jsonl"
        assert main([*command, ARENA, badc, "--trace-out", str(trace)]) == 1
        assert list(tmp_path.glob("t.jsonl*")) == []

    def test_link_error_leaves_no_trace_file(self, tmp_path, capsys):
        a = tmp_path / "a.c"
        b = tmp_path / "b.c"
        a.write_text("int x = 1;\n")
        b.write_text("int x = 2;\n")
        trace = tmp_path / "t.jsonl"
        assert main(["link", str(a), str(b), "--trace-out", str(trace)]) == 1
        assert capsys.readouterr().err.startswith("link error: ")
        assert list(tmp_path.glob("t.jsonl*")) == []

    def test_audit_trace_validates(self, tu_pair, tmp_path, capsys):
        from repro.obs import read_trace

        trace = tmp_path / "t.jsonl"
        argv = ["audit", "escape", *tu_pair, "--trace-out", str(trace)]
        assert main(argv) == 0
        assert capsys.readouterr().out.endswith(f"wrote {trace}\n")
        events = [e["event"] for e in read_trace(trace)]
        assert events[-2:] == ["audit", "metrics"]
