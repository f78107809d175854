"""Concurrent serve-fleet load benchmark (``BENCH_serve.json``).

Spawns a **real** ``repro serve --tcp`` subprocess, drives it with K
concurrent closed-loop clients (each sends a fixed query script with a
small per-request think time, modelling an editor processing each
answer), and records throughput (QPS), latency quantiles (p50/p99),
memo hit rate, and warm-vs-cold start times into a persistent
trajectory file — the ``BENCH_solver.json`` discipline applied to the
server.

Two server modes are measured with the identical workload:

- **baseline** — ``--workers 1``: the sequential accept loop (PR 5's
  server): one connection is served to completion before the next is
  accepted, so K client sessions fully serialize.
- **fleet** — ``--workers K``: thread-per-connection; requests from
  different clients overlap (socket I/O and client think time release
  the GIL), so the wall clock approaches one session instead of K.

The headline acceptance target (fleet QPS ≥ 2× baseline QPS at 8
concurrent clients) is evaluated and stored in the run record, as is a
**byte-identity check**: every client's response lines must be
byte-identical to a serial session replaying the same script — the
concurrent read path must not change a single answer.

Warm vs cold start uses ``--state-dir``: the cold run builds the
project from source at startup (parse→link→solve) and persists it; the
warm run restores the digest-validated snapshot and must answer its
first query without rebuilding.

Usage::

    python -m repro.bench.servebench [--out BENCH_serve.json] [--quick]
        [--clients K] [--workers N] [--rounds R] [--units U]
        [--unit-size S] [--seed N] [--think-ms MS]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..serve.client import default_serve_argv
from ..serve.protocol import PROTOCOL_SCHEMA, encode_frame, validate_response
from .corpus import ProgramSpec, generate_c_source, plan_program
from .timing import distribution
from .trajectory import append_trajectory, run_stamp

SPEEDUP_TARGET = 2.0

#: clients used for the headline speedup measurement
HEADLINE_CLIENTS = 8


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------


def build_workload(
    seed: int = 7, n_units: int = 4, unit_size: int = 40
) -> Tuple[Dict[str, str], List[Tuple[str, Dict]]]:
    """A deterministic multi-TU project plus one client query script.

    The script mixes cheap memoisable point queries (``points_to`` on
    every cross-TU shared pointer cell), per-member ``callgraph``
    walks, and whole-solution scans (``classify``) — all pure functions
    of the snapshot, so every answer is byte-comparable across clients
    and transports.
    """
    spec = ProgramSpec(
        name="servebench", seed=seed, n_units=n_units, unit_size=unit_size
    )
    unit_specs = plan_program(spec)
    files = {
        f"{unit.prefix.rstrip('_')}.c": generate_c_source(unit)
        for unit in unit_specs
    }
    script: List[Tuple[str, Dict]] = [("classify", {})]
    for unit in unit_specs:
        member = f"{unit.prefix.rstrip('_')}.c"
        script.append(("callgraph", {"member": member}))
        for ptr in unit.exported_ptr_globals:
            script.append(("points_to", {"var": ptr}))
    return files, script


# ----------------------------------------------------------------------
# Server process management
# ----------------------------------------------------------------------


class ServerProcess:
    """A ``repro serve --tcp`` subprocess plus its bound address."""

    def __init__(
        self,
        process: subprocess.Popen,
        host: str,
        port: int,
        spawn_to_ready_s: float,
    ):
        self.process = process
        self.host = host
        self.port = port
        self.spawn_to_ready_s = spawn_to_ready_s

    def shutdown(self, timeout: float = 30.0) -> None:
        try:
            lines = _session(
                self.host, self.port, [("shutdown", {})], think_s=0.0
            )
            validate_response(json.loads(lines[0][1]))
        except (OSError, ValueError):
            pass  # already gone; wait() below settles it either way
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - safety
            self.process.kill()
            self.process.wait()


def spawn_server(
    workers: int,
    files: Optional[Sequence[pathlib.Path]] = None,
    state_dir: Optional[pathlib.Path] = None,
    extra: Sequence[str] = (),
    ready_timeout: float = 120.0,
) -> ServerProcess:
    """Spawn ``repro serve --tcp 127.0.0.1:0`` and wait for its banner.

    The returned ``spawn_to_ready_s`` covers everything before the
    server listens — interpreter start, module import, and (when
    ``files`` are given) the full startup build, or (with a populated
    ``state_dir``) the warm restore — which is exactly the cold/warm
    comparison the trajectory tracks.
    """
    argv = default_serve_argv(
        "--tcp", "127.0.0.1:0", "--workers", str(workers), *extra
    )
    if state_dir is not None:
        argv += ["--state-dir", str(state_dir)]
    if files:
        argv += [str(path) for path in files]
    t0 = time.perf_counter()
    process = subprocess.Popen(
        argv,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    deadline = t0 + ready_timeout
    banner = None
    while time.perf_counter() < deadline:
        line = process.stderr.readline()
        if not line:
            break
        if "listening on" in line:
            banner = line.strip()
            break
    if banner is None:
        process.kill()
        raise RuntimeError("server never printed its listening banner")
    address = banner.rsplit(" ", 1)[-1]
    host, _, port_text = address.rpartition(":")
    return ServerProcess(
        process, host, int(port_text), time.perf_counter() - t0
    )


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------


def _session(
    host: str,
    port: int,
    script: Sequence[Tuple[str, Dict]],
    think_s: float,
    start_gate: Optional[threading.Event] = None,
) -> List[Tuple[float, str]]:
    """One TCP session replaying ``script``; returns (latency, line)
    per request.  Request ids restart at 1 per session, so two sessions
    over the same script must receive byte-identical response lines."""
    with socket.create_connection((host, port), timeout=60.0) as sock:
        rfile = sock.makefile("r", encoding="utf-8", newline="\n")
        wfile = sock.makefile("w", encoding="utf-8", newline="\n")
        if start_gate is not None:
            start_gate.wait()
        out: List[Tuple[float, str]] = []
        for i, (method, params) in enumerate(script):
            frame = encode_frame({
                "schema": PROTOCOL_SCHEMA,
                "id": i + 1,
                "method": method,
                "params": params,
            })
            t0 = time.perf_counter()
            wfile.write(frame + "\n")
            wfile.flush()
            reply = rfile.readline()
            latency = time.perf_counter() - t0
            if not reply:
                raise RuntimeError("server closed the connection mid-script")
            out.append((latency, reply.rstrip("\n")))
            if think_s:
                time.sleep(think_s)
        return out


def run_load(
    host: str,
    port: int,
    script: Sequence[Tuple[str, Dict]],
    clients: int,
    rounds: int,
    think_s: float,
) -> Dict:
    """K concurrent closed-loop clients × R rounds of the script.

    All clients connect first, then start together on a gate, so the
    measured wall clock covers pure request traffic.  Returns QPS,
    latency quantiles, and the per-client response lines (for the
    byte-identity check).
    """
    full_script = list(script) * rounds
    gate = threading.Event()
    results: List[Optional[List[Tuple[float, str]]]] = [None] * clients
    errors: List[BaseException] = []

    def worker(slot: int) -> None:
        try:
            results[slot] = _session(
                host, port, full_script, think_s, start_gate=gate
            )
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(slot,), daemon=True)
        for slot in range(clients)
    ]
    for thread in threads:
        thread.start()
    time.sleep(0.05)  # let every client reach the gate
    t0 = time.perf_counter()
    gate.set()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - t0
    if errors:
        raise RuntimeError(f"client failed: {errors[0]!r}") from errors[0]
    latencies = sorted(
        latency for session in results for latency, _ in session
    )
    total = len(latencies)
    return {
        "clients": clients,
        "requests": total,
        "wall_s": wall_s,
        "qps": total / wall_s if wall_s > 0 else 0.0,
        "latency_s": distribution(latencies),
        "lines": [[line for _, line in session] for session in results],
    }


def identity_check(
    reference: Sequence[str], sessions: Sequence[Sequence[str]]
) -> bool:
    """Every concurrent session byte-identical to the serial reference."""
    return all(list(session) == list(reference) for session in sessions)


def fetch_status(host: str, port: int) -> Dict:
    """One ``status`` request on a fresh connection."""
    lines = _session(host, port, [("status", {})], think_s=0.0)
    response = validate_response(json.loads(lines[0][1]))
    if not response["ok"]:  # pragma: no cover - diagnostics only
        raise RuntimeError(f"status failed: {response['error']}")
    return response["result"]


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------


def _measure_mode(
    workers: int,
    source_paths: Sequence[pathlib.Path],
    script: Sequence[Tuple[str, Dict]],
    clients: int,
    rounds: int,
    think_s: float,
    reference: Sequence[str],
) -> Dict:
    """Spawn one server mode, run the load, collect status, shut down."""
    server = spawn_server(workers, files=source_paths)
    try:
        load = run_load(
            server.host, server.port, script, clients, rounds, think_s
        )
        status = fetch_status(server.host, server.port)
    finally:
        server.shutdown()
    identity_ok = identity_check(reference, load.pop("lines"))
    memo = status["memo"]
    lookups = memo["hits"] + memo["misses"]
    return {
        "workers": workers,
        **load,
        "identity_ok": identity_ok,
        "memo": memo,
        "memo_hit_rate": memo["hits"] / lookups if lookups else 0.0,
        "workers_status": status["workers"],
    }


def run_benchmark(
    clients: int = HEADLINE_CLIENTS,
    workers: Optional[int] = None,
    rounds: int = 3,
    n_units: int = 4,
    unit_size: int = 40,
    seed: int = 7,
    think_s: float = 0.002,
    quick: bool = False,
) -> Dict:
    """Measure baseline vs fleet over one workload; return a run record.

    The serial reference session (one client, sequential server) is
    recorded first and doubles as the byte-identity oracle for every
    concurrent session in both modes.
    """
    if quick:
        clients = min(clients, 4)
        rounds = min(rounds, 2)
        n_units = min(n_units, 3)
        unit_size = min(unit_size, 25)
    fleet_workers = workers if workers is not None else clients
    files, script = build_workload(
        seed=seed, n_units=n_units, unit_size=unit_size
    )

    with tempfile.TemporaryDirectory(prefix="servebench-") as tmp:
        tmp_path = pathlib.Path(tmp)
        source_paths = []
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text)
            source_paths.append(path)

        # Serial reference: the byte-identity oracle for every mode.
        reference_server = spawn_server(1, files=source_paths)
        try:
            reference = [
                line
                for _, line in _session(
                    reference_server.host,
                    reference_server.port,
                    list(script) * rounds,
                    think_s=0.0,
                )
            ]
        finally:
            reference_server.shutdown()

        print(
            f"workload: {len(files)} members, {len(script)} queries/round"
            f" x {rounds} rounds x {clients} clients"
        )
        baseline = _measure_mode(
            1, source_paths, script, clients, rounds, think_s, reference
        )
        print(
            f"  baseline (workers=1):  {baseline['qps']:7.1f} qps"
            f"  p50={baseline['latency_s']['p50'] * 1e3:.1f}ms"
            f"  p99={baseline['latency_s']['p99'] * 1e3:.1f}ms"
        )
        fleet = _measure_mode(
            fleet_workers,
            source_paths,
            script,
            clients,
            rounds,
            think_s,
            reference,
        )
        print(
            f"  fleet (workers={fleet_workers}):"
            f"  {fleet['qps']:7.1f} qps"
            f"  p50={fleet['latency_s']['p50'] * 1e3:.1f}ms"
            f"  p99={fleet['latency_s']['p99'] * 1e3:.1f}ms"
        )

        # Warm vs cold start through --state-dir persistence.
        state_dir = tmp_path / "state"
        cold_server = spawn_server(
            1, files=source_paths, state_dir=state_dir
        )
        cold_s = cold_server.spawn_to_ready_s
        cold_server.shutdown()
        warm_server = spawn_server(1, state_dir=state_dir)
        warm_s = warm_server.spawn_to_ready_s
        warm_status = fetch_status(warm_server.host, warm_server.port)
        warm_server.shutdown()

    speedup = (
        fleet["qps"] / baseline["qps"] if baseline["qps"] > 0 else 0.0
    )
    identity_ok = baseline["identity_ok"] and fleet["identity_ok"]
    record = {
        **run_stamp(),
        "params": {
            "clients": clients,
            "workers": fleet_workers,
            "rounds": rounds,
            "n_units": n_units,
            "unit_size": unit_size,
            "seed": seed,
            "think_ms": think_s * 1e3,
            "quick": quick,
        },
        "workload": {
            "members": sorted(files),
            "queries_per_round": len(script),
            "requests_per_client": len(script) * rounds,
        },
        "baseline": baseline,
        "fleet": fleet,
        "speedup": speedup,
        "speedup_target": SPEEDUP_TARGET,
        "target_met": speedup >= SPEEDUP_TARGET and identity_ok,
        "identity_ok": identity_ok,
        "startup": {
            "cold_s": cold_s,
            "warm_s": warm_s,
            "warm_generation": warm_status["generation"],
            "warm_open": warm_status["open"],
            "state_loads": warm_status["state"]["loads"],
        },
    }
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=pathlib.Path("BENCH_serve.json"),
        help="trajectory file to append this run to",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workload and client count (CI smoke run)",
    )
    parser.add_argument("--clients", type=int, default=HEADLINE_CLIENTS)
    parser.add_argument(
        "--workers", type=int, default=None,
        help="fleet worker count (default: one per client)",
    )
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--units", type=int, default=4)
    parser.add_argument("--unit-size", type=int, default=40)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--think-ms", type=float, default=2.0,
        help="per-request client think time (closed-loop load model)",
    )
    args = parser.parse_args(argv)

    record = run_benchmark(
        clients=args.clients,
        workers=args.workers,
        rounds=args.rounds,
        n_units=args.units,
        unit_size=args.unit_size,
        seed=args.seed,
        think_s=args.think_ms / 1e3,
        quick=args.quick,
    )
    append_trajectory(args.out, record, "servebench")

    print(f"\nwrote {args.out}")
    print(
        f"startup: cold {record['startup']['cold_s']:.2f}s,"
        f" warm {record['startup']['warm_s']:.2f}s"
        f" (restored generation"
        f" {record['startup']['warm_generation']})"
    )
    print(
        f"identity: {'byte-identical' if record['identity_ok'] else 'DIVERGED'}"
        f"  memo hit rate (fleet): {record['fleet']['memo_hit_rate']:.2f}"
    )
    print(
        f"headline: fleet/baseline QPS {record['speedup']:.2f}x"
        f" at {record['params']['clients']} clients"
        f" — target {record['speedup_target']:.1f}x"
        f" {'MET' if record['target_met'] else 'NOT met'}"
    )
    return 0 if record["target_met"] else 1


if __name__ == "__main__":
    sys.exit(main())
