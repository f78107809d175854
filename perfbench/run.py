"""The repo's end-to-end benchmark: one workload, one seed, one record.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload c-build --seed 1 --seconds 25 --trace 0

The workload's inputs are generated from ``--seed``; every measured run
is a fresh process over files the benchmark wrote.  Outputs are checked
against an oracle (see README.md).  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace 1`` the per-layer metrics).
Lines before it hold the run record and, when traced, the per-layer
tables.  Exits 2 when the program's sources are not beside the
benchmark, 1 when a workload cannot produce its metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import inputs  # noqa: E402
from harness import ROOT, SRC, host_probe  # noqa: E402

#: scratch space inside the checkout, removed when the run ends
WORK_DIR = ROOT / ".perfbench_work"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs, for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run unwinds like an interrupted one, so the worker
    # and server processes it started are stopped and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({SRC / 'repro'})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # Byte-compile the whole program before anything is timed, so no
    # timed process compiles a module it imports for the first time.
    compileall.compile_dir(str(SRC / "repro"), quiet=2)
    import repro.pipeline  # noqa: F401
    import repro.serve  # noqa: F401
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}"
              f" (choose from {sorted(workloads.WORKLOADS)})", file=sys.stderr)
        return 2

    probe_s = host_probe()
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        work=work,
        sizes=inputs.SMOKE if args.smoke else inputs.FULL,
    )
    started = time.monotonic()
    try:
        outcome = workloads.WORKLOADS[args.workload](ctx)
    except RuntimeError as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass

    if args.trace:
        values = workloads.empty_layers()
        values.update(outcome.layers)
        values["host.probe_s"] = probe_s
        units = workloads.LAYER_UNITS
    else:
        values = outcome.end_to_end
        units = workloads.END_TO_END_UNITS
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "host.probe_s": probe_s,
        "elapsed_s": time.monotonic() - started,
        "shape": outcome.shape,
        "failures": outcome.failures[:20],
    }
    print("record: " + json.dumps(record, sort_keys=True))
    for table in outcome.tables:
        print(table)
    result = {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
