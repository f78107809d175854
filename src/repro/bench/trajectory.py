"""Trajectory files: the committed ``BENCH_*.json`` records.

A trajectory file is one JSON object, ``{"benchmark", "schema",
"runs"}``, and every run of that benchmark appends its record to
``runs``.  Each record opens with :func:`run_stamp`'s host fields, so a
figure always travels with the CPU count it was measured on.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import time
from typing import Dict

from ..driver.cache import write_text_atomic


def run_stamp() -> Dict:
    """When the run happened, on which Python, with how many CPUs."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }


def append_trajectory(
    path: pathlib.Path, record: Dict, benchmark: str
) -> None:
    """Append ``record`` to ``benchmark``'s trajectory file at ``path``,
    creating it when missing; the write is atomic."""
    if path.exists():
        data = json.loads(path.read_text())
        if not isinstance(data, dict) or "runs" not in data:
            raise SystemExit(f"{path} exists but is not a trajectory file")
    else:
        data = {"benchmark": benchmark, "schema": 1, "runs": []}
    data["runs"].append(record)
    write_text_atomic(path, json.dumps(data, indent=2) + "\n")
