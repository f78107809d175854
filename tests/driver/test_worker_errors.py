"""Exceptions raised in pool workers reach the caller, never a hang."""

import os
import pickle
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.analysis.constraints import ProgramFormatError


def test_program_format_error_pickle_round_trip():
    exc = ProgramFormatError("load_from[3]", "bad")
    clone = pickle.loads(pickle.dumps(exc))
    assert type(clone) is ProgramFormatError
    assert str(clone) == str(exc) == "load_from[3]: bad"
    assert clone.where == "load_from[3]"


#: a two-job batch whose module-level job raises an exception the pool
#: cannot send back (its constructor signature defeats unpickling)
UNPICKLABLE_JOB = textwrap.dedent(
    """
    from dataclasses import dataclass

    from repro.driver.pool import Executor


    class Unpicklable(Exception):
        def __init__(self, a, b):
            super().__init__(f"{a}/{b}")


    @dataclass
    class Job:
        index: int


    def job(job, worker):
        raise Unpicklable("x", "y")


    if __name__ == "__main__":
        with Executor(jobs=2) as executor:
            try:
                executor.map(job, [Job(0), Job(1)])
            except RuntimeError as exc:
                print(f"raised: {exc}")
    """
)


def test_unpicklable_worker_exception_raises_instead_of_hanging(tmp_path):
    script = tmp_path / "unpicklable_job.py"
    script.write_text(UNPICKLABLE_JOB)
    proc = subprocess.Popen(
        [sys.executable, str(script)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
        proc.communicate()
        pytest.fail("Executor.map still waiting after 60s")
    assert proc.returncode == 0, err
    assert out.strip() == "raised: Unpicklable: x/y"
