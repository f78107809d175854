"""Seeded workload inputs, written as files the program then reads.

Every workload's *shape* (file count, per-file sizes, cross-file wiring,
which files carry the heavy-tail pointer webs) is the fixed plan of a
Table III profile, and the benchmark seed draws every file's *content*:
statements, variables, pointer patterns and call targets.  So a run on
an unseen seed exercises different programs of the same size, and runs
on different seeds measure comparable amounts of work.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

#: the profile plan's own seed: it fixes the shape and the content of
#: the heaviest files (see :func:`reseed`)
SHAPE_SEED = 0
HEAVY_SHARE = 0.1


@dataclass(frozen=True)
class Sizes:
    """Corpus scales of every workload (see README.md for the why)."""

    c_build: Tuple[str, float, float] = ("557.xz", 1.0, 0.01)
    sweep: Tuple[float, float] = (0.01, 0.005)
    serve: Tuple[str, float, float] = ("557.xz", 0.5, 0.02)


FULL = Sizes()
#: tiny shapes for the benchmark's own smoke tests
SMOKE = Sizes(
    c_build=("557.xz", 0.05, 0.005),
    sweep=(0.002, 0.002),
    serve=("557.xz", 0.05, 0.005),
)


def reseed(specs, seed: int, salt: str) -> list:
    """The same specs with each file's content seed drawn from ``seed``.

    A file carrying at least ``HEAVY_SHARE`` of the corpus's statements
    keeps the plan's own content: one such file can carry half of a
    run's work, and its content alone would swing the run by a third
    from seed to seed.
    """
    rng = random.Random(f"{salt}:{seed}")
    total = sum(s.size for s in specs)
    return [
        s if s.size >= HEAVY_SHARE * total
        else dataclasses.replace(s, seed=rng.randrange(1 << 30))
        for s in specs
    ]


def program_specs(shape: Tuple[str, float, float], seed: int, salt: str) -> list:
    """A linkable multi-TU program of one profile's shape."""
    from repro.bench.corpus import PROFILES, plan_profile_program

    profile, files_scale, size_scale = shape
    plan = plan_profile_program(
        PROFILES[profile], files_scale=files_scale, size_scale=size_scale,
        seed=SHAPE_SEED,
    )
    return reseed(plan, seed, salt)


def sweep_specs(shape: Tuple[float, float], seed: int) -> list:
    """Standalone files across all Table III profiles."""
    from repro.bench.corpus import PROFILES, specs_for_profile

    files_scale, size_scale = shape
    specs = []
    for profile in PROFILES.values():
        specs.extend(
            specs_for_profile(
                profile, files_scale=files_scale, size_scale=size_scale,
                seed=SHAPE_SEED,
            )
        )
    return reseed(specs, seed, "corpus-sweep")


def file_name(spec) -> str:
    """``557.xz/unit0003.c`` → ``557.xz__unit0003.c`` (unique, flat)."""
    return spec.name.replace("/", "__")


def render(spec) -> str:
    from repro.bench.corpus import generate_c_source

    return generate_c_source(spec)


def write_sources(directory: Path, specs) -> List[Path]:
    """Write each spec's C text under ``directory``, in spec order."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for spec in specs:
        path = directory / file_name(spec)
        path.write_text(render(spec))
        paths.append(path)
    return paths


def edited(spec, seed: int, edit: int):
    """A fresh definition of one member: same interface, new body."""
    rng = random.Random(f"serve-edit:{seed}:{edit}")
    return dataclasses.replace(spec, seed=rng.randrange(1 << 30))
