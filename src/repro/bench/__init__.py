"""Benchmark harness: corpus generation, timing, experiment runners and
table/figure rendering for the paper's evaluation (Tables III/V/VI,
Figures 9/10)."""

from .corpus import PROFILES, FileSpec, Profile, generate_c_source, specs_for_profile
from .report import (
    PrecisionResult,
    RatioSeries,
    figure9,
    figure10,
    headline_claims,
    measure_precision,
    render_headlines,
    render_ratio_series,
    render_table,
    table3,
    table5,
    table6,
)
from .runner import (
    EP_ORACLE_CONFIGS,
    TABLE5_CONFIGS,
    TABLE6_CONFIGS,
    FileRun,
    RunResults,
    build_programs,
    build_tasks,
    run_experiment,
)
from .suite import CorpusFile, build_corpus, build_file, flatten
from .timing import QUANTILE_COLUMNS, distribution, quantile, time_callable

__all__ = [
    "PROFILES",
    "FileSpec",
    "Profile",
    "generate_c_source",
    "specs_for_profile",
    "CorpusFile",
    "build_corpus",
    "build_file",
    "flatten",
    "QUANTILE_COLUMNS",
    "distribution",
    "quantile",
    "time_callable",
    "FileRun",
    "RunResults",
    "build_programs",
    "build_tasks",
    "run_experiment",
    "TABLE5_CONFIGS",
    "TABLE6_CONFIGS",
    "EP_ORACLE_CONFIGS",
    "PrecisionResult",
    "measure_precision",
    "table3",
    "table5",
    "table6",
    "figure9",
    "figure10",
    "headline_claims",
    "render_headlines",
    "render_ratio_series",
    "render_table",
    "RatioSeries",
]
