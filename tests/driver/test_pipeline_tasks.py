"""Driver tasks build through ``repro.pipeline``: constraints entries
are shared across configurations and runs, and pool workers reopen the
run's cache with its ``max_entries`` bound (the sharded link's workers
too)."""

import pathlib

import pytest

import repro.pipeline.stages as stages
from repro.driver import ResultCache, SolveTask, solve_tasks, source_digest
from repro.shard import link_sharded

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "examples" / "corpus"
SOURCES = {
    name: (CORPUS / name).read_text()
    for name in ("arena.c", "hashtable.c", "eventloop.c", "textproto.c")
}


def sweep_tasks(configs):
    return [
        SolveTask(
            index=i,
            file_name=name,
            source_hash=source_digest(text),
            config_name=config,
            source=text,
            repetitions=1,
            timing="cost",
        )
        for i, (name, text, config) in enumerate(
            (name, text, config)
            for name, text in SOURCES.items()
            for config in configs
        )
    ]


def constraints_entries(cache):
    return list((cache.root / "stages" / "constraints").glob("*/*.json"))


@pytest.mark.parametrize("jobs", [1, 2])
def test_new_configuration_skips_the_front_end(tmp_path, monkeypatch, jobs):
    cold = ResultCache(tmp_path)
    solve_tasks(sweep_tasks(["IP+WL(FIFO)"]), jobs=jobs, cache=cold)
    assert len(constraints_entries(cold)) == len(SOURCES)
    expected, _ = solve_tasks(sweep_tasks(["IP+WL(FIFO)", "EP+Naive"]))

    def no_front_end(*args, **kwargs):
        raise AssertionError("the front end ran on a cached source")

    # Forked pool workers inherit the patch.
    monkeypatch.setattr(stages, "preprocess", no_front_end)
    cache = ResultCache(tmp_path)
    results, stats = solve_tasks(
        sweep_tasks(["IP+WL(FIFO)", "EP+Naive"]), jobs=jobs, cache=cache
    )
    assert stats.solved == len(SOURCES)
    assert [r.solution for r in results] == [r.solution for r in expected]
    if jobs == 1:
        constraints = cache.stage_stats["constraints"]
        assert (constraints.hits, constraints.misses) == (len(SOURCES), 0)


@pytest.mark.parametrize("run", ["solve_tasks", "link_sharded"])
def test_pool_workers_honour_the_cache_bound(tmp_path, run):
    cache = ResultCache(tmp_path, max_entries=2)
    if run == "solve_tasks":
        solve_tasks(sweep_tasks(["IP+WL(FIFO)"]), jobs=2, cache=cache)
    else:
        # Four shards leave two occupied leaves: one pool job each.
        result = link_sharded(list(SOURCES.items()), 4, jobs=2, cache=cache)
        assert result.stats.occupied == 2
    assert 0 < len(constraints_entries(cache)) <= 2


def test_bound_below_the_shard_count_still_links(tmp_path):
    """Leaves exchanged through a cache bounded below the occupied
    shard count would be evicted before their merge reads them."""
    flat = link_sharded(list(SOURCES.items()), 4, jobs=1)
    bounded = link_sharded(
        list(SOURCES.items()), 4, jobs=1,
        cache=ResultCache(tmp_path, max_entries=1),
    )
    assert bounded.linked.program.digest() == flat.linked.program.digest()
