"""Tests for the staged pipeline and its stage-granular cache."""

import json

import pytest

from repro.analysis import parse_name
from repro.driver import ResultCache
from repro.link import LinkedProgram
from repro.pipeline import Pipeline

SRC_A = "extern int *mk(void);\nint *pa;\nvoid fa(void) { pa = mk(); }\n"
SRC_B = "int slot;\nint *mk(void) { return &slot; }\n"

CONFIG = parse_name("IP+WL(FIFO)+PIP")
OTHER_CONFIG = parse_name("IP+WL(FIFO)")


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestStageCaching:
    def test_cold_then_warm(self, cache, tmp_path):
        p1 = Pipeline(cache=cache)
        art = p1.analyze_source("a.c", SRC_A, CONFIG)
        assert not art.from_cache
        assert p1.stats["parse"].runs == 1
        assert p1.stats["constraints"].misses == 1
        assert p1.stats["solve"].misses == 1

        p2 = Pipeline(cache=ResultCache(cache.root))
        art2 = p2.analyze_source("a.c", SRC_A, CONFIG)
        assert art2.from_cache
        assert art2.solution == art.solution
        # Warm run never parses or lowers.
        assert p2.stats["parse"].runs == 0
        assert p2.stats["lower"].runs == 0
        assert p2.stats["constraints"].hits == 1
        assert p2.stats["solve"].hits == 1

    def test_config_only_change_skips_parse_and_lower(self, cache):
        Pipeline(cache=cache).analyze_source("a.c", SRC_A, CONFIG)

        p2 = Pipeline(cache=ResultCache(cache.root))
        art = p2.analyze_source("a.c", SRC_A, OTHER_CONFIG)
        assert p2.stats["parse"].runs == 0
        assert p2.stats["lower"].runs == 0
        assert p2.stats["constraints"].hits == 1
        # The solve itself is new work for the new configuration...
        assert p2.stats["solve"].misses == 1
        assert not art.from_cache
        # ...but both configurations agree on the solution (solver
        # stats legitimately differ, so compare the sets themselves).
        p3 = Pipeline(cache=ResultCache(cache.root))
        again = p3.analyze_source("a.c", SRC_A, CONFIG)
        for key in ("points_to", "external"):
            assert again.solution[key] == art.solution[key]

    def test_stale_memo_stats_entry_is_a_miss(self, cache):
        """A solve entry as written before the operation memo was
        removed (schema 2, stats carrying ``memo_hits``) re-solves and
        never reaches ``SolverStats.from_dict``, which would reject it."""
        art = Pipeline(cache=cache).analyze_source("a.c", SRC_A, CONFIG)
        path = cache._stage_path("solve", art.key)
        entry = json.loads(path.read_text())
        entry["schema"] = 2
        entry["payload"]["solution"]["stats"].update(memo_hits=3, memo_misses=5)
        path.write_text(json.dumps(entry))

        p2 = Pipeline(cache=ResultCache(cache.root))
        again = p2.analyze_source("a.c", SRC_A, CONFIG)
        assert p2.stats["solve"].misses == 1
        assert p2.stats["solve"].runs == 1
        assert not again.from_cache
        assert again.solution == art.solution
        again.attach(p2.constraints(p2.source("a.c", SRC_A)).program)

    def test_one_file_edit_rebuilds_only_that_member(self, cache):
        p1 = Pipeline(cache=cache)
        p1.link_sources(
            [p1.source("a.c", SRC_A), p1.source("b.c", SRC_B)]
        )
        assert p1.stats["constraints"].misses == 2

        edited = SRC_B.replace("slot", "cell")
        p2 = Pipeline(cache=ResultCache(cache.root))
        p2.link_sources(
            [p2.source("a.c", SRC_A), p2.source("b.c", edited)]
        )
        # a.c is a constraints-stage hit: only b.c re-parses.
        assert p2.stats["constraints"].hits == 1
        assert p2.stats["constraints"].misses == 1
        assert p2.stats["parse"].runs == 1
        # The member set changed, so the link re-runs.
        assert p2.stats["link"].misses == 1

    def test_link_stage_hit(self, cache):
        p1 = Pipeline(cache=cache)
        sources = [p1.source("a.c", SRC_A), p1.source("b.c", SRC_B)]
        first = p1.link_sources(sources)
        p2 = Pipeline(cache=ResultCache(cache.root))
        sources2 = [p2.source("a.c", SRC_A), p2.source("b.c", SRC_B)]
        second = p2.link_sources(sources2)
        assert second.from_cache
        assert second.key == first.key
        assert (
            second.linked.program.to_dict() == first.linked.program.to_dict()
        )

    def test_in_memory_memo(self):
        pipeline = Pipeline()
        src = pipeline.source("a.c", SRC_A)
        pipeline.lower(src)
        pipeline.lower(src)
        assert pipeline.stats["parse"].runs == 1
        assert pipeline.stats["lower"].runs == 1
        assert pipeline.stats["lower"].memo_hits == 1

    def test_corrupted_stage_entry_self_heals(self, cache):
        p1 = Pipeline(cache=cache)
        art = p1.constraints(p1.source("a.c", SRC_A))
        path = cache._stage_path("constraints", art.key)
        path.write_text("{not json")

        fresh_cache = ResultCache(cache.root)
        p2 = Pipeline(cache=fresh_cache)
        art2 = p2.constraints(p2.source("a.c", SRC_A))
        assert not art2.from_cache
        assert fresh_cache.stats_for("constraints").corrupted == 1
        assert art2.program_digest == art.program_digest

    def test_stage_entries_never_collide_with_solve_entries(self, cache):
        pipeline = Pipeline(cache=cache)
        pipeline.analyze_source("a.c", SRC_A, CONFIG)
        root = cache.root
        assert (root / "stages" / "constraints").is_dir()
        assert (root / "stages" / "solve").is_dir()
        assert not (root / "solve").exists()  # task namespace untouched

    def test_identical_sources_keep_distinct_module_names(self, cache):
        # Two TUs with byte-identical text are still distinct modules:
        # the cached entry must not leak the first TU's name into the
        # second (linker diagnostics depend on program names).
        src = "static int local;\nint read_it(void) { return local; }\n"
        pipeline = Pipeline(cache=cache)
        a = pipeline.constraints(pipeline.source("a.c", src))
        b = pipeline.constraints(pipeline.source("b.c", src))
        assert a.program.name == "a.c"
        assert b.program.name == "b.c"
        p2 = Pipeline(cache=ResultCache(cache.root))
        b_warm = p2.constraints(p2.source("b.c", src))
        assert b_warm.from_cache
        assert b_warm.program.name == "b.c"

    def test_custom_summaries_require_distinct_tag(self):
        with pytest.raises(ValueError):
            Pipeline(summaries={})
        Pipeline(summaries={}, summaries_tag="empty")  # fine

    def test_summaries_tag_partitions_cache(self, cache):
        from repro.analysis.summaries import LIBC_SUMMARIES

        src = "extern char *getenv(const char *n);\nchar *e;\nvoid f(void) { e = getenv(\"H\"); }\n"
        p1 = Pipeline(cache=cache)
        default_art = p1.constraints(p1.source("g.c", src))
        p2 = Pipeline(
            cache=ResultCache(cache.root),
            summaries=LIBC_SUMMARIES,
            summaries_tag="libc",
        )
        libc_art = p2.constraints(p2.source("g.c", src))
        assert not libc_art.from_cache
        assert libc_art.key != default_art.key


class TestSerialization:
    def test_constraint_program_round_trip(self):
        from repro.analysis.constraints import ConstraintProgram

        pipeline = Pipeline()
        program = pipeline.constraints(pipeline.source("a.c", SRC_A)).program
        clone = ConstraintProgram.from_dict(program.to_dict())
        assert clone.digest() == program.digest()
        assert clone.to_dict() == program.to_dict()
        assert clone.linkage_ea == program.linkage_ea
        assert set(clone.symbols) == set(program.symbols)

    def test_linked_program_round_trip(self):
        pipeline = Pipeline()
        linked = pipeline.link_sources(
            [pipeline.source("a.c", SRC_A), pipeline.source("b.c", SRC_B)]
        ).linked
        clone = LinkedProgram.from_dict(linked.to_dict())
        assert clone.to_dict() == linked.to_dict()
        assert clone.summary() == linked.summary()
        assert clone.var_maps == linked.var_maps

    def test_rehydrated_program_solves_identically(self):
        from repro.analysis.constraints import ConstraintProgram

        pipeline = Pipeline()
        program = pipeline.constraints(pipeline.source("a.c", SRC_A)).program
        clone = ConstraintProgram.from_dict(program.to_dict())
        sol_orig = pipeline.solve(program, CONFIG)
        sol_clone = pipeline.solve(clone, CONFIG)
        assert sol_orig.solution == sol_clone.solution

    def test_stage_report_shape(self):
        pipeline = Pipeline()
        pipeline.analyze_source("a.c", SRC_A, CONFIG)
        report = pipeline.stage_report()
        assert set(report) == set(Pipeline.STAGES)
        assert all("seconds" in stats for stats in report.values())
        canonical = pipeline.stage_report(timings=False)
        assert all("seconds" not in stats for stats in canonical.values())
        text = json.dumps(canonical, sort_keys=True)
        assert json.loads(text) == canonical


class TestLinkSources:
    """``link_sources``: the one front door for flat and sharded links."""

    def sources(self, pipeline):
        return [pipeline.source("a.c", SRC_A), pipeline.source("b.c", SRC_B)]

    def test_sharded_root_takes_the_flat_name(self):
        pipeline = Pipeline()
        flat = pipeline.link_sources(self.sources(pipeline))
        sharded = pipeline.link_sources(
            self.sources(pipeline), shards=2, member_maps=True
        )
        assert flat.shard_stats is None and flat.member_var_maps is None
        assert [m.name for m in flat.members] == ["a.c", "b.c"]
        assert sharded.shard_stats.members == 2
        assert set(sharded.member_var_maps) == {"a.c", "b.c"}
        name = "linked(a.c+b.c)"
        assert flat.linked.program.name == sharded.linked.program.name == name
        solutions = [
            pipeline.solve(art.linked.program, CONFIG)
            .attach(art.linked.program)
            .to_named_canonical()
            for art in (flat, sharded)
        ]
        assert solutions[0] == solutions[1]

    def test_lir_members_link_flat_only(self):
        from repro.interchange import export_constraint_text
        from repro.shard import ShardError

        pipeline = Pipeline()
        text = export_constraint_text(
            pipeline.constraints(pipeline.source("a.c", SRC_A)).program
        )
        sources = [
            pipeline.source("a.lir", text), pipeline.source("b.c", SRC_B)
        ]
        flat = pipeline.link_sources(sources)
        assert pipeline.stats["import"].runs == 1
        assert flat.linked.program.to_dict() == (
            pipeline.link_sources(self.sources(pipeline))
            .linked.program.to_dict()
        )
        with pytest.raises(ShardError, match=".lir members"):
            pipeline.link_sources(sources, shards=2)
