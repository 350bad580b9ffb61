"""Tests for seed-range sharding and the parallel fuzz/experiment drivers."""

from repro.testing import fuzz, fuzz_sharded, parallel_map, shard_ranges
from repro.testing.parallel import _run_shard


def _square(value: int) -> int:
    return value * value


class TestShardRanges:
    def test_partitions_the_whole_range(self):
        for total in (0, 1, 7, 16, 100):
            for jobs in (1, 2, 3, 8):
                shards = shard_ranges(total, jobs)
                assert sum(count for _, count in shards) == total
                # Contiguous and in order: shard i starts where i-1 ended.
                cursor = 0
                for start, count in shards:
                    assert start == cursor
                    assert count > 0
                    cursor += count

    def test_even_split(self):
        assert shard_ranges(10, 2) == [(0, 5), (5, 5)]
        # The remainder spreads over the leading shards, one each.
        assert shard_ranges(10, 3) == [(0, 4), (4, 3), (7, 3)]

    def test_more_jobs_than_work(self):
        assert shard_ranges(2, 8) == [(0, 1), (1, 1)]
        assert shard_ranges(0, 4) == []


class TestParallelMap:
    def test_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_square, items, jobs=4) == [i * i for i in items]

    def test_single_job_runs_in_process(self):
        assert parallel_map(_square, [3], jobs=1) == [9]
        assert parallel_map(_square, [], jobs=4) == []


class TestShardedFuzz:
    def test_matches_sequential_run(self):
        sequential = fuzz(
            seed=0, iterations=9, backends=("toyvec",), corpus_dir=None
        )
        sharded = fuzz_sharded(
            jobs=3, seed=0, iterations=9, backends=("toyvec",), corpus_dir=None
        )
        assert sharded.programs_run == sequential.programs_run == 9
        assert sharded.ok == sequential.ok
        assert [
            (f.iteration, f.backend, f.failure.pipeline)
            for f in sharded.failures
        ] == [
            (f.iteration, f.backend, f.failure.pipeline)
            for f in sequential.failures
        ]

    def test_single_job_path(self):
        report = fuzz_sharded(
            jobs=1, seed=0, iterations=3, backends=("toyvec",), corpus_dir=None
        )
        assert report.jobs == 1
        assert report.programs_run == 3

    def test_reports_job_count(self):
        report = fuzz_sharded(
            jobs=2, seed=0, iterations=4, backends=("toyvec",), corpus_dir=None
        )
        assert report.jobs == 2
        assert "2 job(s)" in report.summary()

    def test_cross_checking_engine_shards_match_sequential(self):
        # `fuzz --jobs N --engine both` together: the trace-vs-tree
        # cross-check on every pipeline must survive sharding with an
        # identical merged report (same programs, same verdicts, same
        # failure list).
        sequential = fuzz(
            seed=0,
            iterations=8,
            backends=("toyvec",),
            corpus_dir=None,
            engine="both",
        )
        sharded = fuzz_sharded(
            jobs=2,
            seed=0,
            iterations=8,
            backends=("toyvec",),
            corpus_dir=None,
            engine="both",
        )
        assert sharded.jobs == 2
        assert sharded.programs_run == sequential.programs_run == 8
        assert sharded.ok == sequential.ok
        assert [
            (f.iteration, f.backend, f.failure.pipeline)
            for f in sharded.failures
        ] == [
            (f.iteration, f.backend, f.failure.pipeline)
            for f in sequential.failures
        ]

    def test_shards_generate_the_sequential_programs(self):
        # The generator must key programs on the *absolute* iteration index,
        # or shard boundaries would change what gets tested.
        whole = fuzz(
            seed=0, iterations=4, backends=("toyvec",), corpus_dir=None
        )
        tail = _run_shard(
            dict(
                seed=0,
                iterations=2,
                start_iteration=2,
                backends=("toyvec",),
                pipeline_names=None,
                corpus_dir=None,
            )
        )
        assert whole.programs_run == 4
        assert tail.programs_run == 2
        assert tail.ok == whole.ok


class TestShardedExperiments:
    def test_fig10_rows_match_sequential(self):
        from repro.experiments import fig10_gemmini

        sequential = fig10_gemmini.run(sizes=(16, 32), jobs=1)
        parallel = fig10_gemmini.run(sizes=(16, 32), jobs=2)
        assert [row.size for row in parallel.rows] == [16, 32]
        for seq_row, par_row in zip(sequential.rows, parallel.rows):
            assert seq_row.uplift == par_row.uplift
            assert seq_row.baseline.cycles == par_row.baseline.cycles
