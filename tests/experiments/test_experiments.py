"""Integration tests over the experiment harnesses (small sizes)."""

import pytest

from repro.core import Boundness
from repro.experiments import (
    example_4_6,
    fig10_gemmini,
    fig11_opengemm,
    fig12_roofline,
    figure4_rooflines,
    table1_fields,
)


class TestTable1:
    def test_matches_paper(self):
        result = table1_fields.run()
        assert len(result.fields) == 17
        assert result.total_bits == 616
        widths = {f.name: f.bits for f in result.fields}
        assert widths == {
            "A": 64, "B": 64, "D": 64, "C": 64,
            "I": 16, "J": 16, "K": 16,
            "pad_I": 16, "pad_J": 16, "pad_K": 16,
            "stride_A": 64, "stride_B": 64, "stride_D": 64, "stride_C": 64,
            "act": 6, "A_transpose": 1, "B_transpose": 1,
        }

    def test_grouped_rows_cover_every_field(self):
        assert sum(
            row[0].count(",") + 1 for row in table1_fields.TABLE1_ROWS
        ) == 17


class TestExample46:
    def test_reproduces_paper_numbers(self):
        result = example_4_6.run()
        assert result.config_bandwidth == pytest.approx(1.78, abs=0.01)
        assert result.i_oc == pytest.approx(205.19, abs=0.01)
        assert result.utilization_theoretical == pytest.approx(0.4149, abs=0.005)
        assert result.effective_bandwidth == pytest.approx(0.913, abs=0.001)
        assert result.utilization_effective == pytest.approx(0.2678, abs=0.001)


class TestFigure4:
    def test_sequential_strictly_below_concurrent(self):
        result = figure4_rooflines.run()
        for _, sequential, concurrent in result.samples:
            assert sequential < concurrent

    def test_gap_maximal_near_knee(self):
        result = figure4_rooflines.run(points=201)
        assert result.max_gap_location() == pytest.approx(result.knee, rel=0.05)

    def test_roofsurface_monotone(self):
        surface = figure4_rooflines.run_roofsurface()
        for row in surface.surface:
            assert all(b >= a for a, b in zip(row, row[1:]))

    def test_concurrent_roof_never_above_peak(self):
        result = figure4_rooflines.run(points=201)
        for _, sequential, concurrent in result.samples:
            assert sequential < concurrent <= result.roofline.peak_performance

    def test_roofsurface_reaches_peak_and_rises_along_both_axes(self):
        surface = figure4_rooflines.run_roofsurface(points=17)
        flat = [v for row in surface.surface for v in row]
        assert max(flat) == surface.roofline.peak_performance
        for row in surface.surface:
            assert all(b >= a for a, b in zip(row, row[1:]))
        for column in zip(*surface.surface):
            assert all(b >= a for a, b in zip(column, column[1:]))


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_gemmini.run(sizes=(16, 32, 64))

    def test_paper_claim_no_gain_at_single_tile(self, result):
        assert result.rows[0].uplift == pytest.approx(1.0, abs=0.02)

    def test_paper_claim_accfg_never_slower(self, result):
        for row in result.rows:
            assert row.uplift >= 0.99

    def test_paper_claim_positive_geomean(self, result):
        # Paper: ~11% geomean; we accept the 0-50% band (shape, not number).
        assert 1.0 <= result.geomean_uplift <= 1.5

    def test_utilization_rises_with_size(self, result):
        utils = [row.baseline_utilization for row in result.rows]
        assert utils == sorted(utils)

    def test_utilization_in_band(self, result):
        # Paper reports 26.78% attainable at size 64 for the baseline.
        size64 = next(r for r in result.rows if r.size == 64)
        assert 0.08 <= size64.baseline_utilization <= 0.45

    @pytest.fixture(scope="class")
    def through_128(self):
        # Timing only, through size 128, where the paper's largest gain sits.
        return fig10_gemmini.run(sizes=(16, 32, 64, 128), functional=False)

    def test_paper_claim_uplift_through_128(self, through_128):
        assert through_128.rows[0].uplift <= 1.05
        assert through_128.geomean_uplift >= 1.05
        assert through_128.max_uplift == max(r.uplift for r in through_128.rows)

    def test_utilization_rises_through_128(self, through_128):
        utils = [row.baseline_utilization for row in through_128.rows]
        assert utils == sorted(utils)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return fig11_opengemm.run(sizes=(16, 32, 64))

    def test_paper_claim_dedup_helps(self, result):
        for row in result.rows:
            assert row.speedup("dedup") > 1.1

    def test_paper_claim_overlap_helps(self, result):
        for row in result.rows:
            assert row.speedup("overlap") > 1.0

    def test_paper_claim_both_best(self, result):
        for row in result.rows:
            assert row.speedup("full") >= row.speedup("dedup") * 0.99
            assert row.speedup("full") >= row.speedup("overlap") * 0.99

    def test_paper_claim_geomean_band(self, result):
        # Paper: 1.99x geomean (full sweep); small-size subset stays in band.
        assert 1.5 <= result.geomean_speedup() <= 3.0

    def test_performance_monotone_in_size(self, result):
        perfs = [row.performance("full") for row in result.rows]
        assert perfs == sorted(perfs)

    @pytest.fixture(scope="class")
    def through_256(self):
        # Timing only, over the figure's sizes 16-256.
        return fig11_opengemm.run(sizes=(16, 32, 64, 128, 256), functional=False)

    def test_paper_claim_geomean_and_max_through_256(self, through_256):
        # Paper: 1.99x geomean, up to 2.71x.
        assert 1.5 <= through_256.geomean_speedup("full") <= 2.6
        assert through_256.max_speedup("full") <= 3.2

    def test_paper_claim_both_best_through_256(self, through_256):
        for row in through_256.rows:
            assert row.speedup("full") >= max(
                row.speedup("dedup"), row.speedup("overlap")
            ) * 0.99

    def test_paper_claim_dedup_overlap_crossover(self, through_256):
        # Dedup's advantage fades at large (compute-bound) sizes while
        # overlap's contribution grows.
        small, large = through_256.rows[0], through_256.rows[-1]
        assert large.speedup("dedup") <= small.speedup("dedup") * 1.2
        assert large.speedup("overlap") >= small.speedup("overlap")


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return fig12_roofline.run(sizes=(32, 64))

    def test_dedup_moves_right_and_up(self, result):
        for size in (32, 64):
            base = result.point(size, "baseline")
            dedup = result.point(size, "dedup")
            assert dedup.i_oc > base.i_oc * 2
            assert dedup.performance > base.performance

    def test_overlap_moves_up_not_right(self, result):
        for size in (32, 64):
            base = result.point(size, "baseline")
            overlap = result.point(size, "overlap")
            assert overlap.performance > base.performance
            # I_OC roughly unchanged (one extra pipelined setup per loop).
            assert overlap.i_oc == pytest.approx(base.i_oc, rel=0.15)

    def test_paper_claim_dedup_exits_config_bound_region(self, result):
        assert result.boundness(64, "baseline") is Boundness.CONFIG_BOUND
        assert result.boundness(64, "dedup") is Boundness.COMPUTE_BOUND

    def test_points_below_concurrent_roofline(self, result):
        roofline = result.roofline
        for point in result.points:
            assert point.performance <= roofline.attainable_concurrent(point.i_oc) * 1.05

    @pytest.fixture(scope="class")
    def headline(self):
        # Timing only, at the figure's own sizes.
        return fig12_roofline.run(sizes=(32, 128), functional=False)

    def test_arrows_at_the_figure_sizes(self, headline):
        roofline = headline.roofline
        for size in (32, 128):
            base, dedup, overlap, full = (
                headline.point(size, variant)
                for variant in ("baseline", "dedup", "overlap", "full")
            )
            # Arrow 1: dedup up and right.
            assert dedup.i_oc > base.i_oc
            assert dedup.performance > base.performance
            # Arrow 2: overlap straight up, bounded by the concurrent roof.
            assert overlap.performance > base.performance
            assert overlap.performance <= (
                roofline.attainable_concurrent(overlap.i_oc) * 1.05
            )
            # Arrow 3: both yields the best performance.
            assert full.performance >= max(
                dedup.performance, overlap.performance
            ) * 0.99

    def test_paper_claim_size_128_exits_config_bound_region(self, headline):
        assert headline.boundness(128, "baseline") is Boundness.CONFIG_BOUND
        assert headline.boundness(128, "dedup") is Boundness.COMPUTE_BOUND
