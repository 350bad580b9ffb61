"""Tests for the reconfigurability trade-off experiment (Figure 1's claim)."""

import pytest

from repro.experiments import outlook_tradeoff


@pytest.fixture(scope="module")
def result():
    return outlook_tradeoff.run(knob_counts=(0, 8, 24))


class TestTradeoffCurve:
    def test_baseline_utilization_decays_with_knobs(self, result):
        utils = [row.baseline_utilization for row in result.rows]
        assert utils == sorted(utils, reverse=True)
        assert utils[-1] < utils[0]  # strictly worse with more knobs

    def test_optimized_flow_decays_much_less(self, result):
        assert result.optimized_decay > result.baseline_decay

    def test_optimized_flow_decays_less_up_to_32_knobs(self):
        wide = outlook_tradeoff.run(knob_counts=(0, 4, 16, 32))
        assert wide.optimized_decay > wide.baseline_decay

    def test_compiler_recovery_grows_with_flexibility(self, result):
        """The more knobs, the more the optimizer has to win back."""
        recoveries = [row.recovered for row in result.rows]
        assert recoveries == sorted(recoveries)

    def test_optimized_always_at_least_baseline(self, result):
        for row in result.rows:
            assert row.optimized_utilization >= row.baseline_utilization

    def test_zero_knob_point_matches_plain_toyvec_shape(self, result):
        base = result.rows[0]
        assert 0 < base.baseline_utilization < base.optimized_utilization <= 1
