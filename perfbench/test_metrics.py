"""Unit tests of the benchmark's own helpers.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import os
import statistics

import pytest

from common import END_TO_END_UNITS, PER_LAYER_UNITS, ROOT
from metrics import Tally, median, percentile


def test_percentile_matches_linear_interpolation():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 25) == 2.0
    # rank (5 - 1) * 0.99 = 3.96: between the 4th and 5th smallest
    assert percentile(values, 99) == pytest.approx(4.96)


def test_percentile_interpolates_between_ranks():
    assert percentile([10.0, 20.0], 50) == 15.0
    assert percentile([10.0, 20.0], 90) == pytest.approx(19.0)


def test_median_agrees_with_statistics_module():
    for values in ([3.0], [1.0, 2.0], [7.0, 1.0, 3.0, 9.0], list(range(11))):
        assert median(values) == statistics.median(values)


def test_percentile_of_single_value_is_that_value():
    assert percentile([42.0], 1) == 42.0
    assert percentile([42.0], 99) == 42.0


def test_percentile_rejects_empty_sample_and_bad_rank():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_tally_counts_failures_against_attempts():
    tally = Tally(keep=2)
    tally.record(True)
    tally.record(False, "first")
    tally.record(False, "second")
    tally.record(False, "third")
    assert (tally.attempted, tally.failed) == (4, 3)
    assert tally.messages == ["first", "second"]
    assert not tally.correct


def test_tally_is_correct_only_with_attempts_and_no_failures():
    tally = Tally()
    assert not tally.correct  # nothing attempted proves nothing
    tally.record(True)
    assert tally.correct
    tally.record(False)
    assert tally.messages == ["failed"]
    assert not tally.correct


def test_benchmark_json_lists_exactly_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    for section, units in (
        ("end_to_end", END_TO_END_UNITS),
        ("per_layer", PER_LAYER_UNITS),
    ):
        listed = {m["name"]: m["unit"] for m in declared[section]}
        assert listed == units, section
