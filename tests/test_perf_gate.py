"""The CI timing gate, ``tools/perf_gate.py`` (pure logic, no workload runs)."""

import importlib.util
import io
import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "perf_gate", os.path.join(REPO, "tools", "perf_gate.py")
)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

BOUNDS = perf_gate.load_bounds()


def result(throughput=40.0, p50=10.0, correct=True, failed=0) -> dict:
    """A perfbench result line, as ``run.py`` prints it."""
    return {
        "correct": correct,
        "attempted": 100,
        "failed": failed,
        "metrics": {
            "throughput_per_s": {"value": throughput, "unit": "1/s"},
            "latency_p50_ms": {"value": p50, "unit": "ms"},
        },
    }


def baseline(**metrics) -> dict:
    metrics = metrics or {"throughput_per_s": 40.0}
    return {"workloads": {"fuzz_oracles": {"metrics": metrics}}}


def check(run: dict, committed: dict) -> list[str]:
    return perf_gate.check(run, "fuzz_oracles", committed, BOUNDS)


class TestCheck:
    def test_equal_numbers_pass(self):
        assert check(result(), baseline()) == []

    def test_loss_within_the_bound_passes(self):
        # BENCHMARK.json bounds throughput at 25%.
        assert check(result(throughput=31.0), baseline()) == []

    def test_large_regression_fails(self):
        problems = check(result(throughput=20.0), baseline())
        assert len(problems) == 1 and "throughput_per_s" in problems[0]

    def test_lower_is_better_metric_fails_when_it_rises(self):
        committed = baseline(latency_p50_ms=10.0)
        assert check(result(p50=12.0), committed) == []
        problems = check(result(p50=13.0), committed)
        assert len(problems) == 1 and "latency_p50_ms" in problems[0]

    def test_missing_baseline_workload_is_a_problem(self):
        problems = check(result(), {"workloads": {}})
        assert problems == ["the baseline has no fuzz_oracles workload"]

    def test_failed_operations_fail(self):
        problems = check(result(failed=3), baseline())
        assert problems == ["3 operation(s) failed"]

    def test_incorrect_result_fails(self):
        problems = check(result(correct=False), baseline())
        assert problems == ["the run reports incorrect results"]

    def test_metric_missing_from_the_run_fails(self):
        problems = check(result(), baseline(latency_p98_ms=30.0))
        assert problems == ["the run reports no latency_p98_ms"]


class TestCommittedBaseline:
    def test_every_metric_has_a_benchmark_bound(self):
        with open(perf_gate.BASELINE) as handle:
            committed = json.load(handle)
        for workload, entry in committed["workloads"].items():
            assert {"commit", "seed", "seconds", "metrics"} <= set(entry)
            assert set(entry["metrics"]) <= set(BOUNDS), workload


class TestMain:
    @pytest.mark.parametrize("throughput, status", [(40.0, 0), (31.0, 0), (29.0, 1)])
    def test_reads_the_last_line(
        self, tmp_path, monkeypatch, capsys, throughput, status
    ):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(baseline()))
        monkeypatch.setattr(perf_gate, "BASELINE", str(path))
        lines = "raw: {...}\n" + json.dumps(result(throughput=throughput)) + "\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(lines))
        assert perf_gate.main(["fuzz_oracles"]) == status
        assert capsys.readouterr().out.startswith("perf-gate: ok") == (status == 0)

    def test_unreadable_input_exits_2(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("Traceback ...\n"))
        assert perf_gate.main(["fuzz_oracles"]) == 2
