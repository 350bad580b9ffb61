"""Host-instruction charging: the simulator's plan replay against the
per-record definition, the value semantics of spans and launch tokens, and
the host cost model's validation."""

import dataclasses
import math

import pytest

from repro.backends import get_accelerator
from repro.engine import run_module_traced
from repro.experiments import fig10_gemmini
from repro.interp import run_module
from repro.isa import HostCostModel, InstrCategory
from repro.passes import pipeline_by_name
from repro.sim import CoSimulator, LaunchToken, Span, SpanKind
from repro.workloads import build_gemmini_matmul

BACKENDS = ["gemmini", "opengemm", "toyvec", "toyvec-seq", "toyvec-queued"]

COST_MODELS = [
    HostCostModel(3.0),
    HostCostModel(1.0, {InstrCategory.SETUP: 0}),
    HostCostModel(1, {InstrCategory.SETUP: 0.1, InstrCategory.CALC: 1.7}),
]

#: the span each category's host work is drawn as
SPAN_KIND = {
    InstrCategory.SETUP: SpanKind.SETUP,
    InstrCategory.LAUNCH: SpanKind.SETUP,
    InstrCategory.CALC: SpanKind.CALC,
    InstrCategory.COMPUTE: SpanKind.COMPUTE,
    InstrCategory.CONTROL: SpanKind.COMPUTE,
    InstrCategory.SYNC: SpanKind.STALL,
}


def _streams(spec):
    """Every stream kind the simulator charges for ``spec``, as
    (name, stream) pairs."""
    names = tuple(spec.fields)
    return [
        ("setup-all", spec.setup_instrs_cached(names)),
        ("setup-one", spec.setup_instrs_cached(names[:1])),
        ("setup-none", spec.setup_instrs_cached(())),
        ("launch-fields-all", spec.launch_field_instrs_cached(names)),
        ("launch-fields-one", spec.launch_field_instrs_cached(names[-1:])),
        ("launch", spec.launch_instrs_cached()),
        ("sync", spec.sync_instrs_cached()),
    ]


def _charge_by_definition(model, instrs, label, time, spans, records):
    """The per-record definition: a span iff cycles > 0, then time +=
    cycles.  Returns the new time."""
    for instr in instrs:
        cycles = model.category_overrides.get(
            instr.category, model.cycles_per_instr
        )
        if cycles > 0:
            spans.append(
                Span("host", SPAN_KIND[instr.category], time, time + cycles, label)
            )
        records.append(instr)
        time += cycles
    return time


@pytest.mark.parametrize("model", range(len(COST_MODELS)))
@pytest.mark.parametrize("backend", BACKENDS)
def test_stream_charge_matches_per_record_definition(backend, model):
    cost_model = COST_MODELS[model]
    spec = get_accelerator(backend)
    sim = CoSimulator(cost_model=cost_model)
    # A non-integral start, so a change in the order of the additions
    # would show in the last bits.
    sim.stall_until(0.3)
    spans = list(sim.timeline.spans)
    records: list = []
    time = sim.host_time
    # Each stream twice, so the second charge replays the first's plan,
    # and once more as a list, which is resolved afresh.
    for name, stream in _streams(spec) * 2:
        assert type(stream) is tuple
        sim.charge(stream, name)
        time = _charge_by_definition(cost_model, stream, name, time, spans, records)
    for name, stream in _streams(spec):
        sim.charge(list(stream), name)
        time = _charge_by_definition(cost_model, stream, name, time, spans, records)
    assert sim.timeline.spans == spans
    assert all(type(span) is Span for span in sim.timeline.spans)
    assert sim.trace.instrs == records
    assert (type(sim.host_time), repr(sim.host_time)) == (type(time), repr(time))


def test_streams_are_shared():
    spec = get_accelerator("opengemm")
    fields = ["M", "K"]
    assert spec.setup_instrs_cached(fields) is spec.setup_instrs_cached(("M", "K"))
    assert spec.launch_instrs_cached() is spec.launch_instrs_cached()
    assert spec.sync_instrs_cached() is spec.sync_instrs_cached()
    assert spec.setup_instrs_cached(fields) == tuple(spec.setup_instrs(fields))


class TestValueSemantics:
    def test_span_fields_defaults_and_repr(self):
        span = Span("host", SpanKind.SETUP, 1.0, 4.0)
        assert Span._fields == ("actor", "kind", "start", "end", "label")
        assert span.label == ""
        assert span.duration == 3.0
        assert repr(span) == (
            "Span(actor='host', kind=<SpanKind.SETUP: 'setup'>, "
            "start=1.0, end=4.0, label='')"
        )

    def test_span_equality_and_hash(self):
        a = Span("host", SpanKind.STALL, 0.0, 2.5, "await x")
        b = tuple.__new__(Span, ("host", SpanKind.STALL, 0.0, 2.5, "await x"))
        assert a == b and hash(a) == hash(b)
        assert a != Span("host", SpanKind.STALL, 0.0, 2.5, "await y")

    def test_span_is_immutable(self):
        span = Span("host", SpanKind.SETUP, 0.0, 1.0)
        with pytest.raises(AttributeError):
            span.end = 2.0

    def test_launch_token_fields_and_repr(self):
        token = LaunchToken("dev", 3, 1.0, 9.0, 64)
        assert LaunchToken._fields == ("device", "index", "start", "end", "ops")
        assert repr(token) == (
            "LaunchToken(device='dev', index=3, start=1.0, end=9.0, ops=64)"
        )

    def test_launch_token_equality_hash_and_immutability(self):
        sim = CoSimulator()
        device = sim.device("toyvec")
        token = LaunchToken(device, 1, 0.0, 5.0, 8)
        same = LaunchToken(device, 1, 0.0, 5.0, 8)
        assert token == same and hash(token) == hash(same)
        assert token != LaunchToken(device, 2, 0.0, 5.0, 8)
        assert token in {same}
        with pytest.raises(AttributeError):
            token.end = 6.0


def test_traced_and_tree_runs_record_equal_span_objects():
    """The trace-vs-tree oracle compares span lists with ``==``, which a bare
    tuple would pass; both engines must record real spans."""
    pipeline = fig10_gemmini.OPTIMIZED_PIPELINE
    timelines = []
    for run in (run_module_traced, run_module):
        workload = build_gemmini_matmul(32)
        pipeline_by_name(pipeline).run(workload.module)
        sim = CoSimulator(
            memory=workload.memory,
            cost_model=get_accelerator(workload.accelerator).host_cost_model(),
        )
        run(workload.module, sim, args=workload.main_args)
        assert workload.check()
        timelines.append(sim.timeline.spans)
    traced, tree = timelines
    assert traced and traced == tree
    for spans in timelines:
        assert all(type(span) is Span for span in spans)


class TestHostCostModel:
    @pytest.mark.parametrize("value", [-3.0, -1, math.nan, math.inf, -math.inf])
    def test_rejects_invalid_cycles_per_instr(self, value):
        with pytest.raises(ValueError, match="finite and non-negative"):
            HostCostModel(value)

    @pytest.mark.parametrize("value", [-0.5, math.nan, math.inf])
    def test_rejects_invalid_override(self, value):
        with pytest.raises(ValueError, match="finite and non-negative"):
            HostCostModel(1.0, {InstrCategory.SETUP: value})

    def test_zero_is_valid(self):
        model = HostCostModel(0, {InstrCategory.SYNC: 0.0})
        assert set(model.cycles_by_category.values()) == {0}

    def test_is_frozen(self):
        model = HostCostModel(3.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.cycles_per_instr = 1.0

    def test_cycles_by_category_applies_overrides(self):
        model = HostCostModel(1, {InstrCategory.SETUP: 0.1, InstrCategory.CALC: 1.7})
        assert model.cycles_by_category == {
            InstrCategory.SETUP: 0.1,
            InstrCategory.CALC: 1.7,
            InstrCategory.COMPUTE: 1,
            InstrCategory.CONTROL: 1,
            InstrCategory.LAUNCH: 1,
            InstrCategory.SYNC: 1,
        }
        assert model == HostCostModel(
            1, {InstrCategory.SETUP: 0.1, InstrCategory.CALC: 1.7}
        )
        assert "cycles_by_category" not in repr(model)


def test_one_off_streams_may_be_any_iterable():
    sim = CoSimulator(cost_model=HostCostModel(2.0))
    records = get_accelerator("toyvec").setup_instrs(["n", "op"])
    sim.charge(record for record in records)
    assert sim.trace.instrs == records
    assert sim.host_time == 4.0
    assert len(sim.timeline.spans) == 2
