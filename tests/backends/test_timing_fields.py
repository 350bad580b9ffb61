"""Each spec's ``timing_fields`` names every register its timing reads.

A device computes a launch's (cycles, ops, memory bytes) once per tuple of
the declared registers' values and reuses it
(:meth:`repro.sim.device.AcceleratorDevice.launch`), so a timing function
that read an undeclared register would reuse a stale triple.  Here the
three timing functions of every registered spec run on random register
files through a dict that records each key read: the reads must be
declared, and register files that agree on the declared fields must give
equal triples.
"""

import random

import pytest

from repro.backends import get_accelerator, registered_accelerators
from repro.sim import CoSimulator
from repro.sim.device import TIMING_MEMO_BOUND

#: register values: the small ones select ops, tile counts and flags
VALUES = (0, 1, 2, 3, 4, 5, 7, 8, 16, 63, 64, 100, 4096)


class RecordingDict(dict):
    """A register file that records every key a reader looks up; a reader
    that walks it reads every key present."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.read: set[str] = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __contains__(self, key) -> bool:
        self.read.add(key)
        return super().__contains__(key)

    def _read_all(self) -> None:
        self.read.update(super().keys())

    def __iter__(self):
        self._read_all()
        return super().__iter__()

    def keys(self):
        self._read_all()
        return super().keys()

    def values(self):
        self._read_all()
        return super().values()

    def items(self):
        self._read_all()
        return super().items()


def _timing(spec, registers: dict) -> tuple:
    return (
        spec.compute_cycles(registers),
        spec.launch_ops(registers),
        spec.launch_memory_bytes(registers),
    )


def _register_file(rng: random.Random, names) -> dict:
    """Some of ``names`` (each present with probability 0.7), each with a
    value from :data:`VALUES`."""
    return {name: rng.choice(VALUES) for name in names if rng.random() < 0.7}


@pytest.mark.parametrize("name", registered_accelerators())
def test_timing_reads_only_declared_fields(name):
    spec = get_accelerator(name)
    declared = set(spec.timing_fields)
    assert declared <= set(spec.fields)
    rng = random.Random(name)
    for _ in range(400):
        registers = RecordingDict(_register_file(rng, spec.fields))
        _timing(spec, registers)
        assert registers.read <= declared, sorted(registers.read - declared)


@pytest.mark.parametrize("name", registered_accelerators())
def test_register_files_agreeing_on_the_declared_fields_time_alike(name):
    spec = get_accelerator(name)
    declared = spec.timing_fields
    others = [field for field in spec.fields if field not in declared]
    rng = random.Random(f"{name}:pairs")
    for _ in range(400):
        first = _register_file(rng, spec.fields)
        second = {field: first[field] for field in declared if field in first}
        second.update(_register_file(rng, others))
        assert _timing(spec, first) == _timing(spec, second)


class TestDeviceTimingMemo:
    """The device's memo gives the spec functions' own triple on every
    launch, and stays within its bound."""

    def test_each_launch_times_as_its_registers_do(self):
        sim = CoSimulator(functional=False)
        spec = get_accelerator("gemmini")
        device = sim.device("gemmini")
        rng = random.Random(3)
        cycles = ops = memory_bytes = 0
        for _ in range(300):
            fields = _register_file(rng, spec.timing_fields + ("A", "stride_A"))
            sim.exec_setup("gemmini", fields)
            config = dict(device.registers)
            token = sim.exec_launch("gemmini")
            sim.exec_await(token)
            expected = _timing(spec, config)
            assert token.end - token.start == expected[0]
            assert token.ops == expected[1]
            cycles += expected[0]
            ops += expected[1]
            memory_bytes += expected[2]
        assert device.busy_cycles == cycles
        assert device.total_ops == ops
        assert device.total_memory_bytes == memory_bytes

    def test_the_memo_never_exceeds_its_bound(self):
        sim = CoSimulator(functional=False)
        spec = get_accelerator("toyvec")
        device = sim.device("toyvec")
        for n in range(TIMING_MEMO_BOUND + 100):
            token = sim.exec_launch("toyvec", {"n": n})
            assert token.end - token.start == spec.compute_cycles({"n": n})
            assert len(device._timing) <= TIMING_MEMO_BOUND
            sim.exec_await(token)
        assert device.total_memory_bytes == sum(
            spec.launch_memory_bytes({"n": n}) for n in range(TIMING_MEMO_BOUND + 100)
        )
