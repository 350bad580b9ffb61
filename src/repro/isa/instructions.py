"""Host instruction records.

The co-simulation does not execute real RISC-V encodings; it executes IR and
charges *instruction records* against a host cost model, which is exactly the
accounting the paper performs (instruction counts from spike traces times an
average cycles-per-instruction, Section 4.6 and footnote 4).  Each record
carries a category so metrics can separate configuration-register writes
("setup") from configuration-parameter computation ("calc") from everything
else — the split that defines effective configuration bandwidth (Eq. 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum


class InstrCategory(str, Enum):
    """What a host instruction contributes to, for the roofline accounting."""

    SETUP = "setup"  # writes configuration registers (RoCC / CSR / MMIO)
    CALC = "calc"  # computes configuration parameters (bit-packing, addresses)
    COMPUTE = "compute"  # host-side payload computation
    CONTROL = "control"  # loop/branch overhead
    LAUNCH = "launch"  # starts the accelerator
    SYNC = "sync"  # polls/waits for accelerator completion


@dataclass(frozen=True)
class Instr:
    """One host instruction: a mnemonic, a category, and the config bytes it
    transfers (non-zero only for SETUP instructions)."""

    mnemonic: str
    category: InstrCategory
    config_bytes: int = 0
    accelerator: str | None = None

    def __post_init__(self) -> None:
        if self.config_bytes and self.category not in (
            InstrCategory.SETUP,
            InstrCategory.LAUNCH,
        ):
            raise ValueError("only setup/launch instructions carry config bytes")


def alu(mnemonic: str = "alu", category: InstrCategory = InstrCategory.CALC) -> Instr:
    """A one-cycle-class scalar ALU instruction."""
    return Instr(mnemonic, category)


def load_imm(category: InstrCategory = InstrCategory.CALC) -> Instr:
    return Instr("li", category)


def config_write(mnemonic: str, accelerator: str, config_bytes: int) -> Instr:
    return Instr(mnemonic, InstrCategory.SETUP, config_bytes, accelerator)


def launch_instr(mnemonic: str, accelerator: str, config_bytes: int = 0) -> Instr:
    return Instr(mnemonic, InstrCategory.LAUNCH, config_bytes, accelerator)


def sync_instr(mnemonic: str, accelerator: str) -> Instr:
    return Instr(mnemonic, InstrCategory.SYNC, 0, accelerator)


def branch() -> Instr:
    return Instr("branch", InstrCategory.CONTROL)


_CATEGORIES = tuple(InstrCategory)

#: The record every engine charges for one loop, branch or call jump, and
#: the one it charges for an opaque foreign op.  Records compare by value,
#: so sharing one instance is indistinguishable from building fresh ones.
CTRL_INSTR = Instr("ctrl", InstrCategory.CONTROL)
FOREIGN_INSTR = Instr("foreign", InstrCategory.COMPUTE)

#: The control charges: one record for a branch or a reset, two for a loop
#: back-edge (increment + compare&branch) or a call (call + return jumps).
#: Shared tuples, so the simulator resolves each stream once.
CTRL_STREAM = (CTRL_INSTR,)
CTRL_PAIR_STREAM = (CTRL_INSTR, CTRL_INSTR)

_SCALAR_INSTRS: dict[tuple[str, InstrCategory], Instr] = {}


def scalar_instr(mnemonic: str, category: InstrCategory) -> Instr:
    """The one shared record a scalar op ``mnemonic`` charges as ``category``.

    Mnemonics are op names, so the table stays as small as the dialects.
    """
    key = (mnemonic, category)
    instr = _SCALAR_INSTRS.get(key)
    if instr is None:
        instr = _SCALAR_INSTRS[key] = Instr(mnemonic, category)
    return instr


@dataclass(frozen=True)
class HostCostModel:
    """Converts instruction records into cycles.

    The paper approximates the Rocket host with 3 cycles per instruction (the
    inverse harmonic mean of the IPC survey in [17], footnote 4); per-category
    overrides let targets model e.g. slow MMIO writes.

    A model is immutable: the co-simulator resolves each instruction stream
    against :attr:`cycles_by_category` once and replays the result.
    """

    cycles_per_instr: float = 3.0
    category_overrides: dict[InstrCategory, float] = field(default_factory=dict)
    #: cycles of one instruction of each category, overrides applied
    cycles_by_category: dict[InstrCategory, float] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        table = dict.fromkeys(_CATEGORIES, self.cycles_per_instr)
        table.update(self.category_overrides)
        for value in table.values():
            if not 0 <= value < math.inf:  # also false for NaN
                raise ValueError(
                    f"host cycles per instruction must be finite and "
                    f"non-negative, got {value!r}"
                )
        object.__setattr__(self, "cycles_by_category", table)

    def cycles(self, instr: Instr) -> float:
        return self.cycles_by_category[instr.category]
