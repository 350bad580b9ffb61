"""The accfg dialect (paper, Section 5.1).

Encapsulates the configure / launch / await programming model of
host-controlled accelerators:

* ``accfg.setup`` writes configuration registers and produces an SSA value of
  type ``!accfg.state<"accel">`` representing the accelerator's register file
  contents after the writes.  It optionally consumes the previous state, which
  lets passes compute a *setup delta* between consecutive configurations.
* ``accfg.launch`` reads a state, starts the accelerator (optionally carrying
  launch-semantic fields that are written last), and yields a
  ``!accfg.token<"accel">``.
* ``accfg.await`` blocks until the computation behind a token completes.
* ``accfg.reset`` marks a state as destroyed (e.g. accelerator power-down).

The dialect also defines the ``#accfg.effects<all|none>`` escape hatches: an
annotation on foreign ops declaring whether they clobber accelerator state.
:func:`host_effect` describes what a host-side op does when executed, and
:func:`config_feeding_ops` which scalar ops compute configuration
parameters, for the execution engines and the cost engine alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

from ..ir.attributes import (
    ArrayAttr,
    Attribute,
    StringAttr,
    TypeAttribute,
)
from ..ir.operation import Operation, UnregisteredOp, VerifyError
from ..ir.printer import Printer, quote_string
from ..ir.registry import (
    register_attr_parser,
    register_custom_parser,
    register_op,
    register_type_parser,
)
from ..ir.ssa import SSAValue
from ..isa.instructions import FOREIGN_INSTR, Instr

EFFECTS_ATTR_NAME = "accfg.effects"


@dataclass(frozen=True)
class StateType(TypeAttribute):
    """The configuration-register state of one accelerator."""

    accelerator: str

    def __str__(self) -> str:
        return f"!accfg.state<{quote_string(self.accelerator)}>"


@dataclass(frozen=True)
class TokenType(TypeAttribute):
    """A handle for one in-flight accelerator launch."""

    accelerator: str

    def __str__(self) -> str:
        return f"!accfg.token<{quote_string(self.accelerator)}>"


@dataclass(frozen=True)
class EffectsAttr(Attribute):
    """``#accfg.effects<all>`` (clobbers state) or ``<none>`` (preserves)."""

    effects: str  # "all" | "none"

    def __post_init__(self) -> None:
        if self.effects not in ("all", "none"):
            raise ValueError(f"effects must be 'all' or 'none', got {self.effects!r}")

    def __str__(self) -> str:
        return f"#accfg.effects<{self.effects}>"


# Interned singletons for the dialect's hot constructors.  Accelerator and
# field names recur constantly while building and rewriting (every setup /
# launch re-wraps the same handful of strings), and StringAttr / StateType /
# TokenType are frozen dataclasses whose construction is comparatively
# expensive.  All attributes are immutable, so sharing is safe; the caches
# are capped so adversarial name streams cannot grow them without bound.
_INTERN_CAP = 4096
_INTERNED_STRINGS: dict[str, StringAttr] = {}
_INTERNED_PARAM_NAMES: dict[tuple[str, ...], ArrayAttr] = {}
_INTERNED_STATE_TYPES: dict[str, StateType] = {}
_INTERNED_TOKEN_TYPES: dict[str, TokenType] = {}


def _str_attr(value: str) -> StringAttr:
    attr = _INTERNED_STRINGS.get(value)
    if attr is None:
        attr = StringAttr(value)
        if len(_INTERNED_STRINGS) < _INTERN_CAP:
            _INTERNED_STRINGS[value] = attr
    return attr


def _param_names_attr(names: tuple[str, ...]) -> ArrayAttr:
    attr = _INTERNED_PARAM_NAMES.get(names)
    if attr is None:
        attr = ArrayAttr(tuple(_str_attr(name) for name in names))
        if len(_INTERNED_PARAM_NAMES) < _INTERN_CAP:
            _INTERNED_PARAM_NAMES[names] = attr
    return attr


def state_type(accelerator: str) -> StateType:
    """The (interned) ``!accfg.state`` type for ``accelerator``."""
    cached = _INTERNED_STATE_TYPES.get(accelerator)
    if cached is None:
        cached = StateType(accelerator)
        if len(_INTERNED_STATE_TYPES) < _INTERN_CAP:
            _INTERNED_STATE_TYPES[accelerator] = cached
    return cached


def token_type(accelerator: str) -> TokenType:
    """The (interned) ``!accfg.token`` type for ``accelerator``."""
    cached = _INTERNED_TOKEN_TYPES.get(accelerator)
    if cached is None:
        cached = TokenType(accelerator)
        if len(_INTERNED_TOKEN_TYPES) < _INTERN_CAP:
            _INTERNED_TOKEN_TYPES[accelerator] = cached
    return cached


def set_effects(op: Operation, effects: str) -> None:
    """Annotate a foreign op with its accelerator-state effects."""
    op.attributes[EFFECTS_ATTR_NAME] = EffectsAttr(effects)


def get_effects(op: Operation) -> str | None:
    """The declared accelerator-state effects of ``op``, if annotated."""
    attr = op.attributes.get(EFFECTS_ATTR_NAME)
    if isinstance(attr, EffectsAttr):
        return attr.effects
    if isinstance(attr, StringAttr) and attr.value in ("all", "none"):
        return attr.value
    return None


class HostEffect(NamedTuple):
    """What executing a host-side op does.

    ``stream`` is the host instructions it charges.  On functional runs,
    ``move(memory, *operand_values, *args)`` then moves data.  ``move`` is
    a module-level function and ``args`` plain constants, so an effect
    holds no IR and a compiled trace that carries it pickles.
    """

    stream: tuple[Instr, ...]
    move: Callable[..., None] | None = None
    args: tuple = ()


#: an opaque foreign op: one host instruction, no data movement
_FOREIGN_EFFECT = HostEffect((FOREIGN_INSTR,))


def host_effect(op: Operation) -> HostEffect | None:
    """The effect of an op outside the core dialects, or None when it has
    no semantics.

    An op class declares its own by defining ``host_effect(self)``.  A
    foreign op annotated ``#accfg.effects`` (e.g. ``printf``) is opaque
    host work, as long as it produces no values the program needs.  Every
    engine and the cost engine read this one description.
    """
    declared = getattr(op, "host_effect", None)
    if declared is not None:
        return declared()
    if (
        isinstance(op, UnregisteredOp)
        and not op.results
        and get_effects(op) is not None
    ):
        return _FOREIGN_EFFECT
    return None


@register_attr_parser("accfg")
def _parse_accfg_attr(parser) -> EffectsAttr:
    name = parser.expect_kind("HASHID")[1]
    if name != "#accfg.effects":
        raise parser.error(f"unknown accfg attribute '{name}'")
    parser.expect("<")
    effects = parser.expect_kind("ID")[1]
    parser.expect(">")
    return EffectsAttr(effects)


@register_type_parser("accfg")
def _parse_accfg_type(parser) -> TypeAttribute:
    kind = parser.expect_kind("BANGID")[1][len("!accfg.") :]
    parser.expect("<")
    accelerator = parser.parse_string()
    parser.expect(">")
    if kind == "state":
        return state_type(accelerator)
    if kind == "token":
        return token_type(accelerator)
    raise parser.error(f"unknown accfg type '{kind}'")


def _parse_field_list(parser) -> tuple[list[str], list[SSAValue]]:
    """Parse ``("name" = %value : type, ...)``; the ``(`` is already consumed
    by the caller or expected here."""
    names: list[str] = []
    values: list[SSAValue] = []
    if parser.accept(")"):
        return names, values
    while True:
        names.append(parser.parse_string())
        parser.expect("=")
        values.append(parser.parse_value_use())
        parser.expect(":")
        parser.parse_type()
        if not parser.accept(","):
            break
    parser.expect(")")
    return names, values


def _print_field_list(printer: Printer, fields) -> None:
    printer.emit("(")
    for i, (name, value) in enumerate(fields):
        if i:
            printer.emit(", ")
        printer.emit(quote_string(name) + " = ")
        printer.print_value(value)
        printer.emit(f" : {value.type}")
    printer.emit(")")


@register_op
class SetupOp(Operation):
    """Write configuration fields; produce the resulting accelerator state."""

    name = "accfg.setup"
    custom_printed_attrs = frozenset(["accelerator", "param_names"])

    @staticmethod
    def create(
        accelerator: str,
        fields: list[tuple[str, SSAValue]] | tuple[tuple[str, SSAValue], ...],
        in_state: SSAValue | None = None,
    ) -> "SetupOp":
        operands: list[SSAValue] = []
        if in_state is not None:
            operands.append(in_state)
        names: list[str] = []
        for field_name, value in fields:
            names.append(field_name)
            operands.append(value)
        op = SetupOp(
            operands=operands, result_types=[state_type(accelerator)]
        )
        op.attributes["accelerator"] = _str_attr(accelerator)
        op.attributes["param_names"] = _param_names_attr(tuple(names))
        op.result.name_hint = "state"
        return op

    # -- accessors ---------------------------------------------------------

    @property
    def accelerator(self) -> str:
        attr = self.attributes["accelerator"]
        assert isinstance(attr, StringAttr)
        return attr.value

    #: (param_names attr, extracted names) pair — attrs are immutable, so
    #: the extraction is valid as long as the same attr object is installed
    _field_names_cache: tuple[ArrayAttr, tuple[str, ...]] | None = None

    @property
    def in_state(self) -> SSAValue | None:
        operands = self._operands
        if operands and isinstance(operands[0].type, StateType):
            return operands[0]
        return None

    @property
    def out_state(self) -> SSAValue:
        return self.results[0]

    @property
    def field_names(self) -> tuple[str, ...]:
        attr = self.attributes["param_names"]
        cached = self._field_names_cache
        if cached is not None and cached[0] is attr:
            return cached[1]
        assert isinstance(attr, ArrayAttr)
        names = tuple(
            e.value for e in attr.elements if isinstance(e, StringAttr)
        )
        self._field_names_cache = (attr, names)
        return names

    @property
    def field_values(self) -> tuple[SSAValue, ...]:
        operands = self._operands
        offset = (
            1
            if operands and isinstance(operands[0].type, StateType)
            else 0
        )
        return tuple(operands[offset:])

    @property
    def fields(self) -> tuple[tuple[str, SSAValue], ...]:
        return tuple(zip(self.field_names, self.field_values))

    def field_value(self, name: str) -> SSAValue | None:
        for field_name, value in self.fields:
            if field_name == name:
                return value
        return None

    # -- mutation helpers ------------------------------------------------

    def set_fields(self, fields: list[tuple[str, SSAValue]]) -> None:
        """Replace the field list, keeping the input state (if any)."""
        operands: list[SSAValue] = []
        in_state = self.in_state
        if in_state is not None:
            operands.append(in_state)
        names: list[str] = []
        for field_name, value in fields:
            names.append(field_name)
            operands.append(value)
        self.set_operands(operands)
        self.attributes["param_names"] = _param_names_attr(tuple(names))

    def set_in_state(self, state: SSAValue | None) -> None:
        fields = list(self.fields)
        operands: list[SSAValue] = []
        if state is not None:
            operands.append(state)
        operands.extend(value for _, value in fields)
        self.set_operands(operands)

    def verify_(self) -> None:
        accelerator = self.attributes.get("accelerator")
        if not isinstance(accelerator, StringAttr):
            raise VerifyError("accfg.setup needs an 'accelerator' attribute")
        if not isinstance(self.attributes.get("param_names"), ArrayAttr):
            raise VerifyError("accfg.setup needs a 'param_names' attribute")
        if len(self.results) != 1 or not isinstance(self.results[0].type, StateType):
            raise VerifyError("accfg.setup must produce exactly one state")
        state_type = self.results[0].type
        assert isinstance(state_type, StateType)
        if state_type.accelerator != accelerator.value:
            raise VerifyError("accfg.setup state type accelerator mismatch")
        operands = self._operands
        has_in_state = bool(operands) and isinstance(operands[0].type, StateType)
        if has_in_state and operands[0].type != state_type:
            raise VerifyError("accfg.setup input state type mismatch")
        field_names = self.field_names
        field_values = operands[1:] if has_in_state else operands
        if len(field_names) != len(field_values):
            raise VerifyError(
                "accfg.setup param_names length must match field operand count"
            )
        for value in field_values:
            if isinstance(value.type, (StateType, TokenType)):
                raise VerifyError("accfg.setup field values cannot be states/tokens")
        if len(set(field_names)) != len(field_names):
            seen: set[str] = set()
            for field_name in field_names:
                if field_name in seen:
                    raise VerifyError(f"duplicate setup field '{field_name}'")
                seen.add(field_name)

    def print_custom(self, printer: Printer) -> None:
        printer.emit(f"accfg.setup on {quote_string(self.accelerator)} ")
        if self.in_state is not None:
            printer.emit("from ")
            printer.print_value(self.in_state)
            printer.emit(" ")
        _print_field_list(printer, self.fields)
        printer.emit(f" : {self.results[0].type}")


@register_custom_parser("accfg.setup")
def _parse_setup(parser) -> SetupOp:
    parser.expect("on")
    accelerator = parser.parse_string()
    in_state = None
    if parser.accept("from"):
        in_state = parser.parse_value_use()
    parser.expect("(")
    names, values = _parse_field_list(parser)
    parser.expect(":")
    parser.parse_type()
    return SetupOp.create(accelerator, list(zip(names, values)), in_state)


@register_op
class LaunchOp(Operation):
    """Start the accelerator from a configured state; yields a token.

    Launch-semantic configuration fields (paper, Section 2.4: instructions
    that implicitly launch) are modeled as fields on the launch itself.
    """

    name = "accfg.launch"
    custom_printed_attrs = frozenset(["param_names"])

    @staticmethod
    def create(
        state: SSAValue,
        fields: list[tuple[str, SSAValue]] | tuple[tuple[str, SSAValue], ...] = (),
    ) -> "LaunchOp":
        state_type = state.type
        if not isinstance(state_type, StateType):
            raise VerifyError("accfg.launch operand must be a state")
        operands: list[SSAValue] = [state]
        names: list[str] = []
        for field_name, value in fields:
            names.append(field_name)
            operands.append(value)
        op = LaunchOp(
            operands=operands,
            result_types=[token_type(state_type.accelerator)],
        )
        op.attributes["param_names"] = _param_names_attr(tuple(names))
        op.result.name_hint = "token"
        return op

    @property
    def state(self) -> SSAValue:
        return self.operands[0]

    @property
    def token(self) -> SSAValue:
        return self.results[0]

    @property
    def accelerator(self) -> str:
        state_type = self.state.type
        assert isinstance(state_type, StateType)
        return state_type.accelerator

    @property
    def field_names(self) -> tuple[str, ...]:
        attr = self.attributes["param_names"]
        assert isinstance(attr, ArrayAttr)
        return tuple(e.value for e in attr.elements if isinstance(e, StringAttr))

    @property
    def fields(self) -> tuple[tuple[str, SSAValue], ...]:
        return tuple(zip(self.field_names, self.operands[1:]))

    def verify_(self) -> None:
        if not self.operands or not isinstance(self.operands[0].type, StateType):
            raise VerifyError("accfg.launch needs a state operand first")
        if len(self.results) != 1 or not isinstance(self.results[0].type, TokenType):
            raise VerifyError("accfg.launch must produce exactly one token")
        state_type = self.operands[0].type
        token_type = self.results[0].type
        assert isinstance(state_type, StateType)
        assert isinstance(token_type, TokenType)
        if state_type.accelerator != token_type.accelerator:
            raise VerifyError("accfg.launch token/state accelerator mismatch")
        if len(self.field_names) != len(self.operands) - 1:
            raise VerifyError("accfg.launch param_names/operand count mismatch")

    def print_custom(self, printer: Printer) -> None:
        printer.emit("accfg.launch ")
        printer.print_value(self.state)
        if self.fields:
            printer.emit(" ")
            _print_field_list(printer, self.fields)
        printer.emit(f" : {self.results[0].type}")


@register_custom_parser("accfg.launch")
def _parse_launch(parser) -> LaunchOp:
    state = parser.parse_value_use()
    fields: list[tuple[str, SSAValue]] = []
    if parser.accept("("):
        names, values = _parse_field_list(parser)
        fields = list(zip(names, values))
    parser.expect(":")
    parser.parse_type()
    return LaunchOp.create(state, fields)


@register_op
class AwaitOp(Operation):
    """Block until the launch behind ``token`` has completed."""

    name = "accfg.await"

    @staticmethod
    def create(token: SSAValue) -> "AwaitOp":
        if not isinstance(token.type, TokenType):
            raise VerifyError("accfg.await operand must be a token")
        return AwaitOp(operands=[token])

    @property
    def token(self) -> SSAValue:
        return self.operands[0]

    @property
    def accelerator(self) -> str:
        token_type = self.token.type
        assert isinstance(token_type, TokenType)
        return token_type.accelerator

    def verify_(self) -> None:
        if len(self.operands) != 1 or not isinstance(self.operands[0].type, TokenType):
            raise VerifyError("accfg.await needs exactly one token operand")
        if self.results:
            raise VerifyError("accfg.await has no results")

    def print_custom(self, printer: Printer) -> None:
        printer.emit("accfg.await ")
        printer.print_value(self.token)


@register_custom_parser("accfg.await")
def _parse_await(parser) -> AwaitOp:
    token = parser.parse_value_use()
    return AwaitOp.create(token)


@register_op
class ResetOp(Operation):
    """Invalidate a state: subsequent setups cannot assume register contents."""

    name = "accfg.reset"

    @staticmethod
    def create(state: SSAValue) -> "ResetOp":
        if not isinstance(state.type, StateType):
            raise VerifyError("accfg.reset operand must be a state")
        return ResetOp(operands=[state])

    @property
    def state(self) -> SSAValue:
        return self.operands[0]

    def verify_(self) -> None:
        if len(self.operands) != 1 or not isinstance(self.operands[0].type, StateType):
            raise VerifyError("accfg.reset needs exactly one state operand")

    def print_custom(self, printer: Printer) -> None:
        printer.emit("accfg.reset ")
        printer.print_value(self.state)


@register_custom_parser("accfg.reset")
def _parse_reset(parser) -> ResetOp:
    state = parser.parse_value_use()
    return ResetOp.create(state)


def config_sites(root: Operation) -> list[Operation]:
    """Every ``accfg.setup`` and ``accfg.launch`` under ``root``, in
    :meth:`~repro.ir.operation.Operation.walk` order.

    An op's index in this list is its *site number*.  The trace compiler
    stores the number in place of the op, and a fault-recovery plan built
    for the same module resolves it back, so a compiled trace holds no IR.
    """
    return [op for op in root.walk_list() if isinstance(op, (SetupOp, LaunchOp))]


def config_feeding_ops(root: Operation) -> set[Operation]:
    """Ops whose results flow (transitively) into setup/launch fields."""
    feeding: set[Operation] = set()
    worklist: list[SSAValue] = []
    for op in config_sites(root):
        if isinstance(op, SetupOp):
            worklist.extend(op.field_values)
        else:
            worklist.extend(value for _, value in op.fields)
    while worklist:
        value = worklist.pop()
        owner = value.owner
        if not isinstance(owner, Operation) or owner in feeding:
            continue
        if owner.regions:
            continue  # stop at structured ops; their interiors are control
        feeding.add(owner)
        worklist.extend(owner.operands)
    return feeding
