"""Registries connecting op/type names to their Python classes.

Dialects register their operations here so the parser can resolve op names
from text and so generic passes can instantiate ops by name.  Custom textual
syntax (printing is handled by ``print_custom`` methods on ops; parsing by
functions registered with :func:`register_custom_parser`).
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover
    from .attributes import TypeAttribute
    from .operation import Operation
    from .parser import Parser

OP_REGISTRY: dict[str, type["Operation"]] = {}
CUSTOM_PARSERS: dict[str, Callable[["Parser"], "Operation"]] = {}
TYPE_PARSERS: dict[str, Callable[["Parser"], "TypeAttribute"]] = {}
ATTR_PARSERS: dict[str, Callable[["Parser"], object]] = {}

#: Dialects defined outside :mod:`repro.dialects`: op-name prefix -> the
#: module whose import registers them.  The parser imports one the first
#: time it meets an op of that dialect, so parsing does not depend on what
#: the caller happened to import, and the module stays off import chains
#: that never parse such an op.
DEFERRED_DIALECTS = {"net": "repro.workloads.network"}


def load_deferred_dialect(op_name: str) -> None:
    """Import the module registering ``op_name``'s dialect when that
    dialect is one of :data:`DEFERRED_DIALECTS`."""
    module = DEFERRED_DIALECTS.get(op_name.partition(".")[0])
    if module is not None:
        importlib.import_module(module)


def register_attr_parser(prefix: str):
    """Decorator registering a parser for dialect attributes ``#prefix…``."""

    def decorator(fn: Callable[["Parser"], object]):
        ATTR_PARSERS[prefix] = fn
        return fn

    return decorator


def register_op(cls: type["Operation"]) -> type["Operation"]:
    """Class decorator registering an operation under its ``name``."""
    existing = OP_REGISTRY.get(cls.name)
    if existing is not None and existing is not cls:
        raise ValueError(f"op name '{cls.name}' registered twice")
    OP_REGISTRY[cls.name] = cls
    return cls


def register_custom_parser(
    op_name: str,
) -> Callable[[Callable[["Parser"], "Operation"]], Callable[["Parser"], "Operation"]]:
    """Decorator registering a custom-syntax parser for ``op_name``."""

    def decorator(fn: Callable[["Parser"], "Operation"]):
        CUSTOM_PARSERS[op_name] = fn
        return fn

    return decorator


def register_type_parser(
    prefix: str,
) -> Callable[[Callable[["Parser"], "TypeAttribute"]], Callable[["Parser"], "TypeAttribute"]]:
    """Decorator registering a parser for dialect types ``!prefix.…``."""

    def decorator(fn: Callable[["Parser"], "TypeAttribute"]):
        TYPE_PARSERS[prefix] = fn
        return fn

    return decorator
