"""Timed functional interpretation of accfg programs."""

from .interpreter import (
    Interpreter,
    InterpreterError,
    StateHandle,
    run_module,
)

__all__ = [
    "Interpreter",
    "InterpreterError",
    "StateHandle",
    "run_module",
]
