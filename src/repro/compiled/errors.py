"""Errors raised by the static compiler.

Compilation failures are *loud by design*: a model that cannot be
compiled (dynamic sensitivity, an undeclared combinational write set,
more than one clock) raises :class:`CompileError` naming the offending
processes, so the modeller either fixes the declaration or explicitly
opts into the interpreted delta-cycle kernel.
"""

from __future__ import annotations

from ..kernel.errors import SimulationError


class CompileError(SimulationError):
    """The design cannot be statically compiled.

    Parameters
    ----------
    message:
        Human-readable description of the violation.
    process_names:
        Names of the processes involved (for programmatic triage).
    """

    def __init__(self, message, process_names=()):
        super().__init__(message)
        self.process_names = tuple(process_names)
