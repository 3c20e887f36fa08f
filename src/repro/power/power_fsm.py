"""The paper's ``power_fsm`` (§5.4).

A finite-state machine over the four bus activity modes whose
transitions are the instruction set.  Every cycle it receives the
observed mode plus the per-block energies computed by the macromodels,
classifies the executed instruction, and dispatches the energy to the
ledger, the power traces and (optionally) a data file — "the energy
value output in a data file" of the paper's listing.
"""

from __future__ import annotations

from ..kernel.time import to_seconds
from .instructions import BusMode, instruction_name
from .ledger import EnergyLedger


class PowerFsm:
    """Instruction classifier and energy dispatcher.

    Parameters
    ----------
    ledger:
        The :class:`~repro.power.ledger.EnergyLedger` to charge.
    traces:
        Optional :class:`~repro.power.power_trace.TraceSet`; per-block
        traces plus a ``TOTAL`` trace are recorded when present.
    datafile:
        Optional open file object; one ``time_s instruction energy_j``
        line is written per cycle, like the paper's output file.
    """

    def __init__(self, ledger=None, traces=None, datafile=None,
                 tracer=None):
        self.ledger = ledger if ledger is not None else EnergyLedger()
        self.traces = traces
        self.datafile = datafile
        #: Optional telemetry hook (e.g.
        #: :class:`repro.telemetry.PowerTracer`); its ``on_step`` is
        #: called once per cycle.  Costs one ``None`` check when unset.
        #: A tracer that also has ``on_modes(codes)`` lets the global
        #: monitor batch: each replayed block then calls it once with
        #: the block's per-cycle modes as codes into
        #: :data:`~repro.power.instructions.MODES`
        #: (:mod:`repro.power.monitor_batch`).
        self.tracer = tracer
        self.state = BusMode.IDLE
        self.instruction_log = None
        self.cycles = 0

    def enable_logging(self):
        """Keep an in-memory list of (time_ps, instruction, energy)."""
        if self.instruction_log is None:
            self.instruction_log = []

    def step(self, time_ps, mode, block_energies, response=None):
        """Advance one cycle.

        Parameters
        ----------
        time_ps:
            Kernel time of the cycle boundary.
        mode:
            The observed :class:`~repro.power.instructions.BusMode`.
        block_energies:
            Mapping block key → joules for this cycle.
        response:
            Optional bus response tag (``"OKAY"``/``"RETRY"``/...) for
            the ledger's fault-overhead accounting.

        Returns the executed instruction name.
        """
        instruction = instruction_name(self.state, mode)
        self.state = mode
        total = self.ledger.charge_cycle(instruction, block_energies,
                                         response=response)
        if self.traces is not None:
            self.traces.record(time_ps, block_energies)
            self.traces.record(time_ps, {"TOTAL": total})
        if self.datafile is not None:
            self.datafile.write(
                "%.9e %s %.6e\n"
                % (to_seconds(time_ps), instruction, total)
            )
        if self.instruction_log is not None:
            self.instruction_log.append((time_ps, instruction, total))
        if self.tracer is not None:
            self.tracer.on_step(time_ps, mode, instruction,
                                block_energies, total, response)
        self.cycles += 1
        return instruction

    def reset(self, mode=BusMode.IDLE):
        """Reset the FSM state (ledger contents are preserved)."""
        self.state = mode

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        """FSM state (the ledger checkpoints separately; traces,
        datafile and tracer are append-only sinks left alone)."""
        return {
            "state": self.state.value,
            "cycles": self.cycles,
            "instruction_log": [list(entry) for entry
                                in self.instruction_log]
            if self.instruction_log is not None else None,
        }

    def load_state_dict(self, state):
        self.state = BusMode(state["state"])
        self.cycles = state["cycles"]
        log = state["instruction_log"]
        self.instruction_log = [tuple(entry) for entry in log] \
            if log is not None else None
