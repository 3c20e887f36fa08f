"""The paper's ``power_fsm`` (§5.4).

A finite-state machine over the four bus activity modes whose
transitions are the instruction set.  Every cycle it receives the
observed mode plus the per-block energies computed by the macromodels,
classifies the executed instruction, and dispatches the energy to the
ledger, the power traces and (optionally) a data file — "the energy
value output in a data file" of the paper's listing.

:meth:`PowerFsm.step_block` does this for a block of cycles given as
columns, feeding each sink once per block in cycle order: a live cycle
is a one-row block, a batched replay hands it whole blocks.
"""

from __future__ import annotations

from ..kernel.time import to_seconds
from .instructions import ALL_INSTRUCTIONS, MODES, BusMode, instruction_name
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
        #: :class:`repro.telemetry.PowerTracer`): its
        #: ``on_block(times, codes, instructions, energies, totals)`` is
        #: called once per :meth:`step_block` with the block's columns,
        #: modes as codes into :data:`~repro.power.instructions.MODES`.
        #: Costs one ``None`` check per block when unset.
        self.tracer = tracer
        self.state = BusMode.IDLE
        self.instruction_log = None
        self.cycles = 0

    def enable_logging(self):
        """Keep an in-memory list of (time_ps, instruction, energy)."""
        if self.instruction_log is None:
            self.instruction_log = []

    def step(self, time_ps, mode, block_energies, response=None):
        """Advance one cycle, a one-row :meth:`step_block`: *mode* is
        the observed :class:`~repro.power.instructions.BusMode`,
        *block_energies* maps block key → joules and *response* is the
        cycle's response tag.  Returns the executed instruction name."""
        instruction = instruction_name(self.state, mode)
        self.step_block(
            (time_ps,), (MODES.index(mode),),
            {block: (energy,) for block, energy in block_energies.items()},
            (response,))
        return instruction

    def step_block(self, times, codes, energies, responses):
        """Advance over a block of cycles, given as columns: each
        cycle's kernel time, its mode as a code into
        :data:`~repro.power.instructions.MODES`, block key → the block's
        per-cycle joules, and its response tag (``"OKAY"``/``"RETRY"``/
        ..., or ``None``) for the ledger's fault-overhead accounting.
        Classifies each cycle's instruction, charges the
        ledger (:meth:`~repro.power.ledger.EnergyLedger.charge_block`),
        feeds each attached sink once, in cycle order, and returns the
        per-cycle total energies.
        """
        instructions = []
        previous = MODES.index(self.state)
        for code in codes:
            instructions.append(ALL_INSTRUCTIONS[4 * previous + code])
            previous = code
        self.state = MODES[previous]
        totals = self.ledger.charge_block(instructions, energies,
                                          responses)
        if self.traces is not None:
            self.traces.extend(times, energies)
            self.traces.extend(times, {"TOTAL": totals})
        if self.datafile is not None:
            for time_ps, instruction, total in zip(times, instructions,
                                                   totals):
                self.datafile.write("%.9e %s %.6e\n" % (
                    to_seconds(time_ps), instruction, total))
        if self.instruction_log is not None:
            self.instruction_log.extend(zip(times, instructions, totals))
        if self.tracer is not None:
            self.tracer.on_block(times, codes, instructions, energies,
                                 totals)
        self.cycles += len(codes)
        return totals

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
