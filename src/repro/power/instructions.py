"""The bus instruction set (paper §5.2, behavioural decomposition).

Four *activity modes* cover the AHB behaviour exercised by the paper's
testbench — ``IDLE``, ``READ``, ``WRITE`` and ``IDLE_HO`` (idle with
bus handover) — and an *instruction* is a permissible transition
between two consecutive cycles' modes, named ``<FROM>_<TO>`` exactly as
in the paper's ``power_fsm`` listing (``WRITE_READ``,
``IDLE_HO_IDLE_HO``, ...).
"""

from __future__ import annotations

from enum import Enum

from ..amba.types import HTRANS, htrans_of


class BusMode(Enum):
    """Activity mode of one bus cycle."""

    IDLE = "IDLE"
    IDLE_HO = "IDLE_HO"
    READ = "READ"
    WRITE = "WRITE"

    def __str__(self):
        return self.value


#: The modes by integer code, in definition order.  The power FSM's
#: block step takes each cycle's mode as a code indexing this tuple,
#: and hands the codes on to its tracer's ``on_block`` hook.
MODES = tuple(BusMode)
IDLE_CODE, IDLE_HO_CODE, READ_CODE, WRITE_CODE = range(len(MODES))

_NONSEQ = int(HTRANS.NONSEQ)
_SEQ = int(HTRANS.SEQ)


def mode_code(htrans, hwrite, handover):
    """:func:`classify_mode` as an index into :data:`MODES`, unchecked.

    Written with comparisons joined by ``&`` and ``|``, so it means the
    same on one cycle's Python ints and bools and on a block's int64
    and bool columns.  An HTRANS code with no member counts as idle;
    a write is the code after a read.
    """
    transfer = (htrans == _NONSEQ) | (htrans == _SEQ)
    return (READ_CODE * transfer + (transfer & (hwrite != 0))
            + IDLE_HO_CODE * ((transfer == 0) & handover))


def classify_mode(htrans, hwrite, handover):
    """Classify one cycle's activity mode.

    Parameters
    ----------
    htrans:
        The bus ``HTRANS`` value during the cycle.
    hwrite:
        The bus ``HWRITE`` value during the cycle.
    handover:
        ``True`` when the cycle is part of a bus handover — ownership
        changed at the cycle boundary or a grant change is pending.

    BUSY cycles burn no data-path energy beyond idle and are folded
    into IDLE, matching the coarse four-mode decomposition.  An HTRANS
    code with no member raises as ``HTRANS(code)`` does.
    """
    htrans_of(htrans)
    return MODES[mode_code(htrans, hwrite, bool(handover))]


def instruction_name(previous, current):
    """The paper's instruction naming: ``<FROM>_<TO>``.

    >>> instruction_name(BusMode.WRITE, BusMode.READ)
    'WRITE_READ'
    >>> instruction_name(BusMode.IDLE_HO, BusMode.IDLE_HO)
    'IDLE_HO_IDLE_HO'
    """
    return "%s_%s" % (previous.value, current.value)


#: Every mode transition, i.e. the complete instruction alphabet; the
#: one from mode code *p* to *c* is at ``4 * p + c``.
ALL_INSTRUCTIONS = tuple(
    instruction_name(src, dst)
    for src in BusMode for dst in BusMode
)

#: The transitions the paper's power_fsm listing enumerates (§5.4).
PAPER_FSM_INSTRUCTIONS = (
    "IDLE_IDLE",
    "IDLE_IDLE_HO",
    "IDLE_WRITE",
    "IDLE_HO_IDLE_HO",
    "IDLE_HO_IDLE",
    "IDLE_HO_WRITE",
    "READ_WRITE",
    "READ_IDLE",
    "READ_IDLE_HO",
    "WRITE_READ",
)

#: The rows of the paper's Table 1.
TABLE1_INSTRUCTIONS = (
    "IDLE_HO_IDLE_HO",
    "IDLE_HO_WRITE",
    "READ_WRITE",
    "READ_IDLE_HO",
    "WRITE_READ",
)

#: Instructions that move data with no handover involvement — the
#: paper's "data transfer instructions" (≈ 87 % of total energy).
DATA_TRANSFER_INSTRUCTIONS = tuple(
    name for name in ALL_INSTRUCTIONS
    if name.endswith(("_READ", "_WRITE")) and not name.startswith("IDLE_HO")
)

#: Instructions attributable to bus arbitration (handover involved).
ARBITRATION_INSTRUCTIONS = tuple(
    name for name in ALL_INSTRUCTIONS
    if "IDLE_HO" in name
)


def current_mode_of(instruction):
    """The destination mode of *instruction* (its ``_<TO>`` suffix).

    >>> current_mode_of("WRITE_READ")
    <BusMode.READ: 'READ'>
    >>> current_mode_of("READ_IDLE_HO")
    <BusMode.IDLE_HO: 'IDLE_HO'>
    """
    if instruction.endswith("IDLE_HO"):
        return BusMode.IDLE_HO
    if instruction.endswith("READ"):
        return BusMode.READ
    if instruction.endswith("WRITE"):
        return BusMode.WRITE
    if instruction.endswith("IDLE"):
        return BusMode.IDLE
    raise ValueError("not an instruction name: %r" % instruction)


def previous_mode_of(instruction):
    """The source mode of *instruction* (its ``<FROM>_`` prefix)."""
    suffix = current_mode_of(instruction).value
    prefix = instruction[:-(len(suffix) + 1)]
    for mode in BusMode:
        if mode.value == prefix:
            return mode
    raise ValueError("not an instruction name: %r" % instruction)


def is_data_transfer(name):
    """True for the paper's "data transfer with no handover" class."""
    return name in DATA_TRANSFER_INSTRUCTIONS


def is_arbitration(name):
    """True for instructions involving a bus handover."""
    return name in ARBITRATION_INSTRUCTIONS
