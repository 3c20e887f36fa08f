"""Gate-level substrate (Berkeley SIS substitute).

Provides the low-level implementations the paper characterised its
macromodels against: a small cell library, netlists, a
switching-activity energy simulator and synthesis generators for the
AHB sub-blocks (one-hot decoder, AND-OR multiplexer, priority arbiter).
"""

from .blif import BlifError, load_blif, read_blif, save_blif, write_blif
from .equivalence import (
    Mismatch,
    check_combinational,
    check_sequential,
    decoder_reference,
    mux_reference,
)
from .gates import (
    AND2,
    BUF,
    DEFAULT_INPUT_CAP,
    INV,
    LIBRARY,
    NAND2,
    NOR2,
    OR2,
    XNOR2,
    XOR2,
    CellType,
    bits_to_int,
    hamming_int,
    int_to_bits,
)
from .netlist import Cell, Dff, Net, Netlist
from .optimize import OptimizationReport, optimize, optimize_with_report
from .simulate import GateLevelSimulator, StepResult
from .synth import (
    DEFAULT_OUTPUT_CAP,
    decoder_input_bits,
    synth_mux,
    synth_one_hot_decoder,
    synth_priority_arbiter,
)
from .vectorized import BatchResult, bus_bits, run_batch

__all__ = [
    "AND2",
    "BUF",
    "BatchResult",
    "BlifError",
    "load_blif",
    "read_blif",
    "save_blif",
    "write_blif",
    "Cell",
    "CellType",
    "DEFAULT_INPUT_CAP",
    "DEFAULT_OUTPUT_CAP",
    "Dff",
    "GateLevelSimulator",
    "INV",
    "LIBRARY",
    "Mismatch",
    "NAND2",
    "NOR2",
    "Net",
    "Netlist",
    "OR2",
    "OptimizationReport",
    "optimize",
    "optimize_with_report",
    "StepResult",
    "XNOR2",
    "XOR2",
    "bits_to_int",
    "bus_bits",
    "check_combinational",
    "check_sequential",
    "decoder_input_bits",
    "decoder_reference",
    "hamming_int",
    "int_to_bits",
    "mux_reference",
    "run_batch",
    "synth_mux",
    "synth_one_hot_decoder",
    "synth_priority_arbiter",
]
