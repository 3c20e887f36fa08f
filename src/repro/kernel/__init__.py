"""An event-driven, delta-cycle simulation kernel (SystemC substitute).

The kernel provides everything the AMBA AHB model and the power
methodology need from SystemC 2.0 / IPsim:

* :class:`Simulator` — evaluate/update delta-cycle scheduler;
* :class:`Signal` — delta-delayed values with edge events;
* :class:`Module` — hierarchical containers of signals and processes;
* :class:`Clock` — free-running clock generator;
* :class:`Event` — notifiable synchronisation points;
* :class:`VcdTracer` — IEEE-1364 waveform dumping;
* :mod:`repro.kernel.time` — integer picosecond time helpers.
"""

from .clock import Clock
from .errors import (
    DeltaCycleLimitError,
    ElaborationError,
    KernelError,
    ProcessError,
    SimulationError,
    StateError,
    TracingError,
    WallClockDeadlineError,
)
from .events import Event, MethodProcess, ThreadProcess
from .faults import (
    BitFlipFault,
    FaultInjector,
    GlitchFault,
    SignalFault,
    StuckAtFault,
)
from .module import Module
from .signal import Signal
from .simulator import Simulator
from .trace import VcdTracer
from .vcd_reader import VcdFile, VcdParseError, VcdSignal, load_vcd, read_vcd
from .time import (
    GHz,
    Hz,
    MHz,
    clock_period,
    format_time,
    kHz,
    ms,
    ns,
    ps,
    seconds,
    to_ns,
    to_seconds,
    to_us,
    us,
)

__all__ = [
    "BitFlipFault",
    "Clock",
    "DeltaCycleLimitError",
    "ElaborationError",
    "Event",
    "FaultInjector",
    "GHz",
    "GlitchFault",
    "Hz",
    "KernelError",
    "MHz",
    "MethodProcess",
    "Module",
    "SignalFault",
    "StuckAtFault",
    "ProcessError",
    "Signal",
    "SimulationError",
    "Simulator",
    "StateError",
    "ThreadProcess",
    "TracingError",
    "WallClockDeadlineError",
    "VcdFile",
    "VcdParseError",
    "VcdSignal",
    "VcdTracer",
    "clock_period",
    "load_vcd",
    "read_vcd",
    "format_time",
    "kHz",
    "ms",
    "ns",
    "ps",
    "seconds",
    "to_ns",
    "to_seconds",
    "to_us",
    "us",
]
