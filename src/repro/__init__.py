"""repro — system-level power analysis of the AMBA AHB bus.

Reproduction of Caldari et al., "System-Level Power Analysis Methodology
Applied to the AMBA AHB Bus" (DATE 2003).

Subpackages
-----------
``repro.kernel``
    Event-driven delta-cycle simulation kernel (SystemC substitute).
``repro.amba``
    Cycle-accurate AMBA AHB bus model (arbiter, decoder, muxes,
    masters, slaves, protocol checker, APB bridge).
``repro.gatelevel``
    Gate-level netlists, synthesis generators and a switching-activity
    energy simulator (Berkeley SIS substitute).
``repro.power``
    The paper's contribution: activity monitoring, energy macromodels,
    the bus instruction set and power FSM, power-model styles, energy
    ledger and power traces.
``repro.workloads``
    Traffic patterns and the paper's 2-master/3-slave testbench.
``repro.analysis``
    Tables, ASCII plots and one experiment runner per paper artefact.
``repro.faults``
    Fault injection (signal-level and behavioural), the bus watchdog's
    campaign driver, and resilience/energy-overhead reporting.
``repro.protocol``
    Runtime AHB compliance engine: per-cycle assertion monitors with
    AMBA-spec rule references and configurable severity.
``repro.replay``
    Deterministic record/replay of runs from their provenance, plus a
    delta-debugging failure shrinker.
"""

__version__ = "1.0.0"

from .amba import (  # noqa: E402
    AhbBus,
    AhbConfig,
    AhbMaster,
    AhbProtocolChecker,
    AhbTransaction,
    AhbWatchdog,
    Arbitration,
    DefaultMaster,
    MemorySlave,
)
from .faults import FaultInjector, run_fault_campaign  # noqa: E402
from .kernel import Clock, MHz, Module, Signal, Simulator, ns, us  # noqa: E402
from .kernel import simulator as _simulator  # noqa: E402
from .power import (  # noqa: E402
    Activity,
    ArbiterEnergyModel,
    DecoderEnergyModel,
    EnergyLedger,
    GlobalPowerMonitor,
    LocalPowerMonitor,
    MuxEnergyModel,
    PAPER_TECHNOLOGY,
    PowerFsm,
    PrivatePowerMonitor,
    TechnologyParameters,
)
from .protocol import ComplianceEngine, ProtocolViolation  # noqa: E402
from .replay import (  # noqa: E402
    ReplayTrace,
    RunOutcome,
    RunSpec,
    execute,
    shrink,
)
from .workloads import AhbSystem, build_paper_testbench  # noqa: E402


def _load_batch_kinds():
    """Register the power monitor's and compliance engines' record/replay
    batches, which both engines run; imported on the first simulation.
    Each batch module registers its kind on import, and nothing else
    imports them."""
    from .power import monitor_batch  # noqa: F401
    from .protocol import checker_batch  # noqa: F401


_simulator.load_batch_kinds = _load_batch_kinds

__all__ = [
    "Activity",
    "AhbBus",
    "AhbConfig",
    "AhbMaster",
    "AhbProtocolChecker",
    "AhbSystem",
    "AhbTransaction",
    "AhbWatchdog",
    "ArbiterEnergyModel",
    "Arbitration",
    "Clock",
    "ComplianceEngine",
    "DecoderEnergyModel",
    "DefaultMaster",
    "EnergyLedger",
    "FaultInjector",
    "GlobalPowerMonitor",
    "LocalPowerMonitor",
    "MHz",
    "MemorySlave",
    "Module",
    "MuxEnergyModel",
    "PAPER_TECHNOLOGY",
    "PowerFsm",
    "PrivatePowerMonitor",
    "ProtocolViolation",
    "ReplayTrace",
    "RunOutcome",
    "RunSpec",
    "Signal",
    "Simulator",
    "TechnologyParameters",
    "build_paper_testbench",
    "execute",
    "ns",
    "run_fault_campaign",
    "shrink",
    "us",
]
