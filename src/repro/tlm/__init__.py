"""Calibrated transaction-level AHB tier.

A cycle-approximate model of the same bus the cycle-accurate
testbench simulates: transactions are costed as integer cycle counts
and energy is charged per §5.2 instruction from a
:class:`CalibrationTable` fitted (and cross-validated at a held-out
seed) against the cycle-accurate reference.  Orders of magnitude
faster per transaction, deterministic under the same seed derivation,
and plugged into the replay/campaign stack through
``RunSpec(tier="tlm")`` — see ``docs/TLM.md`` for the calibration
workflow and the error-bound contract.
"""

from __future__ import annotations

from ..kernel import us
from ..workloads import plan_scenario
from .bus import TlmArbiter, TlmDecoder
from .calibrate import (
    DEFAULT_TABLE_PATH,
    TABLE_FORMAT,
    TABLE_VERSION,
    CalibrationTable,
    calibrate,
    load_default_table,
)
from .model import TlmFidelityError, TlmSystem, TlmWatchdog
from .validate import (
    VALIDATION_SEED,
    ScenarioValidation,
    ValidationReport,
    validate_scenario,
    validate_table,
)

__all__ = [
    "CalibrationTable",
    "DEFAULT_TABLE_PATH",
    "ScenarioValidation",
    "TABLE_FORMAT",
    "TABLE_VERSION",
    "TlmArbiter",
    "TlmDecoder",
    "TlmFidelityError",
    "TlmSystem",
    "TlmWatchdog",
    "VALIDATION_SEED",
    "ValidationReport",
    "calibrate",
    "execute_tlm",
    "load_default_table",
    "validate_scenario",
    "validate_table",
]


def execute_tlm(spec, wall_clock_budget=None, table=None):
    """Execute *spec* on the transaction-level tier.

    The TLM twin of :func:`repro.replay.execute`: returns the same
    ``(system, RunOutcome)`` shape with exceptions contained into the
    outcome, so the campaign/exec/journal machinery treats both tiers
    identically.  Checkpointing and instrumentation have no
    transaction-level equivalents — TLM runs are cheap enough that
    re-execution *is* the recovery strategy — and signal-level faults
    are rejected as ``crashed`` outcomes with a clear message.
    """
    from ..replay.trace import Containment

    with Containment() as run:
        for fault in spec.faults:
            if fault.kind != "behavioural":
                raise TlmFidelityError(
                    "signal-level fault %s has no transaction-level "
                    "model; run this spec with tier='cycle'"
                    % fault.describe())
        faults = {}
        for fault in spec.faults:
            if fault.slave in faults:
                raise TlmFidelityError(
                    "multiple behavioural faults on slave %d"
                    % fault.slave)
            faults[fault.slave] = fault
        plan = plan_scenario(spec.scenario, seed=spec.seed,
                             **spec.scenario_kwargs)
        run.system = TlmSystem(
            plan, table or load_default_table(),
            scenario=spec.scenario, faults=faults,
            retry_limit=spec.retry_limit,
            retry_backoff=spec.retry_backoff,
            watchdog=spec.watchdog,
            watchdog_kwargs=dict(spec.watchdog_kwargs),
        )
        run.system.run(us(spec.duration_us),
                       wall_clock_budget=wall_clock_budget)
    return run.system, run.outcome()
