"""Deterministic record/replay and failure shrinking.

Because the delta-cycle kernel schedules deterministically and all
stimulus comes from seeded RNGs, a run's full behaviour is determined
by its provenance.  This package captures that provenance
(:class:`RunSpec`), fingerprints outcomes (:class:`RunOutcome`),
stores both in versioned JSON traces (:class:`ReplayTrace`), re-executes
them bit-exactly (:func:`execute`) and minimises failing runs by
delta-debugging the fault schedule and trimming the stimulus
(:func:`shrink`).
"""

from .shrink import (
    ShrinkResult,
    default_predicate,
    failure_signature,
    shrink,
)
from .trace import (
    FORMAT,
    FaultEntry,
    ReplayTrace,
    RunOutcome,
    RunSpec,
    campaign_spec,
    close_system,
    execute,
)
from .verify import DivergenceReport, compare_streams, verify_digests

__all__ = [
    "FORMAT",
    "DivergenceReport",
    "FaultEntry",
    "ReplayTrace",
    "RunOutcome",
    "RunSpec",
    "ShrinkResult",
    "campaign_spec",
    "close_system",
    "compare_streams",
    "default_predicate",
    "execute",
    "failure_signature",
    "shrink",
    "verify_digests",
]
