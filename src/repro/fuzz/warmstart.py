"""Shared scenario-prefix checkpoints for fuzz candidates.

Mutated children mostly differ from their parent *late* in the run:
``duration_jitter`` only moves the end of the window, ``fault_shift``
moves a signal-fault window that usually opens well after time zero.
Until the first signal fault opens its window, all such siblings pass
through bit-identical simulation states — so the first sibling to
execute can leave a checkpoint of that shared prefix behind, and every
later sibling restores it instead of re-simulating from cycle 0.

Soundness rests on the same exactness contract the checkpoint layer
proves everywhere else (restore is digest-identical to straight
execution), plus a conservative *prefix signature*: two specs may
share a prefix checkpoint only when every input that can influence the
simulation **before the first signal-fault window opens** is identical:

* scenario, seed and every traffic/resilience/protocol knob;
* the full behavioural fault schedule (broken slaves are swapped in at
  elaboration and count transfers from cycle 0);
* the *number* of signal faults (the injector's checkpoint state is
  positional) and the injector seed.

``duration_us`` and the signal faults' windows/parameters are
deliberately **excluded** — they cannot act before the horizon.  A
prefix checkpoint is usable by a sibling only while it predates that
sibling's own horizon (strictly before the earliest signal-fault
``start_ps``) and does not overshoot its duration; otherwise the
sibling simply cold-starts.

Cache layout: one :class:`~repro.state.CheckpointStore` directory per
signature, holding a single content-addressed snapshot and no digest
stream (streams are per-run records; concurrent workers appending to a
shared one would interleave).  Writes are atomic, so concurrent
producers of the same signature at worst write the same bytes twice.
"""

from __future__ import annotations

import hashlib
import os

from ..kernel import us
from ..replay.trace import MIN_WARM_CYCLES
from ..state import CheckpointStore, canonical_json

__all__ = ["MIN_WARM_CYCLES", "WarmStartCache", "prefix_horizon_ps",
           "prefix_signature"]


def prefix_signature(spec):
    """Hex signature of everything that shapes the pre-fault prefix."""
    behavioural = [fault.to_dict() for fault in spec.faults
                   if fault.kind == "behavioural"]
    signal_count = len(spec.faults) - len(behavioural)
    identity = {
        "scenario": spec.scenario,
        "seed": spec.seed,
        "retry_limit": spec.retry_limit,
        "retry_backoff": spec.retry_backoff,
        "watchdog": spec.watchdog,
        "watchdog_kwargs": dict(spec.watchdog_kwargs),
        "check_protocol": spec.check_protocol,
        "protocol_kwargs": dict(spec.protocol_kwargs),
        "scenario_kwargs": dict(spec.scenario_kwargs),
        "behavioural": behavioural,
        "signal_fault_count": signal_count,
        "injector_seed": spec.injector_seed if signal_count else None,
    }
    return hashlib.sha256(
        canonical_json(identity).encode("utf-8")).hexdigest()[:16]


def prefix_horizon_ps(spec, duration_ps):
    """Latest kernel time a shared prefix checkpoint may be taken at
    (exclusive) for *spec*: strictly before the earliest signal-fault
    window opens, never past the end of the run."""
    horizon = duration_ps
    for fault in spec.faults:
        if fault.kind != "behavioural":
            horizon = min(horizon, int(fault.start_ps))
    return horizon


class WarmStartCache:
    """Directory of shared prefix checkpoints, one store per signature."""

    def __init__(self, root):
        self.root = root

    def store_for(self, spec):
        """The signature-keyed store shared by *spec*'s siblings."""
        return CheckpointStore(
            os.path.join(self.root, prefix_signature(spec)), keep=1)

    def plan(self, spec):
        """The JSON-able warm-start instruction executed by
        :func:`repro.replay.execute` (None when warm-starting *spec*
        can never pay off: the horizon is immediately at time zero)."""
        horizon = prefix_horizon_ps(spec, us(spec.duration_us))
        if horizon <= 0:
            return None
        return {"dir": self.store_for(spec).root, "horizon_ps": horizon}
