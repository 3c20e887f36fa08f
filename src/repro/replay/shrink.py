"""Greedy delta-debugging of failing runs.

Given a :class:`~repro.replay.trace.RunSpec` whose execution exhibits a
failure (a protocol violation, a broken containment outcome, a crash),
the shrinker searches for a *minimal reproducer*:

1. **Fault schedule** — classic ddmin (Zeller's delta debugging) over
   the list of :class:`~repro.replay.trace.FaultEntry` items: try
   subsets and their complements at increasing granularity until the
   schedule is 1-minimal (removing any single remaining fault makes the
   failure disappear).
2. **Source traffic** — the stimulus is fully determined by
   ``duration_us`` (seeded sources replay deterministically), so the
   traffic is trimmed by repeatedly halving the duration while the
   failure still reproduces.

"Failure still reproduces" is a predicate over the re-executed
:class:`~repro.replay.trace.RunOutcome`; the default predicate keys on
the original failure's *signature* rather than the full fingerprint, so
a shrunk run may legitimately fail *earlier*.  The signature pins the
specific bug, not just "any failure": a rule violation is identified by
its ``rule_id`` plus its tier (mandatory/advisory), and a crash by its
exception type — with several co-occurring violations, ddmin cannot
slide from the original bug onto a different one mid-shrink.  Every
candidate execution is cached by canonical spec identity — ddmin
revisits subsets freely without re-simulating.
"""

from __future__ import annotations

from .trace import close_system, execute


def _violation_kind(rule_id):
    """``"mandatory"`` / ``"advisory"`` tier of *rule_id* (unknown
    custom rules count as mandatory, mirroring the catalogue)."""
    from ..protocol.rules import is_mandatory
    return "mandatory" if is_mandatory(rule_id) else "advisory"


def _crash_type(detail):
    """The exception type of a contained crash (its ``detail`` is
    formatted ``"TypeName: message"`` by :func:`~repro.replay.execute`)."""
    head = (detail or "").split(":", 1)[0].strip()
    return head or "unknown"


def failure_signature(outcome):
    """The facet of *outcome* a shrunk reproducer must preserve.

    Keys on the specific tripped ``rule_id`` and its violation kind
    (mandatory/advisory), on the broken-containment state, or — for
    crashes — on the exception type, so each signature names one bug.
    """
    if outcome.first_violation_rule is not None:
        rule = outcome.first_violation_rule
        return ("rule", rule, _violation_kind(rule))
    if not outcome.recovery_compliant:
        return ("non-compliant",)
    if outcome.outcome == "crashed":
        return ("outcome", "crashed", _crash_type(outcome.detail))
    return ("outcome", outcome.outcome)


def default_predicate(original):
    """``outcome -> bool``: does it reproduce *original*'s failure?"""
    signature = failure_signature(original)
    if signature[0] == "rule":
        rule = signature[1]
        return lambda outcome: rule in outcome.rules_tripped
    if signature[0] == "non-compliant":
        return lambda outcome: not outcome.recovery_compliant
    if signature[1] == "crashed":
        crash_type = signature[2]
        return lambda outcome: (outcome.outcome == "crashed"
                                and _crash_type(outcome.detail)
                                == crash_type)
    failing_outcome = signature[1]
    return lambda outcome: outcome.outcome == failing_outcome


class ShrinkResult:
    """The minimal reproducer and how it was reached."""

    def __init__(self, spec, outcome, original_outcome, executions,
                 steps):
        #: Minimal :class:`RunSpec` still reproducing the failure.
        self.spec = spec
        #: Outcome of executing the minimal spec.
        self.outcome = outcome
        #: Outcome of the original, unshrunk spec.
        self.original_outcome = original_outcome
        #: Number of candidate simulations (cache misses) performed.
        self.executions = executions
        #: Human-readable shrink log, one line per accepted reduction.
        self.steps = list(steps)

    def summary(self):
        lines = ["shrink: %d candidate runs" % self.executions]
        lines += ["  " + step for step in self.steps]
        lines.append("minimal: %r" % self.spec)
        return "\n".join(lines)

    def __repr__(self):
        return "ShrinkResult(faults=%d, duration=%.3fus, runs=%d)" % (
            len(self.spec.faults), self.spec.duration_us,
            self.executions,
        )


class _Evaluator:
    """Cached ``spec -> reproduces?`` oracle."""

    def __init__(self, predicate):
        self.predicate = predicate
        self.cache = {}
        self.executions = 0

    def __call__(self, spec):
        key = spec.key()
        if key not in self.cache:
            self.executions += 1
            system, outcome = execute(spec)
            close_system(system)
            self.cache[key] = (bool(self.predicate(outcome)), outcome)
        return self.cache[key][0]

    def outcome_of(self, spec):
        self(spec)
        return self.cache[spec.key()][1]


def _ddmin_faults(spec, evaluate, steps):
    """1-minimal subset of ``spec.faults`` still reproducing."""
    faults = list(spec.faults)
    granularity = 2
    while len(faults) >= 2:
        chunk = max(1, len(faults) // granularity)
        subsets = [faults[index:index + chunk]
                   for index in range(0, len(faults), chunk)]
        reduced = False
        for index, subset in enumerate(subsets):
            complement = [fault for other in subsets[:index]
                          for fault in other] \
                + [fault for other in subsets[index + 1:]
                   for fault in other]
            for candidate, label in ((subset, "subset"),
                                     (complement, "complement")):
                if not candidate or len(candidate) == len(faults):
                    continue
                if evaluate(spec.replace(faults=candidate)):
                    steps.append(
                        "faults %d -> %d (kept %s %d/%d)"
                        % (len(faults), len(candidate), label,
                           index + 1, len(subsets)))
                    faults = list(candidate)
                    granularity = max(2, min(granularity,
                                             len(faults)))
                    reduced = True
                    break
            if reduced:
                break
        if reduced:
            continue
        if granularity >= len(faults):
            break
        granularity = min(len(faults), granularity * 2)
    return spec.replace(faults=faults)


def _shrink_duration(spec, evaluate, steps, min_duration_us=0.5):
    """Halve the run duration while the failure still reproduces."""
    duration = spec.duration_us
    while duration / 2.0 >= min_duration_us:
        candidate = spec.replace(duration_us=duration / 2.0)
        if not evaluate(candidate):
            break
        steps.append("duration %.3fus -> %.3fus"
                     % (duration, duration / 2.0))
        duration /= 2.0
        spec = candidate
    return spec


def shrink(spec, predicate=None, min_duration_us=0.5, original=None):
    """Minimise *spec* while its failure keeps reproducing.

    Parameters
    ----------
    spec:
        The failing :class:`~repro.replay.trace.RunSpec`.
    predicate:
        ``RunOutcome -> bool`` deciding whether a candidate still
        reproduces.  Defaults to matching the original run's failure
        signature (see :func:`failure_signature`).
    min_duration_us:
        Floor below which the duration is not halved further.
    original:
        The :class:`~repro.replay.trace.RunOutcome` of *spec* when the
        caller already has it (a fuzz worker's fingerprint); *spec* is
        executed only when it is not given.

    Returns a :class:`ShrinkResult`.  Raises ``ValueError`` when the
    original spec does not satisfy the predicate (nothing to shrink).
    """
    if original is None:
        system, original = execute(spec)
        close_system(system)
    if predicate is None:
        if not original.failing:
            raise ValueError(
                "run is not failing (outcome %r, 0 violations): "
                "nothing to shrink" % original.outcome)
        predicate = default_predicate(original)
    evaluate = _Evaluator(predicate)
    evaluate.cache[spec.key()] = (bool(predicate(original)), original)
    if not evaluate(spec):
        raise ValueError("original spec does not satisfy the predicate")

    steps = []
    spec = _ddmin_faults(spec, evaluate, steps)
    spec = _shrink_duration(spec, evaluate, steps,
                            min_duration_us=min_duration_us)
    return ShrinkResult(spec, evaluate.outcome_of(spec), original,
                        evaluate.executions, steps)
