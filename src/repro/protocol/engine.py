"""The runtime AHB compliance engine.

:class:`ComplianceEngine` registers a kernel process on the bus clock
that records the committed shared signals every cycle and runs the
rule catalogue of :mod:`repro.protocol.rules` over consecutive cycles.
Every violation becomes a structured :class:`ProtocolViolation`
carrying the kernel time, the cycle index, the rule id with its AMBA
spec reference, and a full signal snapshot — enough to diff two runs
or feed the replay shrinker without re-simulating.

Severity is configurable per engine and per rule:

``record``
    Collect the violation silently (campaigns, batch analysis).
``warn``
    Collect, and print the first violation of each rule to stderr.
``raise``
    Raise :class:`ProtocolComplianceError` at the violating cycle —
    the simulation dies exactly where the protocol does.

Each cycle the engine reads one row of committed values (its
:attr:`~ComplianceEngine.columns`, then the time stamp) and runs the
stock rules on it; a :class:`~repro.protocol.rules.CycleView` is built
only for a violation's snapshot, the checkpointed previous cycle and a
custom rule.  In a run where every effective severity is ``record``,
:meth:`~repro.kernel.Simulator.run` points the engine's process at a
recorder of the same rows on both engines, and
:mod:`repro.protocol.checker_batch` replays the same rule definitions
over blocks of them.  ``raise`` or ``warn`` severity (globally or
through ``severity_overrides``), a custom rule, an engine subclass
other than the :class:`~repro.amba.AhbProtocolChecker` facade, or a
kernel observer keep the run on :meth:`_on_clk`, cycle by cycle.  The
decision is taken afresh at every run, so assigning ``severity`` (or
``AhbProtocolChecker.strict``) between runs takes effect at the next
one.
"""

from __future__ import annotations

import sys
from operator import attrgetter

from ..kernel import Module
from .rules import (
    SEL,
    CycleView,
    RowRule,
    advisory_rules,
    is_mandatory,
    mandatory_rules,
    rule_info,
)

_VALUE = attrgetter("_value")

#: Accepted severity levels, least to most drastic.
SEVERITIES = ("record", "warn", "raise")


class ProtocolComplianceError(AssertionError):
    """Raised in ``raise`` severity at the first violating cycle.

    Subclasses :class:`AssertionError` so existing
    ``assert_protocol_clean``-style callers and test harnesses catch
    it without change.
    """

    def __init__(self, violation):
        super().__init__(str(violation))
        self.violation = violation


class ProtocolViolation:
    """One structured rule violation.

    Attributes
    ----------
    time:
        Kernel time (ps) of the violating cycle.
    cycle:
        Index of the violating cycle, counted from the engine's first
        observed clock edge — the coordinate replay traces compare.
    rule:
        Rule id from the catalogue (e.g. ``"stall-stability"``).
    spec:
        AMBA rev 2.0 section reference, or ``None`` for custom rules.
    message:
        Human-readable description.
    snapshot:
        Committed signal values of the violating cycle (dict).
    """

    __slots__ = ("time", "cycle", "rule", "spec", "message", "snapshot")

    def __init__(self, time, cycle, rule, message, spec=None,
                 snapshot=None):
        self.time = time
        self.cycle = cycle
        self.rule = rule
        self.spec = spec
        self.message = message
        self.snapshot = snapshot or {}

    @property
    def mandatory(self):
        """True when the violated rule is a spec requirement."""
        return is_mandatory(self.rule)

    def to_dict(self):
        """JSON-friendly representation (used by replay traces)."""
        return {
            "time_ps": self.time,
            "cycle": self.cycle,
            "rule": self.rule,
            "spec": self.spec,
            "mandatory": self.mandatory,
            "message": self.message,
            "snapshot": dict(self.snapshot),
        }

    def __repr__(self):
        return "ProtocolViolation(t=%d, %s: %s)" % (
            self.time, self.rule, self.message,
        )


class ComplianceEngine(Module):
    """Runtime protocol-compliance monitor for one AHB bus.

    Parameters
    ----------
    bus:
        The :class:`~repro.amba.bus.AhbBus` to watch.
    severity:
        Global severity: ``"record"``, ``"warn"`` or ``"raise"``.
    severity_overrides:
        Optional ``rule id -> severity`` mapping taking precedence over
        the global severity for individual rules.
    advisory:
        Include the advisory liveness rules (wait-limit,
        retry-livelock, split-release).  The legacy
        :class:`~repro.amba.AhbProtocolChecker` facade disables them to
        keep its historical spec-requirements-only behaviour.
    wait_limit, retry_limit, split_limit:
        Thresholds of the advisory rules (``None`` disables one rule).
        Pick them *below* the watchdog's recovery timeouts so a
        campaign records which liveness bound a fault broke before the
        watchdog repairs it.
    rules:
        Explicit rule instances to use instead of the built-in
        catalogue (the two sets can be combined by passing
        ``mandatory_rules() + [MyRule()]``).
    """

    def __init__(self, sim, name, bus, severity="record",
                 severity_overrides=None, advisory=True, wait_limit=16,
                 retry_limit=4, split_limit=32, rules=None, parent=None):
        super().__init__(sim, name, parent=parent)
        if severity not in SEVERITIES:
            raise ValueError("unknown severity %r (one of %s)"
                             % (severity, ", ".join(SEVERITIES)))
        self.bus = bus
        self.severity = severity
        self.severity_overrides = dict(severity_overrides or {})
        for rule_id, level in self.severity_overrides.items():
            if level not in SEVERITIES:
                raise ValueError("unknown severity %r for rule %r"
                                 % (level, rule_id))
        if rules is None:
            rules = mandatory_rules()
            if advisory:
                rules += advisory_rules(wait_limit=wait_limit,
                                        retry_limit=retry_limit,
                                        split_limit=split_limit)
        self.rules = list(rules)
        #: The signals of a recorded row, in the column order of
        #: :mod:`repro.protocol.rules`; the row ends with the time stamp.
        self.columns = (
            (bus.htrans, bus.haddr, bus.hwrite, bus.hsize, bus.hburst,
             bus.hready, bus.hresp, bus.hmaster, bus.hmaster_d,
             bus.arbiter.split_mask, bus.s2m_mux.dactive)
            + tuple(port.hsel for port in bus.slave_ports)
            + (bus.default_slave_port.hsel,)
            + tuple(port.hgrant for port in bus.master_ports))
        #: Column of the first HGRANT.
        self._grant = SEL + len(bus.slave_ports) + 1

        #: Recorded :class:`ProtocolViolation` objects, in order.
        self.violations = []
        #: rule id -> violation count.
        self.rule_counts = {}
        self.cycles_checked = 0
        #: The last checked row and its cycle (``None`` before the
        #: first).
        self._prev = None
        self._prev_cycle = None
        self._warned = set()
        self.method(self._on_clk, [bus.clk.posedge], name="check",
                    initialize=False)

    # -- reporting -----------------------------------------------------

    @property
    def ok(self):
        """True when no violation (of any tier) has been recorded."""
        return not self.violations

    @property
    def mandatory_ok(self):
        """True when no *mandatory* (spec-requirement) rule fired —
        the bus traffic, including any watchdog recovery, was legal."""
        return not any(v.mandatory for v in self.violations)

    @property
    def first_violation(self):
        """The earliest recorded violation, or ``None``."""
        return self.violations[0] if self.violations else None

    def rules_tripped(self):
        """Rule ids that fired, in first-occurrence order."""
        seen = []
        for violation in self.violations:
            if violation.rule not in seen:
                seen.append(violation.rule)
        return tuple(seen)

    def raise_if_violations(self, limit=5):
        """Raise :class:`ProtocolComplianceError` summarising the first
        *limit* violations when any were recorded (post-run gate)."""
        if not self.violations:
            return
        first = self.violations[0]
        error = ProtocolComplianceError(first)
        error.args = (
            "protocol violations: %r" % (self.violations[:limit],),
        )
        raise error

    # -- per-cycle evaluation --------------------------------------------

    def _severity_for(self, rule_id):
        return self.severity_overrides.get(rule_id, self.severity)

    def _flag(self, rule_id, message, view):
        try:
            spec = rule_info(rule_id).spec
        except KeyError:
            spec = None
        violation = ProtocolViolation(
            view.time, view.cycle, rule_id, message, spec=spec,
            snapshot=view.snapshot(),
        )
        self.violations.append(violation)
        self.rule_counts[rule_id] = self.rule_counts.get(rule_id, 0) + 1
        severity = self._severity_for(rule_id)
        if severity == "raise":
            raise ProtocolComplianceError(violation)
        if severity == "warn" and rule_id not in self._warned:
            self._warned.add(rule_id)
            print("[%s] %r" % (self.name, violation), file=sys.stderr)

    def _view(self, row, cycle):
        return CycleView(row, cycle, self._grant)

    def _on_clk(self):
        self._check((*map(_VALUE, self.columns), self.sim.now))

    def _check(self, row):
        """Run every rule over one recorded *row* (the per-cycle
        reference; the batch replays rows through it when NumPy cannot
        hold their values)."""
        prev = self._prev
        has_prev = prev is not None
        cycle = self.cycles_checked
        self.cycles_checked = cycle + 1
        view = None
        for rule in self.rules:
            if isinstance(rule, RowRule):
                found = rule.scan(row, prev if has_prev else row,
                                  has_prev, self._grant)
            else:
                view = view or self._view(row, cycle)
                found = rule.check(
                    self._view(prev, self._prev_cycle) if has_prev
                    else None, view) or ()
            for rule_id, message in found:
                view = view or self._view(row, cycle)
                self._flag(rule_id, message, view)
        self._prev = row
        self._prev_cycle = cycle

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        """Engine + per-rule state.  Rule states are positional: the
        restored engine must have been built with the same rule list."""
        return {
            "violations": [v.to_dict() for v in self.violations],
            "rule_counts": dict(sorted(self.rule_counts.items())),
            "cycles_checked": self.cycles_checked,
            "prev": self._view(self._prev, self._prev_cycle).to_state()
            if self._prev is not None else None,
            "warned": sorted(self._warned),
            "rules": [rule.state_dict() for rule in self.rules],
        }

    def load_state_dict(self, state):
        self.violations = [
            ProtocolViolation(
                record["time_ps"], record["cycle"], record["rule"],
                record["message"], spec=record["spec"],
                snapshot=record["snapshot"],
            )
            for record in state["violations"]
        ]
        self.rule_counts = dict(state["rule_counts"])
        self.cycles_checked = state["cycles_checked"]
        prev = state["prev"]
        self._prev = prev and CycleView.row_of(prev)
        self._prev_cycle = prev and prev["cycle"]
        self._warned = set(state["warned"])
        rule_states = state["rules"]
        if len(rule_states) != len(self.rules):
            raise ValueError(
                "checkpoint has %d rule states, engine has %d rules"
                % (len(rule_states), len(self.rules)))
        for rule, rule_state in zip(self.rules, rule_states):
            rule.load_state_dict(rule_state)

    def __repr__(self):
        return "ComplianceEngine(%r, rules=%d, violations=%d)" % (
            self.name, len(self.rules), len(self.violations),
        )
