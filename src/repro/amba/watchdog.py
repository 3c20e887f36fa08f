"""AHB bus watchdog.

A passive monitor that watches the shared bus signals for *liveness*
hazards the protocol checker cannot see (every individual cycle of a
hung slave is spec-legal — the pathology is the unbounded repetition):

* ``HREADY`` held low for more than ``hready_timeout`` consecutive
  cycles — a hung / never-ready slave stalling the whole bus;
* more than ``retry_budget`` consecutive RETRY completions against the
  same master — a retry storm livelocking that master;
* a SPLIT that is never released: a master parked in the arbiter's
  split mask for more than ``split_timeout`` cycles.

Each detection records a :class:`WatchdogEvent` (mirroring the
protocol checker's violation list) and bumps a counter.  With
``recover=True`` the watchdog also breaks the deadlock:

* a bus stall is cut off by forcing the two-cycle ERROR response via
  the slave-to-master multiplexer's default-slave path
  (:meth:`~repro.amba.mux.SlaveToMasterMux.force_error`), which the
  offending master completes as a failed transaction;
* a retry storm is ended by aborting the retried transaction on the
  issuing master (:meth:`~repro.amba.master.AhbMaster.abort_current`);
* an unreleased SPLIT is recovered by forcibly clearing the master
  from the arbiter's split mask and aborting the split transaction.

All recovery paths keep the bus protocol-clean: the forced ERROR
follows the two-cycle response rule and masters cancel to IDLE exactly
as for a real slave ERROR, so a protocol checker attached to the same
bus records no violations during recovery.
"""

from __future__ import annotations

from ..kernel import Module
from .types import HRESP

#: The RETRY code the retry-storm check compares the bus against.
_RESP_RETRY = int(HRESP.RETRY)


class WatchdogEvent:
    """One recorded liveness hazard."""

    __slots__ = ("time", "rule", "message", "recovered")

    def __init__(self, time, rule, message, recovered=False):
        self.time = time
        self.rule = rule
        self.message = message
        self.recovered = recovered

    def __repr__(self):
        return "WatchdogEvent(t=%d, %s%s: %s)" % (
            self.time, self.rule,
            " [recovered]" if self.recovered else "", self.message,
        )


class AhbWatchdog(Module):
    """Passive liveness monitor with optional active recovery.

    Parameters
    ----------
    bus:
        The :class:`~repro.amba.bus.AhbBus` to watch.
    masters:
        The active :class:`~repro.amba.master.AhbMaster` instances,
        indexed by their master-port number (a list covering ports
        0..n-1, or a dict ``port index -> master``).  Needed for the
        abort-based recoveries; detection works without it.
    hready_timeout:
        Consecutive ``HREADY=0`` cycles tolerated before a stall is
        flagged.  Must exceed the largest legitimate wait-state run.
    retry_budget:
        Consecutive RETRY completions against one master tolerated
        before a retry storm is flagged.
    split_timeout:
        Cycles a master may sit in the arbiter's split mask before the
        SPLIT counts as never-released.
    recover:
        When ``True``, trigger the corresponding recovery action
        (forced ERROR / abort / split release) instead of only
        recording the event.
    """

    def __init__(self, sim, name, bus, masters=(), hready_timeout=16,
                 retry_budget=16, split_timeout=64, recover=True,
                 parent=None):
        super().__init__(sim, name, parent=parent)
        self.bus = bus
        if isinstance(masters, dict):
            self.masters = dict(masters)
        else:
            self.masters = {index: master
                            for index, master in enumerate(masters)}
        self.hready_timeout = int(hready_timeout)
        self.retry_budget = int(retry_budget)
        self.split_timeout = int(split_timeout)
        self.recover = recover

        #: Recorded events, like the protocol checker's violations.
        self.events = []
        #: Detection counters.
        self.stall_events = 0
        self.retry_storms = 0
        self.split_timeouts = 0
        #: Successful recovery actions taken.
        self.recoveries = 0
        self.cycles_watched = 0

        self._stall_streak = 0
        self._retry_counts = {}
        self._split_age = {}
        self._split_flagged = set()

        self.method(self._on_clk, [bus.clk.posedge], name="watch",
                    initialize=False)

    # -- reporting -----------------------------------------------------

    @property
    def ok(self):
        """True when no liveness hazard has been recorded."""
        return not self.events

    def _record(self, rule, message, recovered=False):
        event = WatchdogEvent(self.sim.now, rule, message, recovered)
        self.events.append(event)
        return event

    # -- per-cycle checks -----------------------------------------------

    def _on_clk(self):
        self.cycles_watched += 1
        self._check_stall()
        self._check_retries()
        self._check_splits()

    def _check_stall(self):
        if self.bus.hready._value:
            self._stall_streak = 0
            return
        self._stall_streak += 1
        if self._stall_streak < self.hready_timeout:
            return
        self._stall_streak = 0
        self.stall_events += 1
        recovered = False
        if self.recover:
            recovered = self.bus.s2m_mux.force_error()
            if recovered:
                self.recoveries += 1
        self._record(
            "hready-stall",
            "HREADY low for %d cycles (data-phase owner M%d)"
            % (self.hready_timeout, self.bus.hmaster_d._value),
            recovered,
        )

    def _check_retries(self):
        bus = self.bus
        if not bus.hready._value:
            return
        if not bus.s2m_mux.dactive._value:
            # No data phase completed this cycle (address re-issue,
            # backoff or idle cycles): neither a RETRY completion nor
            # evidence the storm broke, so the count must hold.
            return
        owner = bus.hmaster_d._value
        if bus.hresp._value == _RESP_RETRY:
            count = self._retry_counts.get(owner, 0) + 1
            self._retry_counts[owner] = count
            if count <= self.retry_budget:
                return
            self._retry_counts[owner] = 0
            self.retry_storms += 1
            recovered = self._abort_master(
                owner, "watchdog: %d consecutive RETRYs" % count)
            if recovered:
                self.recoveries += 1
            self._record(
                "retry-storm",
                "master M%d saw %d consecutive RETRY completions"
                % (owner, count),
                recovered,
            )
        else:
            self._retry_counts[owner] = 0

    def _check_splits(self):
        mask = self.bus.arbiter.split_mask._value
        for index in list(self._split_age):
            if not (mask >> index) & 1:
                del self._split_age[index]
                self._split_flagged.discard(index)
        bit = 0
        while mask >> bit:
            if (mask >> bit) & 1:
                age = self._split_age.get(bit, 0) + 1
                self._split_age[bit] = age
                if age > self.split_timeout and \
                        bit not in self._split_flagged:
                    self._split_flagged.add(bit)
                    self.split_timeouts += 1
                    recovered = False
                    if self.recover:
                        self.bus.arbiter.release_split(bit)
                        self._abort_master(
                            bit, "watchdog: SPLIT never released")
                        self.recoveries += 1
                        recovered = True
                    self._record(
                        "split-unreleased",
                        "master M%d split-masked for %d cycles"
                        % (bit, age),
                        recovered,
                    )
            bit += 1

    def _abort_master(self, index, reason):
        """Abort the in-flight transaction of master *index*."""
        if not self.recover:
            return False
        master = self.masters.get(index)
        abort = getattr(master, "abort_current", None)
        if abort is None:
            # Unregistered master, or one without abort support (e.g.
            # the default master): detection only.
            return False
        return abort(reason) is not None

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        return {
            "events": [
                [event.time, event.rule, event.message, event.recovered]
                for event in self.events
            ],
            "stall_events": self.stall_events,
            "retry_storms": self.retry_storms,
            "split_timeouts": self.split_timeouts,
            "recoveries": self.recoveries,
            "cycles_watched": self.cycles_watched,
            "stall_streak": self._stall_streak,
            "retry_counts": {str(owner): count for owner, count
                             in sorted(self._retry_counts.items())},
            "split_age": {str(bit): age for bit, age
                          in sorted(self._split_age.items())},
            "split_flagged": sorted(self._split_flagged),
        }

    def load_state_dict(self, state):
        self.events = [
            WatchdogEvent(time, rule, message, recovered)
            for time, rule, message, recovered in state["events"]
        ]
        self.stall_events = state["stall_events"]
        self.retry_storms = state["retry_storms"]
        self.split_timeouts = state["split_timeouts"]
        self.recoveries = state["recoveries"]
        self.cycles_watched = state["cycles_watched"]
        self._stall_streak = state["stall_streak"]
        self._retry_counts = {int(owner): count for owner, count
                              in state["retry_counts"].items()}
        self._split_age = {int(bit): age for bit, age
                           in state["split_age"].items()}
        self._split_flagged = set(state["split_flagged"])
