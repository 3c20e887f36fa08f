"""The AHB compliance rule catalogue.

Each rule is a per-cycle assertion monitor over the *committed* shared
bus signals, checking one machine-verifiable guarantee of the AMBA spec
rev 2.0 (ARM IHI 0011A) — the same class of properties "Synthesis of
AMBA AHB from Formal Specification" (Godhal, Chatterjee, Henzinger)
states as LTL guarantees.  Rules come in two tiers:

**mandatory** — spec *requirements*; a violation means the bus traffic
is illegal and any conclusion drawn from the power model is void:

========================  =======  ==========================================
rule id                   spec     guarantee
========================  =======  ==========================================
``hgrant-one-hot``        §3.11.3  exactly one master is granted per cycle
``hsel-one-hot``          §3.10    exactly one slave (incl. default) selected
``alignment``             §3.4     beat addresses aligned to ``HSIZE``
``stall-stability``       §3.9.1   address phase held while ``HREADY`` low
``two-cycle-response``    §3.9.3   ERROR/RETRY/SPLIT take two cycles, the
                                   first with ``HREADY`` low
``idle-okay``             §3.9.1   an IDLE transfer gets a zero-wait OKAY
``grant-handover``        §3.11.1  a new bus owner starts IDLE or NONSEQ,
                                   never SEQ/BUSY
``seq-without-nonseq``    §3.5     a burst opens with NONSEQ
``burst-address``         §3.5.4   SEQ beats carry the architected address
``burst-control``         §3.5.1   control signals constant within a burst
``busy-outside-burst``    §3.4     BUSY only appears inside an open burst
========================  =======  ==========================================

**advisory** — spec recommendations and liveness bounds; individually
every cycle is legal but the unbounded repetition marks a sick system
(the pathologies :mod:`repro.faults.modes` injects):

========================  =======  ==========================================
``wait-limit``            §3.9.1   slaves should insert at most N wait
                                   states (spec recommends 16)
``retry-livelock``        §3.9.3   bounded consecutive RETRYs per master
``split-release``         §3.12    a SPLIT master is eventually released
========================  =======  ==========================================

Rules are stateless where possible; stateful ones (burst tracking,
streak counters) keep their state private and expose ``reset()``.
Every rule's ``check(prev, view)`` receives the previous and current
:class:`CycleView` and yields ``(rule_id, message)`` pairs.
"""

from __future__ import annotations

from ..amba.types import (
    HRESP,
    HTRANS,
    aligned,
    hburst_of,
    hresp_of,
    htrans_of,
    is_active_code,
    next_burst_address,
)

# Codes and members the per-cycle checks compare against (a member
# looked up on the enum class costs more than a module global).
_TRANS_IDLE = int(HTRANS.IDLE)
_TRANS_CONTINUE = (int(HTRANS.SEQ), int(HTRANS.BUSY))
_RESP_OKAY = int(HRESP.OKAY)
_RESP_RETRY = int(HRESP.RETRY)
_NONSEQ = HTRANS.NONSEQ
_SEQ = HTRANS.SEQ
_BUSY = HTRANS.BUSY


class CycleView:
    """Committed values of the bus-visible signals at one rising edge.

    Includes the shared (multiplexed) signals plus the arbitration and
    selection vectors the one-hot and liveness rules need.
    """

    __slots__ = ("cycle", "time", "htrans", "haddr", "hwrite", "hsize",
                 "hburst", "hready", "hresp", "hmaster", "hmaster_d",
                 "hsels", "hgrants", "split_mask", "dactive")

    def __init__(self, bus, cycle, time):
        self.cycle = cycle
        self.time = time
        self.htrans = bus.htrans._value
        self.haddr = bus.haddr._value
        self.hwrite = bus.hwrite._value
        self.hsize = bus.hsize._value
        self.hburst = bus.hburst._value
        self.hready = bus.hready._value
        self.hresp = bus.hresp._value
        self.hmaster = bus.hmaster._value
        self.hmaster_d = bus.hmaster_d._value
        self.hsels = tuple(port.hsel._value for port in bus.slave_ports) \
            + (bus.default_slave_port.hsel._value,)
        self.hgrants = tuple(port.hgrant._value
                             for port in bus.master_ports)
        self.split_mask = bus.arbiter.split_mask._value
        self.dactive = bus.s2m_mux.dactive._value

    def snapshot(self):
        """JSON-friendly dict of the signal values this cycle."""
        return {
            "cycle": self.cycle,
            "time_ps": self.time,
            "HTRANS": self.htrans,
            "HADDR": self.haddr,
            "HWRITE": self.hwrite,
            "HSIZE": self.hsize,
            "HBURST": self.hburst,
            "HREADY": self.hready,
            "HRESP": self.hresp,
            "HMASTER": self.hmaster,
            "HMASTER_D": self.hmaster_d,
            "HSEL": list(self.hsels),
            "HGRANT": list(self.hgrants),
            "split_mask": self.split_mask,
        }

    def to_state(self):
        """Full slot dump for checkpointing (a superset of
        :meth:`snapshot`: includes ``dactive``, which the liveness
        rules consult)."""
        state = {slot: getattr(self, slot) for slot in self.__slots__}
        state["hsels"] = list(self.hsels)
        state["hgrants"] = list(self.hgrants)
        return state

    @classmethod
    def from_state(cls, state):
        """Rebuild a view from :meth:`to_state` output without a bus."""
        view = cls.__new__(cls)
        for slot in cls.__slots__:
            value = state[slot]
            if slot in ("hsels", "hgrants"):
                value = tuple(value)
            setattr(view, slot, value)
        return view


class RuleInfo:
    """Catalogue entry: identity and provenance of one rule id."""

    __slots__ = ("rule_id", "spec", "mandatory", "summary")

    def __init__(self, rule_id, spec, mandatory, summary):
        self.rule_id = rule_id
        self.spec = spec
        self.mandatory = mandatory
        self.summary = summary

    def __repr__(self):
        tier = "mandatory" if self.mandatory else "advisory"
        return "RuleInfo(%s, %s, %s)" % (self.rule_id, self.spec, tier)


#: rule id -> :class:`RuleInfo`, the authoritative catalogue.
CATALOGUE = {info.rule_id: info for info in (
    RuleInfo("hgrant-one-hot", "§3.11.3", True,
             "exactly one master granted per cycle"),
    RuleInfo("hsel-one-hot", "§3.10", True,
             "exactly one slave (incl. default) selected per cycle"),
    RuleInfo("alignment", "§3.4", True,
             "beat address aligned to the transfer size"),
    RuleInfo("stall-stability", "§3.9.1", True,
             "address phase held while HREADY is low"),
    RuleInfo("two-cycle-response", "§3.9.3", True,
             "non-OKAY responses take two cycles, the first with "
             "HREADY low"),
    RuleInfo("idle-okay", "§3.9.1", True,
             "IDLE transfers receive a zero-wait OKAY response"),
    RuleInfo("grant-handover", "§3.11.1", True,
             "a newly granted master starts IDLE or NONSEQ"),
    RuleInfo("seq-without-nonseq", "§3.5", True,
             "a burst opens with a NONSEQ transfer"),
    RuleInfo("burst-address", "§3.5.4", True,
             "SEQ beats carry the architected next address"),
    RuleInfo("burst-control", "§3.5.1", True,
             "control signals unchanged within a burst"),
    RuleInfo("busy-outside-burst", "§3.4", True,
             "BUSY appears only inside an open burst"),
    RuleInfo("wait-limit", "§3.9.1", False,
             "slaves insert a bounded number of wait states"),
    RuleInfo("retry-livelock", "§3.9.3", False,
             "bounded consecutive RETRY completions per master"),
    RuleInfo("split-release", "§3.12", False,
             "a split-masked master is eventually released"),
)}


def rule_info(rule_id):
    """Return the :class:`RuleInfo` for *rule_id* (KeyError if unknown)."""
    return CATALOGUE[rule_id]


def is_mandatory(rule_id):
    """True when *rule_id* is a spec requirement (not advisory).

    Unknown ids count as mandatory so user-registered custom rules
    fail safe.
    """
    info = CATALOGUE.get(rule_id)
    return True if info is None else info.mandatory


class Rule:
    """Base class of a per-cycle assertion monitor.

    ``emits`` names every rule id the monitor can flag (one monitor may
    guard several related catalogue entries, e.g. burst sequencing).
    """

    emits = ()

    def reset(self):
        """Discard accumulated state (new run on the same engine)."""

    def state_dict(self):
        """Checkpointable private state (empty for stateless rules)."""
        return {}

    def load_state_dict(self, state):
        """Restore :meth:`state_dict` output (no-op when stateless)."""

    def check(self, prev, view):  # pragma: no cover - interface
        """Yield ``(rule_id, message)`` for every violation this cycle.

        *prev* is the previous :class:`CycleView` (``None`` on the
        first checked cycle); *view* is the current one.
        """
        raise NotImplementedError


class SingleGrantRule(Rule):
    """HGRANT one-hot across masters (§3.11.3): the single-grant
    invariant — the bus has exactly one owner every cycle."""

    emits = ("hgrant-one-hot",)

    def check(self, prev, view):
        if sum(1 for grant in view.hgrants if grant) != 1:
            yield ("hgrant-one-hot",
                   "HGRANT vector %r is not one-hot" % (view.hgrants,))


class SingleSelectRule(Rule):
    """HSEL one-hot across slaves including the default slave (§3.10)."""

    emits = ("hsel-one-hot",)

    def check(self, prev, view):
        if sum(1 for sel in view.hsels if sel) != 1:
            yield ("hsel-one-hot",
                   "HSEL vector %r is not one-hot" % (view.hsels,))


class AlignmentRule(Rule):
    """Active transfers carry size-aligned addresses (§3.4)."""

    emits = ("alignment",)

    def check(self, prev, view):
        if is_active_code(view.htrans) and \
                not aligned(view.haddr, view.hsize):
            yield ("alignment",
                   "address %#x unaligned for HSIZE=%d"
                   % (view.haddr, view.hsize))


class TwoCycleResponseRule(Rule):
    """Non-OKAY responses follow the two-cycle protocol (§3.9.3): the
    final (``HREADY=1``) response cycle must be preceded by at least
    one ``HREADY=0`` cycle carrying the same response."""

    emits = ("two-cycle-response",)

    def check(self, prev, view):
        if view.hresp == _RESP_OKAY or not view.hready:
            return
        if prev is None or prev.hready or prev.hresp != view.hresp:
            yield ("two-cycle-response",
                   "final %s cycle not preceded by a wait cycle with "
                   "the same response" % hresp_of(view.hresp).name)


class StallStabilityRule(Rule):
    """Address/control stable while the bus is stalled (§3.9.1), except
    for the spec-sanctioned cancel to IDLE during a non-OKAY response
    cycle (§3.9.3)."""

    emits = ("stall-stability",)

    def check(self, prev, view):
        if prev is None or prev.hready:
            return
        cancelled = (view.htrans == _TRANS_IDLE
                     and prev.hresp != _RESP_OKAY)
        if cancelled:
            return
        held = (view.htrans == prev.htrans and view.haddr == prev.haddr
                and view.hwrite == prev.hwrite
                and view.hsize == prev.hsize
                and view.hburst == prev.hburst)
        if not held:
            yield ("stall-stability",
                   "address phase changed while HREADY low "
                   "(HTRANS %d->%d, HADDR %#x->%#x)"
                   % (prev.htrans, view.htrans, prev.haddr, view.haddr))


class IdleResponseRule(Rule):
    """An accepted IDLE transfer must receive a zero-wait OKAY response
    in its data phase (§3.9.1)."""

    emits = ("idle-okay",)

    def check(self, prev, view):
        if prev is None or not prev.hready:
            return
        if prev.htrans != _TRANS_IDLE:
            return
        if not view.hready or view.hresp != _RESP_OKAY:
            yield ("idle-okay",
                   "IDLE transfer answered HREADY=%d/%s instead of a "
                   "zero-wait OKAY"
                   % (view.hready, hresp_of(view.hresp).name))


class GrantHandoverRule(Rule):
    """HTRANS legality per grant state (§3.11.1): the first address
    phase a master presents after taking bus ownership must be IDLE or
    NONSEQ — a burst never continues across an ownership change."""

    emits = ("grant-handover",)

    def check(self, prev, view):
        if prev is None or not prev.hready:
            return
        if view.hmaster == prev.hmaster:
            return
        if view.htrans in _TRANS_CONTINUE:
            yield ("grant-handover",
                   "new owner M%d drove %s in its first address phase"
                   % (view.hmaster, htrans_of(view.htrans).name))


class BurstSequenceRule(Rule):
    """Burst structure across accepted address phases (§3.5): NONSEQ
    opens a burst; SEQ beats carry the architected next address with
    unchanged control; BUSY only appears inside an open burst."""

    emits = ("seq-without-nonseq", "burst-address", "burst-control",
             "busy-outside-burst")

    def __init__(self):
        self.reset()

    def reset(self):
        self._in_burst = False
        self._burst_addr = None
        self._burst_ctrl = None

    def check(self, prev, view):
        if prev is None or not prev.hready:
            return  # the previous address phase was not accepted
        htrans = htrans_of(view.htrans)
        if htrans == _NONSEQ:
            self._in_burst = True
            self._burst_addr = view.haddr
            self._burst_ctrl = (view.hwrite, view.hsize, view.hburst,
                                view.hmaster)
        elif htrans == _SEQ:
            if not self._in_burst:
                yield ("seq-without-nonseq",
                       "SEQ transfer with no open burst")
                return
            expected = next_burst_address(
                self._burst_addr, hburst_of(self._burst_ctrl[2]),
                self._burst_ctrl[1],
            )
            if view.haddr != expected:
                yield ("burst-address",
                       "SEQ address %#x, expected %#x"
                       % (view.haddr, expected))
            ctrl = (view.hwrite, view.hsize, view.hburst, view.hmaster)
            if ctrl != self._burst_ctrl:
                yield ("burst-control",
                       "control changed mid-burst: %r -> %r"
                       % (self._burst_ctrl, ctrl))
            self._burst_addr = view.haddr
        elif htrans == _BUSY:
            if not self._in_burst:
                yield ("busy-outside-burst",
                       "BUSY transfer with no open burst")
        else:  # IDLE
            self._in_burst = False

    def state_dict(self):
        return {
            "in_burst": self._in_burst,
            "burst_addr": self._burst_addr,
            "burst_ctrl": list(self._burst_ctrl)
            if self._burst_ctrl is not None else None,
        }

    def load_state_dict(self, state):
        self._in_burst = state["in_burst"]
        self._burst_addr = state["burst_addr"]
        ctrl = state["burst_ctrl"]
        self._burst_ctrl = tuple(ctrl) if ctrl is not None else None


class WaitLimitRule(Rule):
    """Bounded wait-state runs (§3.9.1 recommends at most 16).

    Flags once per stall episode, when the run of consecutive
    ``HREADY=0`` cycles first exceeds *limit*.
    """

    emits = ("wait-limit",)

    def __init__(self, limit=16):
        self.limit = int(limit)
        self.reset()

    def reset(self):
        self._streak = 0

    def check(self, prev, view):
        if view.hready:
            self._streak = 0
            return
        self._streak += 1
        if self._streak == self.limit + 1:
            yield ("wait-limit",
                   "HREADY low for more than %d consecutive cycles "
                   "(data-phase owner M%d)"
                   % (self.limit, view.hmaster_d))

    def state_dict(self):
        return {"streak": self._streak}

    def load_state_dict(self, state):
        self._streak = state["streak"]


class RetryLivelockRule(Rule):
    """Bounded consecutive RETRY completions per master (§3.9.3 makes
    unbounded retrying legal — which is exactly why a livelock needs a
    monitor).  Flags once per streak when it first exceeds *limit*.
    """

    emits = ("retry-livelock",)

    def __init__(self, limit=4):
        self.limit = int(limit)
        self.reset()

    def reset(self):
        self._counts = {}

    def check(self, prev, view):
        if not view.hready or not view.dactive:
            # No data phase completed this cycle; the streak holds.
            return
        owner = view.hmaster_d
        if view.hresp == _RESP_RETRY:
            count = self._counts.get(owner, 0) + 1
            self._counts[owner] = count
            if count == self.limit + 1:
                yield ("retry-livelock",
                       "master M%d saw more than %d consecutive RETRY "
                       "completions" % (owner, self.limit))
        else:
            self._counts[owner] = 0

    def state_dict(self):
        return {"counts": {str(owner): count for owner, count
                           in sorted(self._counts.items())}}

    def load_state_dict(self, state):
        self._counts = {int(owner): count for owner, count
                        in state["counts"].items()}


class SplitReleaseRule(Rule):
    """A split-masked master must eventually be released (§3.12).

    Flags once per parked episode, when a master has sat in the
    arbiter's split mask for more than *limit* cycles.
    """

    emits = ("split-release",)

    def __init__(self, limit=32):
        self.limit = int(limit)
        self.reset()

    def reset(self):
        self._ages = {}

    def check(self, prev, view):
        mask = view.split_mask
        for index in list(self._ages):
            if not (mask >> index) & 1:
                del self._ages[index]
        bit = 0
        while mask >> bit:
            if (mask >> bit) & 1:
                age = self._ages.get(bit, 0) + 1
                self._ages[bit] = age
                if age == self.limit + 1:
                    yield ("split-release",
                           "master M%d split-masked for more than %d "
                           "cycles" % (bit, self.limit))
            bit += 1

    def state_dict(self):
        return {"ages": {str(bit): age for bit, age
                         in sorted(self._ages.items())}}

    def load_state_dict(self, state):
        self._ages = {int(bit): age for bit, age
                      in state["ages"].items()}


def mandatory_rules():
    """Fresh instances of every mandatory (spec-requirement) rule."""
    return [
        SingleGrantRule(),
        SingleSelectRule(),
        AlignmentRule(),
        TwoCycleResponseRule(),
        StallStabilityRule(),
        IdleResponseRule(),
        GrantHandoverRule(),
        BurstSequenceRule(),
    ]


def advisory_rules(wait_limit=16, retry_limit=4, split_limit=32):
    """Fresh instances of the advisory (liveness-bound) rules.

    Any limit passed as ``None`` disables that rule.
    """
    rules = []
    if wait_limit is not None:
        rules.append(WaitLimitRule(wait_limit))
    if retry_limit is not None:
        rules.append(RetryLivelockRule(retry_limit))
    if split_limit is not None:
        rules.append(SplitReleaseRule(split_limit))
    return rules
