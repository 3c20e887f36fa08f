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

Every stock rule is written once, over the rows a compliance engine
records (one tuple of committed values per cycle, in the column order
below), and runs on one row of Python ints live and on a block's int64
columns in the batched replay (:mod:`repro.protocol.checker_batch`).
A custom rule implements :meth:`Rule.check` over :class:`CycleView`
objects instead and keeps the engine on its per-cycle path.
"""

from __future__ import annotations

from ..amba.types import (
    HRESP,
    HTRANS,
    hresp_of,
    htrans_of,
    is_active_code,
    next_burst_address,
)

#: Columns of a recorded row: the shared address/control and response
#: signals, the owners, the arbiter's split mask and the S2M mux's
#: ``dactive``; HSEL columns start at ``SEL``.
(TRANS, ADDR, WRITE, SIZE, BURST, READY, RESP, OWNER, OWNER_D, SPLIT,
 DACTIVE, SEL) = range(12)

#: The :class:`CycleView` slots of the columns before ``SEL``.
_LEADING = ("htrans", "haddr", "hwrite", "hsize", "hburst", "hready",
            "hresp", "hmaster", "hmaster_d", "split_mask", "dactive")

_IDLE = int(HTRANS.IDLE)
_BUSY = int(HTRANS.BUSY)
_NONSEQ = int(HTRANS.NONSEQ)
_SEQ = int(HTRANS.SEQ)
_RESP_OKAY = int(HRESP.OKAY)
_RESP_RETRY = int(HRESP.RETRY)


class CycleView:
    """Committed values of the bus-visible signals at one rising edge
    (the shared signals plus the arbitration and selection vectors):
    what a custom rule checks and a violation snapshots."""

    __slots__ = ("cycle", "time", "htrans", "haddr", "hwrite", "hsize",
                 "hburst", "hready", "hresp", "hmaster", "hmaster_d",
                 "hsels", "hgrants", "split_mask", "dactive")

    def __init__(self, row, cycle, grant):
        """The view of recorded *row*, checked as *cycle*; its HGRANT
        columns start at *grant*."""
        self.cycle = cycle
        for slot, value in zip(_LEADING, row):
            setattr(self, slot, value)
        self.hsels = row[SEL:grant]
        self.hgrants = row[grant:-1]
        self.time = row[-1]

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

    @staticmethod
    def row_of(state):
        """The recorded row of a :meth:`to_state` dump."""
        return (tuple(state[slot] for slot in _LEADING)
                + tuple(state["hsels"]) + tuple(state["hgrants"])
                + (state["time"],))


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
    """Base class of a per-cycle assertion monitor; a custom rule
    implements :meth:`check`.

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


class RowRule(Rule):
    """A stock rule, defined over recorded rows: *cur* is the checked
    row, *prev* the row before it (a stand-in where *has_prev* is
    false, on the first checked cycle) and *grant* the first HGRANT
    column.  The engine calls :meth:`scan` on every row it checks
    live."""

    def holds_live(self):
        """True while the rule's state makes a later row raise, so the
        replay must leave every row to the live engine."""
        return False


class RowPredicate(RowRule):
    """A stateless rule flagging one rule id.  ``hits(cur, prev,
    has_prev, grant)`` is one predicate, built from comparisons joined
    by ``&`` and ``|`` so that it means the same on a row and on a
    block's columns (``cur[TRANS]`` is then a whole column; ``has_prev
    == 0`` negates *has_prev* on both).  ``message(cur, prev, grant)``
    describes a hit from the recorded rows."""

    def scan(self, cur, prev, has_prev, grant):
        if self.hits(cur, prev, has_prev, grant):
            return ((self.emits[0], self.message(cur, prev, grant)),)
        return ()


class RowStep(RowRule):
    """A stateful rule.  ``step(cur, prev, has_prev)`` advances its
    private state over one recorded row tuple, in order, and yields
    ``(rule_id, message)`` per violation.  The replay hands it only the
    rows of the NumPy mask ``visits(cur, prev, has_prev)`` computes
    from the block's columns and the state before it; a row outside the
    mask must leave the state unchanged and emit nothing."""

    def scan(self, cur, prev, has_prev, grant):
        return self.step(cur, prev, has_prev)


def _active(trans):
    """HTRANS is NONSEQ or SEQ.  A Python code with no HTRANS member
    raises as ``HTRANS(code)`` does; a column holds only the codes the
    recorder's guard admits."""
    if isinstance(trans, int):
        return is_active_code(trans)
    return (trans == _NONSEQ) | (trans == _SEQ)


def _and_next(mask, carried):
    """The rows of *mask* and each row after one; row 0 too when the
    state *carried* into the block is not the rest state."""
    visit = mask.copy()
    visit[1:] |= mask[:-1]
    visit[:1] |= carried
    return visit


class SingleGrantRule(RowPredicate):
    """HGRANT one-hot across masters (§3.11.3): the single-grant
    invariant — the bus has exactly one owner every cycle."""

    emits = ("hgrant-one-hot",)

    def hits(self, cur, prev, has_prev, grant):
        return sum(value != 0 for value in cur[grant:-1]) != 1

    def message(self, cur, prev, grant):
        return "HGRANT vector %r is not one-hot" % (cur[grant:-1],)


class SingleSelectRule(RowPredicate):
    """HSEL one-hot across slaves including the default slave (§3.10)."""

    emits = ("hsel-one-hot",)

    def hits(self, cur, prev, has_prev, grant):
        return sum(value != 0 for value in cur[SEL:grant]) != 1

    def message(self, cur, prev, grant):
        return "HSEL vector %r is not one-hot" % (cur[SEL:grant],)


class AlignmentRule(RowPredicate):
    """Active transfers carry size-aligned addresses (§3.4)."""

    emits = ("alignment",)

    def hits(self, cur, prev, has_prev, grant):
        active = _active(cur[TRANS])
        # HSIZE is read only for an active transfer (a negative one
        # raises there, as in ``aligned``).
        offset = cur[ADDR] & ((1 << (cur[SIZE] * active)) - 1)
        return active & (offset != 0)

    def message(self, cur, prev, grant):
        return ("address %#x unaligned for HSIZE=%d"
                % (cur[ADDR], cur[SIZE]))


class TwoCycleResponseRule(RowPredicate):
    """Non-OKAY responses follow the two-cycle protocol (§3.9.3): the
    final (``HREADY=1``) response cycle must be preceded by at least
    one ``HREADY=0`` cycle carrying the same response."""

    emits = ("two-cycle-response",)

    def hits(self, cur, prev, has_prev, grant):
        resp = cur[RESP]
        return ((resp != _RESP_OKAY) & (cur[READY] != 0)
                & ((has_prev == 0) | (prev[READY] != 0)
                   | (prev[RESP] != resp)))

    def message(self, cur, prev, grant):
        return ("final %s cycle not preceded by a wait cycle with the "
                "same response" % hresp_of(cur[RESP]).name)


class StallStabilityRule(RowPredicate):
    """Address/control stable while the bus is stalled (§3.9.1), except
    for the spec-sanctioned cancel to IDLE during a non-OKAY response
    cycle (§3.9.3)."""

    emits = ("stall-stability",)

    def hits(self, cur, prev, has_prev, grant):
        changed = ((cur[TRANS] != prev[TRANS]) | (cur[ADDR] != prev[ADDR])
                   | (cur[WRITE] != prev[WRITE])
                   | (cur[SIZE] != prev[SIZE])
                   | (cur[BURST] != prev[BURST]))
        not_cancel = (cur[TRANS] != _IDLE) | (prev[RESP] == _RESP_OKAY)
        return has_prev & (prev[READY] == 0) & not_cancel & changed

    def message(self, cur, prev, grant):
        return ("address phase changed while HREADY low "
                "(HTRANS %d->%d, HADDR %#x->%#x)"
                % (prev[TRANS], cur[TRANS], prev[ADDR], cur[ADDR]))


class IdleResponseRule(RowPredicate):
    """An accepted IDLE transfer must receive a zero-wait OKAY response
    in its data phase (§3.9.1)."""

    emits = ("idle-okay",)

    def hits(self, cur, prev, has_prev, grant):
        return (has_prev & (prev[READY] != 0) & (prev[TRANS] == _IDLE)
                & ((cur[READY] == 0) | (cur[RESP] != _RESP_OKAY)))

    def message(self, cur, prev, grant):
        return ("IDLE transfer answered HREADY=%d/%s instead of a "
                "zero-wait OKAY" % (cur[READY], hresp_of(cur[RESP]).name))


class GrantHandoverRule(RowPredicate):
    """HTRANS legality per grant state (§3.11.1): the first address
    phase a master presents after taking bus ownership must be IDLE or
    NONSEQ — a burst never continues across an ownership change."""

    emits = ("grant-handover",)

    def hits(self, cur, prev, has_prev, grant):
        trans = cur[TRANS]
        return (has_prev & (prev[READY] != 0)
                & (cur[OWNER] != prev[OWNER])
                & ((trans == _SEQ) | (trans == _BUSY)))

    def message(self, cur, prev, grant):
        return ("new owner M%d drove %s in its first address phase"
                % (cur[OWNER], htrans_of(cur[TRANS]).name))


class BurstSequenceRule(RowStep):
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

    def holds_live(self):
        """An open burst whose stored HBURST or HSIZE its next SEQ
        beat raises on (left by a diverted row or a checkpoint)."""
        ctrl = self._burst_ctrl
        return self._in_burst and not (0 <= ctrl[2] <= 7 and ctrl[1] >= 0)

    def visits(self, cur, prev, has_prev):
        # Accepted rows; of a run of accepted IDLEs only the first can
        # change the state (it closes the burst).
        visit = has_prev & (prev[READY] != 0)
        accepted = visit.nonzero()[0]
        idle = cur[TRANS][accepted] == _IDLE
        visit[accepted[1:][idle[1:] & idle[:-1]]] = False
        return visit

    def step(self, cur, prev, has_prev):
        if not has_prev or not prev[READY]:
            return  # the previous address phase was not accepted
        kind = cur[TRANS]
        if kind == _NONSEQ:
            self._in_burst = True
            self._burst_addr = cur[ADDR]
            self._burst_ctrl = (cur[WRITE], cur[SIZE], cur[BURST],
                                cur[OWNER])
        elif kind == _SEQ:
            if not self._in_burst:
                yield ("seq-without-nonseq",
                       "SEQ transfer with no open burst")
                return
            ctrl = self._burst_ctrl
            expected = next_burst_address(self._burst_addr, ctrl[2],
                                          ctrl[1])
            if cur[ADDR] != expected:
                yield ("burst-address",
                       "SEQ address %#x, expected %#x"
                       % (cur[ADDR], expected))
            beat = (cur[WRITE], cur[SIZE], cur[BURST], cur[OWNER])
            if beat != ctrl:
                yield ("burst-control",
                       "control changed mid-burst: %r -> %r"
                       % (ctrl, beat))
            self._burst_addr = cur[ADDR]
        elif kind == _BUSY:
            if not self._in_burst:
                yield ("busy-outside-burst",
                       "BUSY transfer with no open burst")
        else:
            htrans_of(kind)  # a code with no HTRANS member raises here
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


class WaitLimitRule(RowStep):
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

    def visits(self, cur, prev, has_prev):
        # Stalled rows, and the ready row that ends a streak.
        return _and_next(cur[READY] == 0, self._streak != 0)

    def step(self, cur, prev, has_prev):
        if cur[READY]:
            self._streak = 0
            return
        self._streak += 1
        if self._streak == self.limit + 1:
            yield ("wait-limit",
                   "HREADY low for more than %d consecutive cycles "
                   "(data-phase owner M%d)" % (self.limit, cur[OWNER_D]))

    def state_dict(self):
        return {"streak": self._streak}

    def load_state_dict(self, state):
        self._streak = state["streak"]


class RetryLivelockRule(RowStep):
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

    def visits(self, cur, prev, has_prev):
        # Completions that can change a count: every RETRY, and per
        # master its first completion of the block and each one after
        # a RETRY (any other sets a count that is already 0).
        done = (cur[READY] != 0) & (cur[DACTIVE] != 0)
        retry = done & (cur[RESP] == _RESP_RETRY)
        visit = retry.copy()
        owners = cur[OWNER_D]
        for owner in set(owners[done].tolist()):
            rows = (done & (owners == owner)).nonzero()[0]
            visit[rows[0]] = True
            visit[rows[1:]] |= retry[rows[:-1]]
        return visit

    def step(self, cur, prev, has_prev):
        if not cur[READY] or not cur[DACTIVE]:
            # No data phase completed this cycle; the streak holds.
            return
        owner = cur[OWNER_D]
        if cur[RESP] == _RESP_RETRY:
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


class SplitReleaseRule(RowStep):
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

    def visits(self, cur, prev, has_prev):
        # Rows with a split-masked master, and the row releasing them.
        return _and_next(cur[SPLIT] != 0, bool(self._ages))

    def step(self, cur, prev, has_prev):
        mask = cur[SPLIT]
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
