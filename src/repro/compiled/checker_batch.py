"""Batched evaluation of the compliance rules on the compiled engine.

The :class:`~repro.protocol.ComplianceEngine` runs its rule catalogue
in Python on every rising edge.  In compiled mode, when every effective
severity is ``record``, the engine is one consumer of the shared
record/replay protocol (:mod:`repro.compiled.rowbatch`): its recorder
appends one tuple of the committed values
:class:`~repro.protocol.CycleView` reads (HTRANS, HADDR, HWRITE,
HSIZE, HBURST, HREADY, HRESP, HMASTER, HMASTER_D, every HSEL, every
HGRANT, ``split_mask``, ``dactive`` and ``sim.now``), and a flush
evaluates the rules over the buffered rows.  This module keeps only
what is the checker's own: those columns and guards, the per-run
eligibility check and the rule evaluators.

The contract is identity with the per-cycle engine: the same
violations (rule id, cycle, time, message, spec, snapshot) in the same
order — by row, then by the rule's position in ``engine.rules``, then
by emission order within the rule — and, after a flush, the same
``rule_counts``, ``cycles_checked``, ``_prev`` and per-rule state.

* stateless rules are NumPy masks over the current row and the
  previous one (row 0's previous row is the engine's stored ``_prev``);
* stateful rules (burst sequencing, wait, retry and split bounds) are
  in-order loops over plain ints that visit only the rows that can
  change their state;
* messages and snapshots are built from the recorded Python values,
  never from NumPy scalars;
* rows the live rules would raise on (HTRANS or HRESP outside 0..3,
  HBURST outside 0..7, HSIZE outside 0..62, which NumPy shifts cannot
  hold) run the live method, and so does every row while a burst is
  open with control values such a row left behind;
* a block holding a value beyond int64 is replayed through
  :meth:`ComplianceEngine._check`, the per-cycle reference itself.
"""

from __future__ import annotations

from itertools import chain as _chain
from operator import itemgetter as _itemgetter

from ..amba.checker import AhbProtocolChecker
from ..amba.types import HBURST, HRESP, HTRANS, next_burst_address
from ..protocol import ComplianceEngine, CycleView
from ..protocol.rules import (
    AlignmentRule,
    BurstSequenceRule,
    GrantHandoverRule,
    IdleResponseRule,
    RetryLivelockRule,
    SingleGrantRule,
    SingleSelectRule,
    SplitReleaseRule,
    StallStabilityRule,
    TwoCycleResponseRule,
    WaitLimitRule,
)
from .rowbatch import RowBatch, _np

#: Leading columns of a recorded row; HSEL, HGRANT, split mask,
#: dactive and the time stamp follow.
(_TRANS, _ADDR, _WRITE, _SIZE, _BURST, _READY, _RESP, _OWNER,
 _OWNER_D) = range(9)

#: Largest HSIZE whose byte mask a NumPy int64 shift can build.
_MAX_SIZE = 62


class CheckerBatch(RowBatch):
    """Recorder + block evaluator for one :class:`ComplianceEngine`
    (or the :class:`AhbProtocolChecker` facade, which only maps
    ``strict`` onto the severity)."""

    live_function = ComplianceEngine._on_clk
    owner_types = (ComplianceEngine, AhbProtocolChecker)
    holds_live = True

    def __init__(self, live):
        bus = live.__self__.bus
        signals = (
            (bus.htrans, bus.haddr, bus.hwrite, bus.hsize, bus.hburst,
             bus.hready, bus.hresp, bus.hmaster, bus.hmaster_d)
            + tuple(port.hsel for port in bus.slave_ports)
            + (bus.default_slave_port.hsel,)
            + tuple(port.hgrant for port in bus.master_ports)
            + (bus.arbiter.split_mask, bus.s2m_mux.dactive))
        self._sel = 9
        self._grant = self._sel + len(bus.slave_ports) + 1
        self._split = self._grant + len(bus.master_ports)
        # Codes the live rules raise on, and sizes NumPy shifts cannot
        # hold; rows end with the time stamp.
        super().__init__(live, signals, (
            (_TRANS, 0, 3), (_RESP, 0, 3), (_BURST, 0, 7),
            (_SIZE, 0, _MAX_SIZE)), stamp=live.__self__.sim)

    # -- eligibility ---------------------------------------------------

    def eligible(self):
        """Per-run check: every effective severity is ``record`` and
        every rule is a distinct instance of a stock catalogue class
        (a rule listed twice interleaves its state cycle by cycle)."""
        engine = self.owner
        if len({id(rule) for rule in engine.rules}) != len(engine.rules):
            return False
        for rule in engine.rules:
            if type(rule) not in _EVALUATORS:
                return False
            for rule_id in rule.emits:
                if engine._severity_for(rule_id) != "record":
                    return False
        self._live_only[0] = self._burst_poisoned()
        return True

    def _burst_poisoned(self):
        """True when a burst is open with control values the live
        rule raises on at its next SEQ beat (left by a diverted row
        or a restored checkpoint)."""
        for rule in self.owner.rules:
            if type(rule) is BurstSequenceRule and rule._in_burst:
                ctrl = rule._burst_ctrl
                if not (0 <= ctrl[2] <= 7 and ctrl[1] >= 0):
                    return True
        return False

    def _divert(self):
        super()._divert()
        self._live_only[0] = self._burst_poisoned()

    # -- evaluation ----------------------------------------------------

    def _replay(self, row):
        engine = self.owner
        engine._check(self._view(row, engine.cycles_checked))

    def _view(self, row, cycle):
        """The :class:`CycleView` the live engine builds for *row*."""
        sel, grant, split = self._sel, self._grant, self._split
        return CycleView.from_state({
            "cycle": cycle, "time": row[-1],
            "htrans": row[_TRANS], "haddr": row[_ADDR],
            "hwrite": row[_WRITE], "hsize": row[_SIZE],
            "hburst": row[_BURST], "hready": row[_READY],
            "hresp": row[_RESP], "hmaster": row[_OWNER],
            "hmaster_d": row[_OWNER_D], "hsels": row[sel:grant],
            "hgrants": row[grant:split], "split_mask": row[split],
            "dactive": row[split + 1],
        })

    def _row(self, view):
        """Inverse of :meth:`_view` (the stored ``_prev``)."""
        return ((view.htrans, view.haddr, view.hwrite, view.hsize,
                 view.hburst, view.hready, view.hresp, view.hmaster,
                 view.hmaster_d) + tuple(view.hsels)
                + tuple(view.hgrants)
                + (view.split_mask, view.dactive, view.time))

    def _flush_np(self, rows):
        engine = self.owner
        # Row 0 of the array is the row before the block (the stored
        # ``_prev``; on a fresh engine a stand-in that ``has_prev``
        # masks out), so current and previous rows are two views.
        first = rows[0] if engine._prev is None \
            else self._row(engine._prev)
        width = len(first)
        arr = _np.fromiter(_chain.from_iterable(_chain((first,), rows)),
                           dtype=_np.int64,
                           count=(len(rows) + 1) * width)
        arr = arr.reshape(-1, width).T
        has_prev = _np.ones(len(rows), dtype=bool)
        has_prev[0] = engine._prev is not None
        # ---- every conversion done: evaluate and mutate ----
        block = _Block(self, rows, first, arr[:, 1:], arr[:, :-1],
                       has_prev)
        events = []
        for rule in engine.rules:
            events += _EVALUATORS[type(rule)](rule, block)
        # A stable sort by row keeps rule order, then emission order.
        events.sort(key=_first)
        base = engine.cycles_checked
        views = {}
        for row, rule_id, message in events:
            view = views.get(row)
            if view is None:
                view = views[row] = self._view(rows[row], base + row)
            engine._flag(rule_id, message, view)
        last = len(rows) - 1
        engine.cycles_checked = base + len(rows)
        engine._prev = views.get(last) or self._view(rows[last],
                                                     base + last)


class _Block:
    """The rows one flush evaluates: ``rows`` the recorded Python
    tuples, ``first`` the row before them, ``cols``/``prev`` the
    current and previous rows' int64 columns.  HSEL columns are
    ``sel:grant``, HGRANT columns ``grant:split``, then the split mask
    and dactive."""

    def __init__(self, batch, rows, first, cols, prev, has_prev):
        self.sel, self.grant = batch._sel, batch._grant
        self.split = batch._split
        self.rows = rows
        self.first = first
        self.cols = cols
        self.prev = prev
        self.has_prev = has_prev

    def before(self, row):
        """The recorded tuple preceding row index *row*."""
        return self.rows[row - 1] if row else self.first

    def accepted(self):
        """Rows whose previous address phase was accepted."""
        return self.has_prev & (self.prev[_READY] != 0)


_first = _itemgetter(0)


def _hits(mask):
    return _np.flatnonzero(mask).tolist()


# -- stateless rules: masks over the current and previous row ----------

def _one_hot(block, lo, hi, rule_id, label):
    count = _np.count_nonzero(block.cols[lo:hi], axis=0)
    return [(row, rule_id, "%s vector %r is not one-hot"
             % (label, block.rows[row][lo:hi]))
            for row in _hits(count != 1)]


def _grant_one_hot(rule, block):
    return _one_hot(block, block.grant, block.split, "hgrant-one-hot",
                    "HGRANT")


def _select_one_hot(rule, block):
    return _one_hot(block, block.sel, block.grant, "hsel-one-hot", "HSEL")


def _alignment(rule, block):
    cols = block.cols
    trans, size = cols[_TRANS], cols[_SIZE]
    active = (trans == 2) | (trans == 3)
    offset = cols[_ADDR] & ((_np.int64(1) << size) - 1)
    return [(row, "alignment", "address %#x unaligned for HSIZE=%d"
             % (block.rows[row][_ADDR], block.rows[row][_SIZE]))
            for row in _hits(active & (offset != 0))]


def _two_cycle(rule, block):
    cols, prev = block.cols, block.prev
    resp = cols[_RESP]
    final = (resp != 0) & (cols[_READY] != 0)
    unannounced = (~block.has_prev | (prev[_READY] != 0)
                   | (prev[_RESP] != resp))
    return [(row, "two-cycle-response",
             "final %s cycle not preceded by a wait cycle with the "
             "same response" % HRESP(block.rows[row][_RESP]).name)
            for row in _hits(final & unannounced)]


def _stall(rule, block):
    cols, prev = block.cols, block.prev
    stalled = block.has_prev & (prev[_READY] == 0)
    cancelled = (cols[_TRANS] == 0) & (prev[_RESP] != 0)
    held = ((cols[_TRANS] == prev[_TRANS]) & (cols[_ADDR] == prev[_ADDR])
            & (cols[_WRITE] == prev[_WRITE])
            & (cols[_SIZE] == prev[_SIZE])
            & (cols[_BURST] == prev[_BURST]))
    found = []
    for row in _hits(stalled & ~cancelled & ~held):
        before, now = block.before(row), block.rows[row]
        found.append((row, "stall-stability",
                      "address phase changed while HREADY low "
                      "(HTRANS %d->%d, HADDR %#x->%#x)"
                      % (before[_TRANS], now[_TRANS], before[_ADDR],
                         now[_ADDR])))
    return found


def _idle_okay(rule, block):
    cols, prev = block.cols, block.prev
    idle_before = block.accepted() & (prev[_TRANS] == 0)
    answered = (cols[_READY] == 0) | (cols[_RESP] != 0)
    return [(row, "idle-okay",
             "IDLE transfer answered HREADY=%d/%s instead of a "
             "zero-wait OKAY" % (block.rows[row][_READY],
                                 HRESP(block.rows[row][_RESP]).name))
            for row in _hits(idle_before & answered)]


def _handover(rule, block):
    cols, prev = block.cols, block.prev
    trans = cols[_TRANS]
    mid_burst = (trans == 3) | (trans == 1)
    new_owner = block.accepted() & (cols[_OWNER] != prev[_OWNER])
    return [(row, "grant-handover",
             "new owner M%d drove %s in its first address phase"
             % (block.rows[row][_OWNER],
                HTRANS(block.rows[row][_TRANS]).name))
            for row in _hits(new_owner & mid_burst)]


# -- stateful rules: in-order loops over the rows that matter ------------

def _burst(rule, block):
    # Accepted rows only; of a run of accepted IDLEs only the first can
    # change the state (it closes the burst).
    visit = _np.flatnonzero(block.accepted())
    trans = block.cols[_TRANS][visit]
    keep = trans != 0
    keep[1:] |= trans[:-1] != 0
    if len(keep):
        keep[0] = True
    rows = block.rows
    in_burst = rule._in_burst
    addr = rule._burst_addr
    ctrl = rule._burst_ctrl
    found = []
    for index in visit[keep].tolist():
        row = rows[index]
        kind = row[_TRANS]
        if kind == 2:
            in_burst = True
            addr = row[_ADDR]
            ctrl = (row[_WRITE], row[_SIZE], row[_BURST], row[_OWNER])
        elif kind == 3:
            if not in_burst:
                found.append((index, "seq-without-nonseq",
                              "SEQ transfer with no open burst"))
                continue
            expected = next_burst_address(addr, HBURST(ctrl[2]), ctrl[1])
            if row[_ADDR] != expected:
                found.append((index, "burst-address",
                              "SEQ address %#x, expected %#x"
                              % (row[_ADDR], expected)))
            beat = (row[_WRITE], row[_SIZE], row[_BURST], row[_OWNER])
            if beat != ctrl:
                found.append((index, "burst-control",
                              "control changed mid-burst: %r -> %r"
                              % (ctrl, beat)))
            addr = row[_ADDR]
        elif kind == 1:
            if not in_burst:
                found.append((index, "busy-outside-burst",
                              "BUSY transfer with no open burst"))
        else:
            in_burst = False
    rule._in_burst = in_burst
    rule._burst_addr = addr
    rule._burst_ctrl = ctrl
    return found


def _wait_limit(rule, block):
    streak = rule._streak
    last = -1
    found = []
    for index in _hits(block.cols[_READY] == 0):
        if index != last + 1:
            streak = 0          # an HREADY-high row came in between
        streak += 1
        if streak == rule.limit + 1:
            found.append((index, "wait-limit",
                          "HREADY low for more than %d consecutive "
                          "cycles (data-phase owner M%d)"
                          % (rule.limit, block.rows[index][_OWNER_D])))
        last = index
    rule._streak = streak if last == len(block.rows) - 1 else 0
    return found


def _retry(rule, block):
    cols = block.cols
    visit = _np.flatnonzero((cols[_READY] != 0)
                            & (cols[block.split + 1] != 0))
    rows = block.rows
    counts = rule._counts
    if not (cols[_RESP][visit] == 2).any():
        for owner in dict.fromkeys(rows[index][_OWNER_D]
                                   for index in visit.tolist()):
            counts[owner] = 0
        return []
    found = []
    for index in visit.tolist():
        row = rows[index]
        owner = row[_OWNER_D]
        if row[_RESP] == 2:
            count = counts.get(owner, 0) + 1
            counts[owner] = count
            if count == rule.limit + 1:
                found.append((index, "retry-livelock",
                              "master M%d saw more than %d consecutive "
                              "RETRY completions" % (owner, rule.limit)))
        else:
            counts[owner] = 0
    return found


def _split_release(rule, block):
    masks = block.cols[block.split]
    visit = masks != 0
    visit[1:] |= masks[:-1] != 0
    if rule._ages:
        visit[0] = True
    ages = rule._ages
    found = []
    for index in _hits(visit):
        mask = block.rows[index][block.split]
        for bit in list(ages):
            if not (mask >> bit) & 1:
                del ages[bit]
        bit = 0
        while mask >> bit:
            if (mask >> bit) & 1:
                age = ages.get(bit, 0) + 1
                ages[bit] = age
                if age == rule.limit + 1:
                    found.append((index, "split-release",
                                  "master M%d split-masked for more "
                                  "than %d cycles" % (bit, rule.limit)))
            bit += 1
    return found


#: Stock rule class -> block evaluator returning
#: ``(row, rule id, message)`` in row order.
_EVALUATORS = {
    SingleGrantRule: _grant_one_hot,
    SingleSelectRule: _select_one_hot,
    AlignmentRule: _alignment,
    TwoCycleResponseRule: _two_cycle,
    StallStabilityRule: _stall,
    IdleResponseRule: _idle_okay,
    GrantHandoverRule: _handover,
    BurstSequenceRule: _burst,
    WaitLimitRule: _wait_limit,
    RetryLivelockRule: _retry,
    SplitReleaseRule: _split_release,
}
