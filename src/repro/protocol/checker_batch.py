"""Batched evaluation of the compliance rules on both engines.

In ``record`` severity a :class:`~repro.protocol.ComplianceEngine` is
one consumer of the record/replay protocol
(:mod:`repro.kernel.rowbatch`): its recorder appends the rows the live
engine checks, and a flush runs the rule definitions of
:mod:`repro.protocol.rules` over the block.  This module keeps only the
range guards, the per-run eligibility check and a driver that knows no
rule: a stateless rule's predicate runs once on the block's int64
columns, a stateful rule's step runs in row order on the recorded
tuples its visit mask selects, and messages and snapshots come from
the recorded Python values.  Rows the live rules raise on (HTRANS or
HRESP outside 0..3, HBURST outside 0..7, HSIZE outside 0..62, which
NumPy shifts cannot hold) run the live method, and so does every row
while a rule ``holds_live``; a block holding a value beyond int64 is
replayed through :meth:`ComplianceEngine._check` itself.

The contract is identity with the per-cycle engine: the same
violations (rule id, cycle, time, message, spec, snapshot) in the same
order — by row, then by the rule's position in ``engine.rules``, then
by emission order within the rule — and, after a flush, the same
``rule_counts``, ``cycles_checked``, ``_prev`` and per-rule state.
"""

from __future__ import annotations

from itertools import chain as _chain

import numpy as _np

from ..amba.checker import AhbProtocolChecker
from ..kernel.rowbatch import RowBatch
from .engine import ComplianceEngine
from .rules import BURST, RESP, SIZE, TRANS, RowPredicate, RowRule


class CheckerBatch(RowBatch):
    """Recorder + block driver for one :class:`ComplianceEngine` (or
    the :class:`AhbProtocolChecker` facade, which only maps ``strict``
    onto the severity)."""

    live_function = ComplianceEngine._on_clk
    owner_types = (ComplianceEngine, AhbProtocolChecker)
    holds_live = True

    def __init__(self, process):
        engine = process.fn.__self__
        # Codes the live rules raise on, and sizes whose byte mask an
        # int64 shift cannot build; rows end with the time stamp.
        super().__init__(process, engine.columns, (
            (TRANS, 0, 3), (RESP, 0, 3), (BURST, 0, 7), (SIZE, 0, 62)),
            stamp=engine.sim)

    def eligible(self):
        """Per-run check: every effective severity is ``record`` and
        every rule is a distinct stock rule instance (a rule listed
        twice interleaves its state cycle by cycle)."""
        engine = self.owner
        if len({id(rule) for rule in engine.rules}) != len(engine.rules):
            return False
        for rule in engine.rules:
            if not isinstance(rule, RowRule):
                return False
            for rule_id in rule.emits:
                if engine._severity_for(rule_id) != "record":
                    return False
        self._live_only[0] = self._stays_live()
        return True

    def _stays_live(self):
        return any(rule.holds_live() for rule in self.owner.rules)

    def _replay(self, row):
        self.owner._check(row)

    def _flush_np(self, rows):
        engine = self.owner
        has = engine._prev is not None
        # Row 0 of the array is the row before the block (the stored
        # ``_prev``; on a fresh engine a stand-in that ``has_prev``
        # masks out), so current and previous rows are two views.
        first = engine._prev if has else rows[0]
        width = len(first)
        arr = _np.fromiter(_chain.from_iterable(_chain((first,), rows)),
                           dtype=_np.int64,
                           count=(len(rows) + 1) * width)
        arr = arr.reshape(-1, width).T
        cur, prev = arr[:, 1:], arr[:, :-1]
        has_prev = _np.ones(len(rows), dtype=bool)
        has_prev[0] = has
        # ---- every conversion done: evaluate and mutate ----
        grant = engine._grant
        events = []
        for rule in engine.rules:
            if isinstance(rule, RowPredicate):
                hits = rule.hits(cur, prev, has_prev, grant)
                rule_id = rule.emits[0]
                events += [(row, rule_id, rule.message(
                    rows[row], rows[row - 1] if row else first, grant))
                    for row in _np.flatnonzero(hits).tolist()]
            else:
                visits = rule.visits(cur, prev, has_prev)
                for row in _np.flatnonzero(visits).tolist():
                    for rule_id, message in rule.step(
                            rows[row], rows[row - 1] if row else first,
                            row > 0 or has):
                        events.append((row, rule_id, message))
        # A stable sort by row keeps rule order, then emission order.
        events.sort(key=lambda event: event[0])
        base = engine.cycles_checked
        views = {}
        for row, rule_id, message in events:
            view = views.get(row)
            if view is None:
                view = views[row] = engine._view(rows[row], base + row)
            engine._flag(rule_id, message, view)
        engine.cycles_checked = base + len(rows)
        engine._prev = rows[-1]
        engine._prev_cycle = base + len(rows) - 1
