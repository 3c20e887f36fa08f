"""Coverage signals steering the fuzz campaign.

A fuzz run is interesting when it exercises *behaviour* the corpus has
not exhibited before.  Behaviour is abstracted into a set of string
**coverage keys**, all derived from deterministic simulation-domain
quantities (never host time), so the key set — like the run fingerprint
— is a pure function of the :class:`~repro.replay.RunSpec`:

``rule:<rule_id>``
    a compliance-rule arm fired (the oracle's 14-rule catalogue);
``mandatory-broken``
    at least one spec-requirement rule fired;
``outcome:<class>``
    the campaign outcome classification of the run;
``bus:<HTRANS>-><HTRANS>``
    committed HTRANS state-transition pairs on consecutive bus cycles;
``burst:<HBURST>``
    burst kinds observed on active transfers;
``resp:<HRESP>``
    non-OKAY response kinds observed;
``power:<MODE>-><MODE>``
    power-FSM state-transition pairs (the paper's §5.2 bus-activity
    machine);
``lat:m<i>:le<N>``
    per-master transaction latency, power-of-two cycle buckets.

:class:`CoverageProbe` installs the observe-only hooks on an assembled
system (via :func:`repro.replay.execute`'s ``instrument`` callback) and
extracts the key set afterwards; :class:`CoverageMap` is the campaign-
wide accumulation the engine steers by.

Neither hook runs per cycle on a run that batches
(:mod:`repro.kernel.rowbatch`, either engine): the bus monitor is a
record/replay consumer of its own, and the power hook receives the
mode codes of every block the batched power monitor replays.  Each
key family is built in one place, over a sequence of cycles: a block,
or the one cycle of a live method (diverted cycles, runs with a kernel
observer, power FSMs with a per-cycle sink or a chained telemetry
tracer).  Every run ends with a flush, so the probe's checkpointed
state is current between ``run`` calls.
"""

from __future__ import annotations

import json
from itertools import chain, compress

from ..amba.types import HRESP, HTRANS, hburst_of, hresp_of, htrans_of
from ..kernel import Module
from ..kernel.rowbatch import RowBatch
from ..power.instructions import MODES, BusMode

#: Coverage-map file format marker.
FORMAT = "repro-fuzz-coverage/1"

_ACTIVE = frozenset((int(HTRANS.NONSEQ), int(HTRANS.SEQ)))
_OKAY = frozenset((int(HRESP.OKAY),))


def _changes(first, codes):
    """The distinct pairs of consecutive unequal codes in *codes*, led
    by *first*."""
    return [(before, after)
            for before, after in set(zip(chain((first,), codes), codes))
            if before != after]


class _BusCoverageMonitor(Module):
    """Observe-only per-cycle monitor: HTRANS transition pairs, burst
    kinds and non-OKAY response kinds on the committed bus signals."""

    def __init__(self, sim, name, clk, bus, keys, parent=None):
        super().__init__(sim, name, parent=parent)
        self.bus = bus
        self.keys = keys
        self._prev_htrans = None
        self.method(self._on_clk, [clk.posedge], name="cover",
                    initialize=False)

    def _on_clk(self):
        bus = self.bus
        self._observe(bus.htrans.value, bus.hburst.value,
                      bus.hresp.value)

    def _observe(self, htrans, hburst, hresp):
        """One cycle's keys from its committed HTRANS, HBURST and
        HRESP codes."""
        self._add((htrans,), (hburst,), (hresp,))

    def _add(self, htrans, hburst, hresp):
        """The keys of consecutive cycles' HTRANS, HBURST and HRESP
        code sequences.  A code with no enum member raises as its
        constructor does, when a key needs its name."""
        keys = self.keys
        prev = htrans[0] if self._prev_htrans is None \
            else self._prev_htrans
        for before, after in _changes(prev, htrans):
            keys.add("bus:%s->%s" % (htrans_of(before).name,
                                     htrans_of(after).name))
        self._prev_htrans = htrans[-1]
        for code in set(compress(hburst, map(_ACTIVE.__contains__,
                                             htrans))):
            keys.add("burst:%s" % hburst_of(code).name)
        for code in set(hresp) - _OKAY:
            keys.add("resp:%s" % hresp_of(code).name)


class _BusCoverageBatch(RowBatch):
    """Recorder + block replay for one :class:`_BusCoverageMonitor`.

    A row holds HTRANS, HBURST and HRESP.  A code the enum lookups of
    :meth:`_BusCoverageMonitor._add` raise on runs the live method, and
    so does every cycle while the stored HTRANS is such a code (a
    diverted cycle or a restored snapshot left it): its next change
    raises there.
    """

    live_function = _BusCoverageMonitor._on_clk
    owner_types = (_BusCoverageMonitor,)
    holds_live = True

    def __init__(self, process):
        bus = process.fn.__self__.bus
        super().__init__(process, (bus.htrans, bus.hburst, bus.hresp),
                         ((0, 0, 3), (1, 0, 7), (2, 0, 3)))

    def eligible(self):
        self._live_only[0] = self._stays_live()
        return True

    def _stays_live(self):
        prev = self.owner._prev_htrans
        return prev is not None and not 0 <= prev <= 3

    def _flush_np(self, rows):
        # Python ints throughout, so no value overflows and the block
        # needs no row-by-row ``_replay``.
        self.owner._add(*zip(*rows))


class _PowerCoverage:
    """Power-FSM tracer hook recording state-transition pairs.

    ``on_step`` sees one cycle; ``on_modes`` sees a block the batched
    monitor replayed, so the monitor need not run per cycle.  Chains
    to any tracer already attached so telemetry and coverage can
    coexist on one monitor; the chained tracer needs every cycle, so a
    chained hook withdraws ``on_modes`` and the monitor stays live.
    """

    def __init__(self, keys, chained=None):
        self.keys = keys
        self.chained = chained
        self._prev = None
        if chained is not None:
            self.on_modes = None

    def on_step(self, time_ps, mode, instruction, block_energies,
                total, response):
        self._add((MODES.index(mode),))
        if self.chained is not None:
            self.chained.on_step(time_ps, mode, instruction,
                                 block_energies, total, response)

    def on_modes(self, codes):
        """The pairs of a replayed block: *codes* are its per-cycle
        modes as indices into :data:`~repro.power.instructions.MODES`."""
        self._add(codes)

    def _add(self, codes):
        first = codes[0] if self._prev is None \
            else MODES.index(self._prev)
        for before, after in _changes(first, codes):
            self.keys.add("power:%s->%s" % (MODES[before].name,
                                            MODES[after].name))
        self._prev = MODES[codes[-1]]


def _latency_bucket(cycles):
    """Power-of-two bucket label covering *cycles* (``le1``, ``le2``,
    ``le4`` …)."""
    bound = 1
    while cycles > bound:
        bound *= 2
    return "le%d" % bound


class CoverageProbe:
    """One run's coverage collector.

    ``install`` is handed to :func:`repro.replay.execute` as the
    ``instrument`` callback; ``coverage_keys`` condenses the observed
    behaviour plus the run outcome into the sorted key list.
    """

    def __init__(self):
        self.keys = set()
        self._installed = False
        self._monitor = None
        self._power = None

    def install(self, system):
        """Attach the bus monitor and power-FSM hook to *system*."""
        self._installed = True
        self._monitor = _BusCoverageMonitor(
            system.sim, "fuzz_coverage", system.clk, system.bus,
            self.keys)
        if system.monitor is not None:
            fsm = system.monitor.fsm
            self._power = _PowerCoverage(self.keys, chained=fsm.tracer)
            fsm.tracer = self._power
        # The probe is itself checkpointable state: mid-run snapshots
        # (periodic checkpoints, shared warm-start prefixes) capture
        # the keys observed so far plus the monitors' edge-detection
        # state, so a restored run accumulates the exact key set a
        # straight run would have — coverage-guided corpus evolution
        # stays bit-identical whether or not a prefix was skipped.
        system.sim.register_state("fuzz_coverage", self)

    def state_dict(self):
        return {
            "keys": sorted(self.keys),
            "bus_prev": self._monitor._prev_htrans
            if self._monitor is not None else None,
            "power_prev": self._power._prev.name
            if self._power is not None and self._power._prev is not None
            else None,
        }

    def load_state_dict(self, state):
        self.keys.clear()
        self.keys.update(state["keys"])
        if self._monitor is not None:
            self._monitor._prev_htrans = state["bus_prev"]
        if self._power is not None:
            self._power._prev = (BusMode[state["power_prev"]]
                                 if state["power_prev"] is not None
                                 else None)

    def coverage_keys(self, system, outcome):
        """The sorted coverage key list of one executed run."""
        keys = set(self.keys)
        keys.add("outcome:%s" % outcome.outcome)
        for rule in outcome.rules_tripped or ():
            keys.add("rule:%s" % rule)
        if not outcome.recovery_compliant:
            keys.add("mandatory-broken")
        if system is not None:
            period = system.clk.period
            for index, master in enumerate(system.masters):
                for txn in master.completed:
                    if txn.issue_time is None \
                            or txn.complete_time is None:
                        continue
                    cycles = max(1, round(
                        (txn.complete_time - txn.issue_time) / period))
                    keys.add("lat:m%d:%s"
                             % (index, _latency_bucket(cycles)))
        return sorted(keys)


class CoverageMap:
    """Campaign-wide coverage accumulation: key -> hit count."""

    def __init__(self, counts=None):
        self.counts = dict(counts or {})

    def __len__(self):
        return len(self.counts)

    def __contains__(self, key):
        return key in self.counts

    def add(self, keys):
        """Fold one run's *keys* in; return the sorted novel subset."""
        new = sorted(key for key in keys if key not in self.counts)
        for key in keys:
            self.counts[key] = self.counts.get(key, 0) + 1
        return new

    def rarity(self, keys):
        """Inverse-frequency score of *keys* (rarer coverage scores
        higher; used to weight corpus-entry selection)."""
        return sum(1.0 / self.counts[key] for key in keys
                   if key in self.counts)

    def to_dict(self):
        return {"format": FORMAT,
                "coverage": dict(sorted(self.counts.items()))}

    @classmethod
    def from_dict(cls, data):
        if data.get("format") != FORMAT:
            raise ValueError("not a %s coverage map (format=%r)"
                             % (FORMAT, data.get("format")))
        return cls(data.get("coverage", {}))

    def save(self, path):
        # Atomic for the same reason as state.json: coverage.json is
        # loaded on --resume and must never be seen half-written.
        from ..state import atomic_write_json
        atomic_write_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))
