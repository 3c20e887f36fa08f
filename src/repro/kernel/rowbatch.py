"""The record/replay protocol shared by every batched bus observer.

A consumer that observes the bus every rising edge (the power monitor,
each compliance engine, the fuzz coverage probe's bus monitor) does
not run its per-cycle method while it batches: its process calls a
generated *recorder* that appends one tuple of committed values per
cycle, and :meth:`RowBatch.flush` hands the buffered rows to the
consumer's block kernel.  Both engines use the same batch object,
found once per consumer by :attr:`repro.kernel.Simulator.batches`,
and one arming point:
:meth:`repro.kernel.Simulator.run` points the consumer's process at the
recorder for the whole call, whichever loop runs it (the interpreted
loop, the compiled engine's emitted edges, generic edges and
multi-domain loop, or a hand-off between them), and restores the live
method and flushes on every exit.  The recorder flushes itself at the
row cap.

:class:`RowBatch` owns everything that is the same for every consumer:

* registration of each kind under the function it records
  (:data:`repro.kernel.simulator.BATCH_KINDS`);
* the recorder, emitted as source so every column is a free variable
  bound once — a cycle costs slot loads, one tuple append and one
  length check;
* the range guards: a cycle with a value the live method raises on is
  never recorded — the recorder flushes the rows before it and runs
  the live method, so the error, its attribution and the torn state it
  leaves are those of the per-cycle path; a consumer whose live cycle
  can leave state that keeps later cycles live (``holds_live``) has
  it re-evaluated after every such cycle;
* the row cap (:data:`_FLUSH_ROWS`);
* :meth:`~RowBatch.flush`, which replays the block through the
  consumer's scalar reference, row by row, when NumPy cannot hold a
  value (beyond int64);
* the ``rows_replayed`` and ``live_diverts`` counters.
"""

from __future__ import annotations

from .simulator import BATCH_KINDS

#: Recorder rows buffered before an automatic flush.  Bounds batch
#: memory on arbitrarily long runs (a row is one tuple per cycle);
#: flush points are invisible to the replayed state, so the cap only
#: trades peak memory against per-flush NumPy overhead.
_FLUSH_ROWS = 4096


class RowBatch:
    """Recorder + replayer for the live method of one consumer's
    *process*.

    A subclass sets ``live_function`` and defines ``eligible()`` (does
    this run record?), ``_flush_np(rows)`` (the block kernel) and, if
    that kernel uses NumPy, ``_replay(row)`` (the scalar reference for
    one row).
    ``rows_replayed`` counts the recorded rows a flush handed to the
    consumer, ``live_diverts`` the cycles the recorder ran live.
    """

    #: The stock per-cycle function this batch replaces.
    live_function = None
    #: Exact owner types it replays (a subclass may override anything).
    owner_types = ()
    #: Whether the recorder also tests ``_live_only`` — set by a
    #: consumer whose live cycle can leave state that keeps the
    #: following cycles live too.  Such a consumer defines
    #: ``_stays_live()``, which its ``eligible()`` and every diverted
    #: cycle store in ``_live_only``.
    holds_live = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        BATCH_KINDS[cls.live_function] = cls

    def __init__(self, process, columns, guards, stamp=None):
        """*columns* are the signals a row records, in order; each
        ``(column, low, high)`` of *guards* sends a cycle whose value
        lies outside ``low..high`` to the live method; a row ends with
        ``stamp.now`` when *stamp* is given."""
        self.process = process
        self.live = process.fn
        self.owner = self.live.__self__
        self._rows = []
        #: ``[True]`` while every cycle must run live.
        self._live_only = [False]
        self.rows_replayed = 0
        self.live_diverts = 0
        self.recorder = self._make_recorder(columns, guards, stamp)

    @classmethod
    def batchable(cls, owner):
        """Static eligibility: can *owner* be batch-replayed at all?"""
        return type(owner) in cls.owner_types

    # -- recording -----------------------------------------------------

    def _make_recorder(self, columns, guards, stamp):
        namespace = {
            "_append": self._rows.append,
            "_rows": self._rows,
            "_cap": _FLUSH_ROWS,
            "_flush": self.flush,
            "_divert": self._divert,
            "_live_only": self._live_only,
            "_stamp": stamp,
        }
        values = []
        for index, signal in enumerate(columns):
            namespace["_s%d" % index] = signal
            values.append("_s%d._value" % index)
        loads = []
        tests = ["_live_only[0]"] if self.holds_live else []
        for column, low, high in guards:
            loads.append("    _v%d = %s\n" % (column, values[column]))
            values[column] = "_v%d" % column
            tests.append("_v%d > %d or _v%d < %d"
                         % (column, high, column, low))
        if stamp is not None:
            values.append("_stamp.now")
        source = (
            "def _rec():\n"
            "%s"
            "    if %s:\n"
            "        return _divert()\n"
            "    _append((%s,))\n"
            "    if len(_rows) >= _cap:\n"
            "        _flush()\n"
            % ("".join(loads), " or ".join(tests), ", ".join(values)))
        code = compile(source, "<repro.kernel.rowbatch.%s-recorder>"
                       % type(self).__name__, "exec")
        exec(code, namespace)
        return namespace.pop("_rec")

    def _divert(self):
        """Run this cycle live, after the rows before it; a raise
        propagates exactly as from the live method."""
        self.flush()
        self.live_diverts += 1
        self.live()
        if self.holds_live:
            self._live_only[0] = self._stays_live()

    # -- replay --------------------------------------------------------

    def flush(self):
        """Replay every recorded cycle into the consumer, in order."""
        rows = self._rows
        if not rows:
            return
        try:
            self._flush_np(rows)
        except OverflowError:
            # A recorded or stored value beyond int64; every NumPy
            # kernel converts everything before it mutates anything,
            # so replay through the consumer's scalar reference.
            replay = self._replay
            for row in rows:
                replay(row)
        self.rows_replayed += len(rows)
        rows.clear()
