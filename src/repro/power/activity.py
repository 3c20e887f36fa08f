"""The paper's ``Activity`` class: dynamic I/O signal monitoring.

Section 5.3 instruments the bus model with "a specialized object class
... for the dynamic monitoring and the storage of the activity of the
I/O signals of the different blocks", exposing ``bit_change_count`` and
``store_activity``.  :class:`Activity` is that class: it watches a
named group of kernel signals, and on every :meth:`sample` computes the
per-signal Hamming distance against the previously stored values and
accumulates switching statistics.
"""

from __future__ import annotations

from operator import add

from .hamming import ROW, switching


class ActivitySample:
    """Result of one :meth:`Activity.sample` call."""

    __slots__ = ("per_signal", "total")

    def __init__(self, per_signal):
        self.per_signal = per_signal
        self.total = sum(per_signal.values())

    def hd(self, signal):
        """Hamming distance observed on *signal* in this sample."""
        return self.per_signal.get(signal, 0)

    def __repr__(self):
        return "ActivitySample(total=%d)" % self.total


class Activity:
    """Switching-activity monitor over a group of signals.

    Parameters
    ----------
    name:
        Group label ("m2s_inputs", "slave_outputs", ...).
    signals:
        Iterable of kernel :class:`~repro.kernel.signal.Signal`; each
        signal's ``width`` bounds the Hamming computation.

    Usage pattern (one call per bus event / clock cycle)::

        activity = Activity("bus", bus.shared_signals())
        ...
        sample = activity.sample()      # HD vs previous cycle
        total_bits = activity.bit_change_count()
    """

    def __init__(self, name, signals):
        self.name = name
        self.signals = tuple(signals)
        self._index = {signal: index
                       for index, signal in enumerate(self.signals)}
        self._masks = tuple((1 << signal.width) - 1
                            for signal in self.signals)
        #: Per-signal stored values and accumulators, in signal order.
        self._stored = [signal.value for signal in self.signals]
        self._transitions = [0] * len(self.signals)
        self._ones = [0] * len(self.signals)
        self._bit_changes = 0
        self.samples_taken = 0

    # -- the paper's interface -------------------------------------------

    def bit_change_count(self):
        """Cumulative number of bit changes observed so far."""
        return self._bit_changes

    def store_activity(self):
        """Store the current signal values as the new reference.

        Returns the stored mapping (signal → value).  Normally called
        implicitly by :meth:`sample`; exposed separately to match the
        paper's two-method interface, e.g. to re-baseline after reset.
        """
        self._stored = [signal.value for signal in self.signals]
        return dict(zip(self.signals, self._stored))

    # -- sampling ------------------------------------------------------------

    def sample(self):
        """Measure HD of each signal against the stored values, update
        statistics, and store the new values.  Returns an
        :class:`ActivitySample`."""
        distances = self.record([signal.value for signal in self.signals])
        return ActivitySample(dict(zip(self.signals, distances)))

    def record(self, values):
        """Fold one sample of *values* (one per signal, in
        :attr:`signals` order) into the statistics and store them as
        the new reference.  Returns the per-signal Hamming distances."""
        values = list(values)
        _, distances, ones = switching(ROW, values, self._stored,
                                       self._masks)
        self.record_batch(values, distances, ones, 1)
        return distances

    def record_batch(self, lasts, transitions, ones, count):
        """Fold *count* samples summarised per signal: the last value,
        the summed Hamming distances and the summed ones counts, as
        :func:`repro.power.hamming.switching` computes them on one sample
        or on a block of them (the global monitor's step and its
        batched replay)."""
        self._stored = list(lasts)
        self._transitions = list(map(add, self._transitions, transitions))
        self._ones = list(map(add, self._ones, ones))
        self._bit_changes += sum(transitions)
        self.samples_taken += count

    # -- statistics -------------------------------------------------------------

    def transition_count(self, signal):
        """Cumulative bit transitions seen on *signal*."""
        return self._transitions[self._index[signal]]

    def transition_density(self, signal):
        """Average fraction of *signal*'s bits toggling per sample."""
        if not self.samples_taken or signal.width == 0:
            return 0.0
        return (self.transition_count(signal)
                / (self.samples_taken * signal.width))

    def signal_probability(self, signal):
        """Average fraction of *signal*'s bits at 1 across samples."""
        if not self.samples_taken or signal.width == 0:
            return 0.0
        return (self._ones[self._index[signal]]
                / (self.samples_taken * signal.width))

    def summary(self):
        """Per-signal statistics dict for reports."""
        return {
            signal.name: {
                "transitions": self.transition_count(signal),
                "density": self.transition_density(signal),
                "probability": self.signal_probability(signal),
            }
            for signal in self.signals
        }

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        """Per-signal accumulators keyed by signal *name* (signals
        themselves do not survive serialization)."""
        names = [signal.name for signal in self.signals]
        return {
            "stored": dict(zip(names, self._stored)),
            "bit_changes": self._bit_changes,
            "transitions": dict(zip(names, self._transitions)),
            "ones": dict(zip(names, self._ones)),
            "samples_taken": self.samples_taken,
        }

    def load_state_dict(self, state):
        names = [signal.name for signal in self.signals]
        if set(names) != set(state["stored"]):
            raise ValueError(
                "activity group %r signal set changed since checkpoint"
                % self.name)
        self._stored = [state["stored"][name] for name in names]
        self._bit_changes = state["bit_changes"]
        self._transitions = [state["transitions"][name] for name in names]
        self._ones = [state["ones"][name] for name in names]
        self.samples_taken = state["samples_taken"]

    def __repr__(self):
        return "Activity(%r, signals=%d, bit_changes=%d)" % (
            self.name, len(self.signals), self._bit_changes,
        )
