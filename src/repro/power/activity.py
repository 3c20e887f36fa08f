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

from .hamming import hamming


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
        self._masks = tuple((1 << signal.width) - 1
                            for signal in self.signals)
        self._stored = {signal: signal.value for signal in self.signals}
        self._bit_changes = 0
        self._transitions_per_signal = {signal: 0
                                        for signal in self.signals}
        self.samples_taken = 0
        self._ones_accumulator = {signal: 0 for signal in self.signals}

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
        for signal in self.signals:
            self._stored[signal] = signal.value
        return dict(self._stored)

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
        stored = self._stored
        transitions = self._transitions_per_signal
        ones = self._ones_accumulator
        distances = []
        for signal, mask, new in zip(self.signals, self._masks, values):
            old = stored[signal]
            if new == old:
                distance = 0
            else:
                distance = hamming(old, new, width=signal.width)
                transitions[signal] += distance
            distances.append(distance)
            stored[signal] = new
            ones[signal] += bin(new & mask).count("1")
        self._bit_changes += sum(distances)
        self.samples_taken += 1
        return distances

    def record_batch(self, lasts, transitions, ones, count):
        """Fold *count* samples summarised per signal: the last value,
        the summed Hamming distances and the summed ones counts (the
        compiled engine's batched monitor replay)."""
        for signal, last, hd, n_ones in zip(self.signals, lasts,
                                            transitions, ones):
            self._stored[signal] = last
            self._transitions_per_signal[signal] += hd
            self._ones_accumulator[signal] += n_ones
        self._bit_changes += sum(transitions)
        self.samples_taken += count

    # -- statistics -------------------------------------------------------------

    def transition_count(self, signal):
        """Cumulative bit transitions seen on *signal*."""
        return self._transitions_per_signal[signal]

    def transition_density(self, signal):
        """Average fraction of *signal*'s bits toggling per sample."""
        if not self.samples_taken or signal.width == 0:
            return 0.0
        return (self._transitions_per_signal[signal]
                / (self.samples_taken * signal.width))

    def signal_probability(self, signal):
        """Average fraction of *signal*'s bits at 1 across samples."""
        if not self.samples_taken or signal.width == 0:
            return 0.0
        return (self._ones_accumulator[signal]
                / (self.samples_taken * signal.width))

    def summary(self):
        """Per-signal statistics dict for reports."""
        return {
            signal.name: {
                "transitions": self._transitions_per_signal[signal],
                "density": self.transition_density(signal),
                "probability": self.signal_probability(signal),
            }
            for signal in self.signals
        }

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        """Per-signal accumulators keyed by signal *name* (the dicts
        themselves are keyed by Signal objects, which do not survive
        serialization)."""
        return {
            "stored": {signal.name: self._stored[signal]
                       for signal in self.signals},
            "bit_changes": self._bit_changes,
            "transitions": {
                signal.name: self._transitions_per_signal[signal]
                for signal in self.signals
            },
            "ones": {signal.name: self._ones_accumulator[signal]
                     for signal in self.signals},
            "samples_taken": self.samples_taken,
        }

    def load_state_dict(self, state):
        by_name = {signal.name: signal for signal in self.signals}
        if set(by_name) != set(state["stored"]):
            raise ValueError(
                "activity group %r signal set changed since checkpoint"
                % self.name)
        self._stored = {by_name[name]: value
                        for name, value in state["stored"].items()}
        self._bit_changes = state["bit_changes"]
        self._transitions_per_signal = {
            by_name[name]: count
            for name, count in state["transitions"].items()
        }
        self._ones_accumulator = {
            by_name[name]: count
            for name, count in state["ones"].items()
        }
        self.samples_taken = state["samples_taken"]

    def __repr__(self):
        return "Activity(%r, signals=%d, bit_changes=%d)" % (
            self.name, len(self.signals), self._bit_changes,
        )
