"""Power-versus-time traces (paper Figs. 3–5).

The monitors append per-cycle energy events to a :class:`PowerTrace`;
:meth:`PowerTrace.windowed` then averages them into power samples over
fixed windows, which is how the paper's power plots are produced from
cycle energies.
"""

from __future__ import annotations

import numpy as np

from ..kernel.time import to_seconds


class PowerTrace:
    """Timestamped energy events for one block (or the whole bus).

    Parameters
    ----------
    name:
        Trace label ("TOTAL", "ARB", "M2S", ...).
    """

    def __init__(self, name):
        self.name = name
        self._times = []
        self._energies = []

    def record(self, time_ps, energy):
        """Append one event: *energy* joules spent at *time_ps*."""
        self.extend((time_ps,), (energy,))

    def extend(self, times, energies):
        """Append one event per *times*/*energies* pair, in order."""
        for energy in energies:
            if energy < 0:
                raise ValueError("negative energy event")
        self._times.extend(times)
        self._energies.extend(energies)

    def __len__(self):
        return len(self._times)

    @property
    def total_energy(self):
        """Sum of all recorded energy (joules)."""
        return float(sum(self._energies))

    @property
    def times(self):
        """Event times as a numpy array (picoseconds)."""
        return np.asarray(self._times, dtype=np.int64)

    @property
    def energies(self):
        """Event energies as a numpy array (joules)."""
        return np.asarray(self._energies, dtype=np.float64)

    def _select(self, t_start, t_end):
        """Events inside the half-open window ``[t_start, t_end)``.

        The single source of window-selection truth shared by
        :meth:`windowed` and :meth:`energy_between`: an event exactly
        on ``t_start`` is **included**, one exactly on ``t_end`` is
        **excluded**.
        """
        times = self.times
        if not len(times):
            return times, self.energies
        mask = (times >= t_start) & (times < t_end)
        return times[mask], self.energies[mask]

    def windowed(self, window_ps, t_start=0, t_end=None):
        """Average power per window.

        Returns ``(centers_s, power_w)`` — window-centre times in
        seconds and mean power in watts.  Empty windows report zero
        power.
        """
        if window_ps <= 0:
            raise ValueError("window must be positive")
        times = self.times
        if t_end is None:
            t_end = int(times.max()) + window_ps if len(times) else window_ps
        n_windows = max(1, int(np.ceil((t_end - t_start) / window_ps)))
        edges = t_start + np.arange(n_windows + 1) * window_ps
        sums = np.zeros(n_windows)
        selected_times, selected_energies = self._select(
            t_start, int(edges[-1]))
        if len(selected_times):
            indices = ((selected_times - t_start)
                       // window_ps).astype(int)
            np.add.at(sums, indices, selected_energies)
        centers = (edges[:-1] + edges[1:]) / 2.0
        window_seconds = to_seconds(window_ps)
        return (centers * 1e-12, sums / window_seconds)

    def energy_between(self, t_start, t_end):
        """Energy recorded in ``[t_start, t_end)`` picoseconds."""
        _, energies = self._select(t_start, t_end)
        return float(energies.sum())

    def mean_power(self):
        """Average power over the span of recorded events (watts)."""
        times = self.times
        if len(times) < 2:
            return 0.0
        span = to_seconds(int(times.max() - times.min()))
        if span <= 0:
            return 0.0
        return self.total_energy / span

    def peak_power(self, window_ps):
        """Maximum windowed power (watts)."""
        _, power = self.windowed(window_ps)
        return float(power.max()) if len(power) else 0.0

    def to_csv(self, path, window_ps):
        """Write ``time_s,power_w`` rows of the windowed trace."""
        centers, power = self.windowed(window_ps)
        with open(path, "w") as fh:
            fh.write("time_s,power_w\n")
            for t, p in zip(centers, power):
                fh.write("%.9e,%.9e\n" % (t, p))

    def __repr__(self):
        return "PowerTrace(%r, events=%d, total=%.3e J)" % (
            self.name, len(self), self.total_energy,
        )


class TraceSet:
    """A bundle of named power traces sharing a time base."""

    def __init__(self, names):
        self.traces = {name: PowerTrace(name) for name in names}

    def __getitem__(self, name):
        return self.traces[name]

    def record(self, time_ps, energies):
        """Record a dict of block → energy at *time_ps*."""
        self.extend((time_ps,), {name: (energy,)
                                 for name, energy in energies.items()})

    def extend(self, times, energies):
        """Record a block of cycles: *energies* maps block → the
        block's energy at each of *times*."""
        for name, column in energies.items():
            trace = self.traces.get(name)
            if trace is None:
                trace = self.traces[name] = PowerTrace(name)
            trace.extend(times, column)

    def names(self):
        """Trace labels currently present."""
        return tuple(self.traces)
