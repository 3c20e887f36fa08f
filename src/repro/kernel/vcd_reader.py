"""VCD (value change dump) reader.

The counterpart of :class:`~repro.kernel.trace.VcdTracer`: parses a VCD
file back into per-signal change lists so recorded waveforms can be
analysed offline (see :mod:`repro.power.offline`).  Supports the subset
VcdTracer emits plus the common constructs other simulators produce
(nested scopes, ``x``/``z`` literals, ``$dumpvars`` blocks, real
timestamps in any declared timescale).
"""

from __future__ import annotations

from bisect import bisect_right

_TIMESCALE_UNITS = {
    "s": 10**12, "ms": 10**9, "us": 10**6, "ns": 10**3, "ps": 1,
    "fs": None,  # sub-picosecond: rejected below
}


class VcdParseError(ValueError):
    """Malformed VCD input."""


class VcdSignal:
    """One recorded signal: ordered ``(time_ps, value)`` changes."""

    __slots__ = ("name", "width", "_times", "_values")

    def __init__(self, name, width):
        self.name = name
        self.width = width
        self._times = []
        self._values = []

    def _record(self, time_ps, value):
        if self._times and self._times[-1] == time_ps:
            self._values[-1] = value
        else:
            self._times.append(time_ps)
            self._values.append(value)

    def value_at(self, time_ps):
        """Committed value at *time_ps* (last change at or before it).

        Returns 0 before the first recorded change.
        """
        index = bisect_right(self._times, time_ps)
        if index == 0:
            return 0
        return self._values[index - 1]

    @property
    def changes(self):
        """List of ``(time_ps, value)`` tuples."""
        return list(zip(self._times, self._values))

    @property
    def final_value(self):
        """The last recorded value (0 if never changed)."""
        return self._values[-1] if self._values else 0

    def __len__(self):
        return len(self._times)

    def __repr__(self):
        return "VcdSignal(%r, width=%d, changes=%d)" % (
            self.name, self.width, len(self),
        )


class VcdFile:
    """A parsed VCD: signals by (scoped) name plus file metadata."""

    def __init__(self):
        self.signals = {}
        self.timescale_ps = 1
        self.end_time = 0

    def __getitem__(self, name):
        return self.signals[name]

    def __contains__(self, name):
        return name in self.signals

    def names(self):
        """Sorted signal names present in the dump."""
        return sorted(self.signals)

    def sample_times(self, period_ps, first_edge_ps, t_end=None):
        """Cycle sampling instants: just before each clock edge.

        The power replay reads each cycle's settled values immediately
        before the edge that ends it, mirroring what a clocked monitor
        observes at that edge.  A *period_ps* that is not positive
        raises ``ValueError``.
        """
        if period_ps <= 0:
            raise ValueError("clock period must be positive, got %r ps"
                             % (period_ps,))
        if t_end is None:
            t_end = self.end_time
        times = []
        edge = first_edge_ps + period_ps
        while edge <= t_end:
            times.append(edge - 1)
            edge += period_ps
        return times


def _parse_value(token, width):
    token = token.lower()
    if token[0] == "b":
        bits = token[1:]
        bits = bits.replace("x", "0").replace("z", "0")
        return int(bits, 2) if bits else 0
    if token in ("x", "z"):
        return 0
    return int(token, 2)


def read_vcd(fh):
    """Parse VCD from the open text file *fh* into a :class:`VcdFile`."""
    vcd = VcdFile()
    by_ident = {}
    scopes = []
    now = 0
    in_header = True

    tokens_iter = iter(fh.read().split("\n"))
    for raw_line in tokens_iter:
        line = raw_line.strip()
        if not line:
            continue
        if in_header:
            if line.startswith("$timescale"):
                body = line
                while "$end" not in body:
                    body += " " + next(tokens_iter).strip()
                spec = body.replace("$timescale", "") \
                    .replace("$end", "").strip()
                magnitude = "".join(ch for ch in spec if ch.isdigit())
                unit = spec[len(magnitude):].strip()
                scale = _TIMESCALE_UNITS.get(unit)
                if scale is None:
                    raise VcdParseError(
                        "unsupported timescale %r" % spec)
                vcd.timescale_ps = int(magnitude or "1") * scale
            elif line.startswith("$scope"):
                parts = line.split()
                scopes.append(parts[2] if len(parts) > 2 else "?")
            elif line.startswith("$upscope"):
                if scopes:
                    scopes.pop()
            elif line.startswith("$var"):
                parts = line.split()
                if len(parts) < 6:
                    raise VcdParseError("malformed $var: %r" % line)
                width = int(parts[2])
                ident = parts[3]
                name = parts[4]
                if parts[5].startswith("[") and parts[5] != "$end":
                    name += parts[5]
                signal = VcdSignal(name, width)
                by_ident[ident] = signal
                if name in vcd.signals:
                    name = ".".join(scopes + [name])
                    signal.name = name
                vcd.signals[name] = signal
            elif line.startswith("$enddefinitions"):
                in_header = False
            continue

        if line.startswith("#"):
            now = int(line[1:]) * vcd.timescale_ps
            vcd.end_time = max(vcd.end_time, now)
        elif line.startswith("$"):
            continue  # $dumpvars / $end wrappers
        elif line[0] in "01xXzZ":
            ident = line[1:]
            signal = by_ident.get(ident)
            if signal is None:
                raise VcdParseError("unknown identifier %r" % ident)
            signal._record(now, _parse_value(line[0], 1))
        elif line[0] in "bB":
            value_token, _, ident = line.partition(" ")
            ident = ident.strip()
            signal = by_ident.get(ident)
            if signal is None:
                raise VcdParseError("unknown identifier %r" % ident)
            signal._record(now, _parse_value(value_token,
                                             signal.width))
        elif line[0] in "rR":
            continue  # real values: not used by this library
        else:
            raise VcdParseError("unexpected line: %r" % line)
    return vcd


def load_vcd(path):
    """Parse the VCD file at *path*."""
    with open(path) as fh:
        return read_vcd(fh)
