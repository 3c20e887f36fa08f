"""Gate-level switching simulation and energy accounting.

This is the library's stand-in for the paper's use of Berkeley SIS:
the macromodels of §5.1 were "validated using the software SIS" by
simulating a gate-level implementation and counting node transitions.
:class:`GateLevelSimulator` does exactly that — it evaluates a
levelised netlist vector by vector, counts every net toggle and charges
``½ · C_net · V_DD²`` per transition (the standard dynamic switching
energy; leakage and short-circuit power are out of scope at this
abstraction, as in the paper).
"""

from __future__ import annotations

from .gates import bits_to_int, int_to_bits


def _is_scalar(nets):
    """True for a bare scalar input (``add_input``), which takes any
    truthy value as 1; bus bits take the integer's binary digits."""
    return len(nets) == 1 and "[" not in nets[0].name


class StepResult:
    """Per-vector simulation outcome."""

    __slots__ = ("toggles", "energy", "outputs")

    def __init__(self, toggles, energy, outputs):
        self.toggles = toggles
        self.energy = energy
        self.outputs = outputs

    def __repr__(self):
        return "StepResult(toggles=%d, energy=%.3e J)" % (
            self.toggles, self.energy,
        )


class GateLevelSimulator:
    """Zero-delay, levelised gate simulator with energy accounting.

    Parameters
    ----------
    netlist:
        A :class:`~repro.gatelevel.netlist.Netlist`.
    vdd:
        Supply voltage (volts) used in the ½CV² charge per toggle.
    """

    def __init__(self, netlist, vdd=1.8):
        self.netlist = netlist
        self.vdd = vdd
        self._order = netlist.levelise()
        self.values = {net: 0 for net in netlist.nets}
        self.total_energy = 0.0
        self.total_toggles = 0
        self.steps = 0
        #: Per-net toggle counters keyed by net object.
        self.toggle_counts = {net: 0 for net in netlist.nets}
        self._energy_scale = 0.5 * vdd * vdd
        #: Primary-input nets by bus name (``add_input_bus`` order,
        #: LSB first); a scalar input is a one-net bus.
        self._buses = {}
        for net in netlist.inputs:
            self._buses.setdefault(net.name.split("[")[0], []).append(net)
        # Settle the all-zero state so the first vector's toggles are
        # measured against a defined baseline.
        self._propagate(count=False)
        self._clock_dffs_silent()

    # -- core stepping --------------------------------------------------------

    def _propagate(self, count=True):
        """Evaluate combinational cells in topological order."""
        toggles = 0
        energy = 0.0
        values = self.values
        for cell in self._order:
            new = cell.evaluate(values)
            net = cell.output
            if values[net] != new:
                values[net] = new
                if count:
                    toggles += 1
                    energy += net.capacitance * self._energy_scale
                    self.toggle_counts[net] += 1
        return toggles, energy

    def _clock_dffs_silent(self):
        for flop in self.netlist.dffs:
            self.values[flop.q] = self.values[flop.d]

    def step(self, input_values, clock=True):
        """Apply one input vector and advance one clock period.

        Parameters
        ----------
        input_values:
            Mapping from primary-input :class:`Net` to 0/1, or a flat
            sequence ordered like ``netlist.inputs``.
        clock:
            When ``True`` (default) flip-flops capture after the
            combinational settle, and the resulting Q changes propagate
            (the second half of the clock period).

        Returns a :class:`StepResult`.
        """
        values = self.values
        toggles = 0
        energy = 0.0

        if not isinstance(input_values, dict):
            input_values = dict(zip(self.netlist.inputs, input_values))
        for net, new in input_values.items():
            new = 1 if new else 0
            if values[net] != new:
                values[net] = new
                toggles += 1
                energy += net.capacitance * self._energy_scale
                self.toggle_counts[net] += 1

        t, e = self._propagate()
        toggles += t
        energy += e

        if clock and self.netlist.dffs:
            for flop in self.netlist.dffs:
                new = values[flop.d]
                if values[flop.q] != new:
                    values[flop.q] = new
                    toggles += 1
                    energy += flop.q.capacitance * self._energy_scale
                    self.toggle_counts[flop.q] += 1
                # Clock pin switches twice per period regardless.
                energy += flop.clock_cap * 2 * self._energy_scale
            t, e = self._propagate()
            toggles += t
            energy += e

        self.total_energy += energy
        self.total_toggles += toggles
        self.steps += 1
        outputs = {net: values[net] for net in self.netlist.outputs}
        return StepResult(toggles, energy, outputs)

    # -- convenience ------------------------------------------------------------

    def step_ints(self, **buses):
        """Apply integer values to named input buses.

        Bus *name* maps the inputs created by ``add_input_bus(name, w)``;
        scalar inputs accept a bare 0/1.  Returns the
        :class:`StepResult` with an extra dict of integer outputs under
        ``.outputs`` keyed by net.
        """
        vector = {}
        for name, value in buses.items():
            nets = self._bus_nets(name)
            if _is_scalar(nets):
                vector[nets[0]] = 1 if value else 0
            else:
                bits = int_to_bits(value, len(nets))
                for net, bit in zip(nets, bits):
                    vector[net] = bit
        return self.step(vector)

    def _bus_nets(self, name):
        """The input nets of bus *name*; ``KeyError`` if there is none."""
        nets = self._buses.get(name)
        if nets is None:
            raise KeyError("no input bus named %r" % name)
        return nets

    def output_int(self, prefix=None):
        """Pack the primary outputs (LSB-first) into an integer."""
        nets = self.netlist.outputs
        if prefix is not None:
            nets = [net for net in nets if net.name.startswith(prefix)]
        return bits_to_int([self.values[net] for net in nets])

    def run(self, vectors, clock=True):
        """Apply a sequence of vectors; returns the list of results."""
        return [self.step(vector, clock=clock) for vector in vectors]

    @property
    def mean_energy_per_step(self):
        """Average switching energy per applied vector (joules)."""
        if not self.steps:
            return 0.0
        return self.total_energy / self.steps
