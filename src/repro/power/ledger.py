"""Energy accounting.

The :class:`EnergyLedger` is the single sink every power model charges
into.  It keeps three mutually consistent views:

* **per block** — the paper's structural decomposition (M2S, DEC, ARB,
  S2M, Fig. 6);
* **per instruction** — the behavioural decomposition (Table 1);
* **total** — the sum, with the invariant that all three agree (the
  test suite checks conservation with hypothesis).
"""

from __future__ import annotations


#: Canonical sub-block keys, in the paper's Fig. 6 order.
BLOCK_M2S = "M2S"
BLOCK_DEC = "DEC"
BLOCK_ARB = "ARB"
BLOCK_S2M = "S2M"
PAPER_BLOCKS = (BLOCK_M2S, BLOCK_DEC, BLOCK_ARB, BLOCK_S2M)


class InstructionStats:
    """Count and energy accumulated for one instruction."""

    __slots__ = ("count", "energy")

    def __init__(self):
        self.count = 0
        self.energy = 0.0

    @property
    def average_energy(self):
        """Mean energy per execution (joules); 0 when never executed."""
        if not self.count:
            return 0.0
        return self.energy / self.count

    def __repr__(self):
        return "InstructionStats(count=%d, energy=%.3e J)" % (
            self.count, self.energy,
        )


class EnergyLedger:
    """Per-block and per-instruction energy bookkeeping."""

    def __init__(self, blocks=PAPER_BLOCKS):
        self.block_energy = {block: 0.0 for block in blocks}
        self.instructions = {}
        #: Energy per bus response kind (``"OKAY"``, ``"RETRY"``,
        #: ``"ERROR"``, ``"SPLIT"``) for cycles tagged by the monitor.
        #: Non-OKAY buckets are the energy cost of fault handling —
        #: retry re-issues, error recovery, split parking.
        self.response_energy = {}
        self.total_energy = 0.0
        self.cycles = 0

    # -- charging ----------------------------------------------------------

    def charge_cycle(self, instruction, block_energies, response=None):
        """Account one cycle: *block_energies* maps block → joules.

        The cycle's total is attributed to *instruction* (a string such
        as ``"WRITE_READ"``); unknown blocks are added on the fly so
        extended decompositions (e.g. an APB bridge block) just work.
        *response* optionally tags the cycle with the bus response kind
        shown during it (fault/overhead accounting).
        """
        return self.charge_bulk(instruction, 1, block_energies, response)

    def charge_bulk(self, instruction, count, block_energies,
                    response=None):
        """Account *count* identical cycles in one update.

        Equivalent to calling :meth:`charge_cycle` *count* times with
        the same arguments, but O(blocks) instead of O(count) — the
        transaction-level tier charges whole mode runs through this
        path, and :meth:`charge_cycle` is one such run.  Returns the
        total energy charged (joules).
        """
        if count < 0:
            raise ValueError("negative cycle count %r" % count)
        if count == 0:
            return 0.0
        cycle_total = 0.0
        for block, energy in block_energies.items():
            if energy < 0:
                raise ValueError(
                    "negative energy %r for block %r" % (energy, block)
                )
            self.block_energy[block] = (
                self.block_energy.get(block, 0.0) + energy * count
            )
            cycle_total += energy
        total = cycle_total * count
        stats = self.instructions.get(instruction)
        if stats is None:
            stats = self.instructions[instruction] = InstructionStats()
        stats.count += count
        stats.energy += total
        if response is not None:
            self.response_energy[response] = (
                self.response_energy.get(response, 0.0) + total
            )
        self.total_energy += total
        self.cycles += count
        return total

    # -- queries --------------------------------------------------------------

    def instruction_stats(self, instruction):
        """Stats for *instruction* (zeros when never executed)."""
        return self.instructions.get(instruction, InstructionStats())

    def block_share(self, block):
        """Fraction of total energy attributed to *block*."""
        if self.total_energy == 0:
            return 0.0
        return self.block_energy.get(block, 0.0) / self.total_energy

    def instruction_share(self, instruction):
        """Fraction of total energy attributed to *instruction*."""
        if self.total_energy == 0:
            return 0.0
        return self.instruction_stats(instruction).energy / self.total_energy

    def class_share(self, predicate):
        """Energy fraction of instructions satisfying *predicate(name)*."""
        if self.total_energy == 0:
            return 0.0
        energy = sum(stats.energy
                     for name, stats in self.instructions.items()
                     if predicate(name))
        return energy / self.total_energy

    @property
    def overhead_energy(self):
        """Energy of cycles tagged with a non-OKAY response (joules).

        The direct cost of fault handling on the bus: RETRY/SPLIT
        response cycles plus ERROR recovery cycles.  Zero when the run
        was fault-free or the monitor did not tag responses.
        """
        return sum(energy
                   for response, energy in self.response_energy.items()
                   if response != "OKAY")

    def response_share(self, response):
        """Fraction of total energy spent in *response*-tagged cycles."""
        if self.total_energy == 0:
            return 0.0
        return self.response_energy.get(response, 0.0) / self.total_energy

    def block_breakdown(self):
        """Dict block → (energy, share), sorted by descending energy."""
        items = sorted(self.block_energy.items(),
                       key=lambda item: item[1], reverse=True)
        return {block: (energy, self.block_share(block))
                for block, energy in items}

    def average_power(self, elapsed_seconds):
        """Mean power over *elapsed_seconds* (watts)."""
        if elapsed_seconds <= 0:
            raise ValueError("elapsed time must be positive")
        return self.total_energy / elapsed_seconds

    def check_conservation(self, tolerance=1e-9):
        """Verify Σblocks == Σinstructions == total (relative tolerance).

        Returns True; raises ``AssertionError`` with details otherwise.
        """
        block_sum = sum(self.block_energy.values())
        instr_sum = sum(stats.energy
                        for stats in self.instructions.values())
        scale = max(abs(self.total_energy), 1e-30)
        if abs(block_sum - self.total_energy) > tolerance * scale:
            raise AssertionError(
                "block sum %.6e != total %.6e"
                % (block_sum, self.total_energy)
            )
        if abs(instr_sum - self.total_energy) > tolerance * scale:
            raise AssertionError(
                "instruction sum %.6e != total %.6e"
                % (instr_sum, self.total_energy)
            )
        return True

    # -- checkpoint support ---------------------------------------------

    def state_dict(self):
        return {
            "block_energy": dict(sorted(self.block_energy.items())),
            "instructions": {
                name: [stats.count, stats.energy]
                for name, stats in sorted(self.instructions.items())
            },
            "response_energy": dict(
                sorted(self.response_energy.items())),
            "total_energy": self.total_energy,
            "cycles": self.cycles,
        }

    def load_state_dict(self, state):
        self.block_energy = dict(state["block_energy"])
        self.instructions = {}
        for name, (count, energy) in state["instructions"].items():
            stats = self.instructions[name] = InstructionStats()
            stats.count = count
            stats.energy = energy
        self.response_energy = dict(state["response_energy"])
        self.total_energy = state["total_energy"]
        self.cycles = state["cycles"]

    def __repr__(self):
        return "EnergyLedger(cycles=%d, total=%.3e J)" % (
            self.cycles, self.total_energy,
        )
