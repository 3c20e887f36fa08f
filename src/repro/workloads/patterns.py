"""Traffic sources.

Each source implements :class:`~repro.amba.master.TrafficSource` and is
pulled by a master BFM whenever it runs out of work.  All randomness is
seeded explicitly, so every workload is reproducible.

* :class:`PaperWriteReadSource` — the paper's testbench policy: masters
  "execute WRITE-READ noninterruptible sequences and IDLE commands, for
  a random number of times; only in this period a bus handover can
  occur".
* :class:`RandomSource` — uniform random single transfers.
* :class:`DmaBurstSource` — fixed-length burst traffic (a DMA engine).
* :class:`CpuLikeSource` — read-dominated traffic with spatial
  locality, modelling an instruction/data fetch mix.
"""

from __future__ import annotations

import random

from ..amba.master import TrafficSource
from ..amba.transactions import AhbTransaction
from ..amba.types import HBURST, HSIZE, burst_beats, size_bytes
from ..state.rng import load_rng_state, rng_state


def _randrange(rng, start, stop):
    """``rng.randrange(start, stop)``: the same draws, for less.

    The library call checks and coerces its arguments, then draws
    ``start + rng._randbelow(stop - start)``, which takes
    ``getrandbits(k)`` for ``k = width.bit_length()`` until the value
    falls below the width.  The wrapper is most of the cost of a small
    draw, and most generated transactions draw one.  An empty range
    goes to the library, which raises.
    """
    width = stop - start
    if width <= 0:
        return rng.randrange(start, stop)
    bits = width.bit_length()
    getrandbits = rng.getrandbits
    value = getrandbits(bits)
    while value >= width:
        value = getrandbits(bits)
    return start + value


class BoundedSource(TrafficSource):
    """Common bookkeeping: issue budget and generated-transaction log."""

    def __init__(self, seed=0, max_transactions=None):
        self.rng = random.Random(seed)
        self.max_transactions = max_transactions
        self.issued = 0

    def exhausted(self):
        """True once the issue budget is spent."""
        return (self.max_transactions is not None
                and self.issued >= self.max_transactions)

    def next_transaction(self, now):
        # exhausted(), inlined: it runs once per generated transaction
        limit = self.max_transactions
        if limit is not None and self.issued >= limit:
            return None
        txn = self._generate(now)
        if txn is not None:
            self.issued += 1
        return txn

    def _generate(self, now):  # pragma: no cover - interface
        raise NotImplementedError

    def state_dict(self):
        return {"rng": rng_state(self.rng), "issued": self.issued}

    def load_state_dict(self, state):
        load_rng_state(self.rng, state["rng"])
        self.issued = state["issued"]


class PaperWriteReadSource(BoundedSource):
    """WRITE–READ atomic pairs separated by random IDLE gaps.

    A *sequence* is 1..``max_pairs`` back-to-back WRITE–READ pairs to
    random addresses of the configured regions (back-to-back transfers
    keep ``HTRANS`` active, so the arbiter cannot hand the bus over
    mid-sequence — the paper's "non-interruptible" property).  Between
    sequences the master idles for a random number of cycles, releasing
    the bus; handovers happen only there.

    Parameters
    ----------
    regions:
        List of ``(base, size)`` address windows to target.
    max_pairs:
        Upper bound of the per-sequence pair count (uniform 1..N).
    idle_range:
        ``(lo, hi)`` bounds of the inter-sequence idle gap in cycles.
    locality:
        Probability that consecutive pairs target the same slave
        region — masters in a SoC have slave affinity (a CPU hits its
        RAM, a DMA engine its peripheral), which keeps decoder and
        read-mux thrash realistic.
    """

    def __init__(self, regions, seed=0, max_transactions=None,
                 max_pairs=4, idle_range=(1, 6), hsize=HSIZE.WORD,
                 locality=0.8):
        super().__init__(seed=seed, max_transactions=max_transactions)
        if not regions:
            raise ValueError("need at least one address region")
        self.regions = list(regions)
        self.max_pairs = max_pairs
        self.idle_range = idle_range
        self.hsize = HSIZE(hsize)
        self.locality = locality
        self._region = self.regions[0]
        self._pending = []
        self.pairs_generated = 0

    def _random_address(self):
        if self.rng.random() >= self.locality:
            self._region = self.rng.choice(self.regions)
        base, size = self._region
        step = size_bytes(self.hsize)
        offset = self.rng.randrange(0, size // step) * step
        return base + offset

    def _new_sequence(self):
        pairs = self.rng.randint(1, self.max_pairs)
        idle_gap = self.rng.randint(*self.idle_range)
        for pair_index in range(pairs):
            address = self._random_address()
            data = self.rng.getrandbits(8 * size_bytes(self.hsize))
            write = AhbTransaction(
                True, address, data=[data], hsize=self.hsize,
                idle_cycles_before=idle_gap if pair_index == 0 else 0,
            )
            read = AhbTransaction(False, address, hsize=self.hsize)
            self._pending.append(write)
            self._pending.append(read)
            self.pairs_generated += 1

    def _generate(self, now):
        if not self._pending:
            self._new_sequence()
        return self._pending.pop(0)

    def state_dict(self):
        from ..amba.transactions import txn_state
        state = super().state_dict()
        state["region"] = list(self._region)
        state["pending"] = [txn_state(txn) for txn in self._pending]
        state["pairs_generated"] = self.pairs_generated
        return state

    def load_state_dict(self, state):
        from ..amba.transactions import txn_from_state
        super().load_state_dict(state)
        self._region = tuple(state["region"])
        self._pending = [txn_from_state(txn)
                         for txn in state["pending"]]
        self.pairs_generated = state["pairs_generated"]


class RandomSource(BoundedSource):
    """Independent uniform random single transfers (50 % writes)."""

    def __init__(self, regions, seed=0, max_transactions=None,
                 write_fraction=0.5, idle_range=(0, 3),
                 hsize=HSIZE.WORD):
        super().__init__(seed=seed, max_transactions=max_transactions)
        self.regions = list(regions)
        self.write_fraction = write_fraction
        self.idle_range = idle_range
        self.hsize = HSIZE(hsize)

    def _generate(self, now):
        base, size = self.rng.choice(self.regions)
        step = size_bytes(self.hsize)
        address = base + self.rng.randrange(0, size // step) * step
        idle = self.rng.randint(*self.idle_range)
        if self.rng.random() < self.write_fraction:
            data = self.rng.getrandbits(8 * step)
            return AhbTransaction(True, address, data=[data],
                                  hsize=self.hsize,
                                  idle_cycles_before=idle)
        return AhbTransaction(False, address, hsize=self.hsize,
                              idle_cycles_before=idle)


class DmaBurstSource(BoundedSource):
    """Fixed-length burst traffic: alternating write and read bursts."""

    def __init__(self, regions, seed=0, max_transactions=None,
                 burst=HBURST.INCR8, idle_range=(2, 10),
                 hsize=HSIZE.WORD):
        super().__init__(seed=seed, max_transactions=max_transactions)
        self.regions = list(regions)
        self.burst = HBURST(burst)
        self.idle_range = idle_range
        self.hsize = HSIZE(hsize)
        self._write_next = True

    def _generate(self, now):
        rng = self.rng
        beats = burst_beats(self.burst) or 8
        step = 1 << self.hsize
        span = beats * step
        base, size = rng.choice(self.regions)
        if size < span:
            raise ValueError("region smaller than one burst")
        address = base + _randrange(rng, 0, size // span) * span
        # randint(low, high) is randrange(low, high + 1): the same draw
        low, high = self.idle_range
        idle = _randrange(rng, low, high + 1)
        write = self._write_next
        self._write_next = not self._write_next
        if write:
            getrandbits = rng.getrandbits
            data = [getrandbits(8 * step) for _ in range(beats)]
            return AhbTransaction(True, address, data=data,
                                  hburst=self.burst, hsize=self.hsize,
                                  idle_cycles_before=idle)
        return AhbTransaction(False, address, hburst=self.burst,
                              hsize=self.hsize, idle_cycles_before=idle)

    def state_dict(self):
        state = super().state_dict()
        state["write_next"] = self._write_next
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._write_next = state["write_next"]


class CpuLikeSource(BoundedSource):
    """Read-dominated traffic with spatial locality.

    80 % reads; addresses random-walk within a region with occasional
    jumps, approximating instruction fetch plus stack/data traffic.
    """

    def __init__(self, regions, seed=0, max_transactions=None,
                 read_fraction=0.8, jump_probability=0.1,
                 idle_range=(0, 2), hsize=HSIZE.WORD):
        super().__init__(seed=seed, max_transactions=max_transactions)
        self.regions = list(regions)
        self.read_fraction = read_fraction
        self.jump_probability = jump_probability
        self.idle_range = idle_range
        self.hsize = HSIZE(hsize)
        base, size = self.regions[0]
        self._cursor = base
        self._region = (base, size)

    def _generate(self, now):
        rng = self.rng
        hsize = self.hsize
        step = 1 << hsize
        base, size = self._region
        if rng.random() < self.jump_probability:
            self._region = rng.choice(self.regions)
            base, size = self._region
            self._cursor = base + rng.randrange(0, size // step) * step
        address = self._cursor
        self._cursor += step
        if self._cursor >= base + size:
            self._cursor = base
        # randint(low, high) is randrange(low, high + 1): the same draw
        low, high = self.idle_range
        idle = _randrange(rng, low, high + 1)
        if rng.random() < self.read_fraction:
            return AhbTransaction(False, address, hsize=hsize,
                                  idle_cycles_before=idle)
        data = rng.getrandbits(8 * step)
        return AhbTransaction(True, address, data=[data], hsize=hsize,
                              idle_cycles_before=idle)

    def state_dict(self):
        state = super().state_dict()
        state["cursor"] = self._cursor
        state["region"] = list(self._region)
        return state

    def load_state_dict(self, state):
        super().load_state_dict(state)
        self._cursor = state["cursor"]
        self._region = tuple(state["region"])


class ReplaySource(BoundedSource):
    """Replays an explicit list of transactions (trace replay)."""

    def __init__(self, transactions):
        super().__init__(seed=0, max_transactions=len(transactions))
        self._transactions = list(transactions)

    def _generate(self, now):
        if not self._transactions:
            return None
        return self._transactions.pop(0)

    def state_dict(self):
        from ..amba.transactions import txn_state
        state = super().state_dict()
        state["transactions"] = [txn_state(txn)
                                 for txn in self._transactions]
        return state

    def load_state_dict(self, state):
        from ..amba.transactions import txn_from_state
        super().load_state_dict(state)
        self._transactions = [txn_from_state(txn)
                              for txn in state["transactions"]]
