"""Traffic source and testbench assembly tests."""

import pytest

from repro.amba import HBURST
from repro.kernel import us
from repro.workloads import (
    AhbSystem,
    CpuLikeSource,
    DmaBurstSource,
    PaperWriteReadSource,
    RandomSource,
    ReplaySource,
    build_paper_testbench,
)

REGIONS = [(0x0000, 0x1000), (0x1000, 0x1000)]


class TestPaperSource:
    def test_write_read_pairing(self):
        source = PaperWriteReadSource(REGIONS, seed=3)
        txns = [source.next_transaction(0) for _ in range(20)]
        for write, read in zip(txns[0::2], txns[1::2]):
            assert write.write and not read.write
            assert write.address == read.address
            assert read.idle_cycles_before == 0  # atomic pair

    def test_idle_gap_only_before_sequences(self):
        source = PaperWriteReadSource(REGIONS, seed=3, max_pairs=3,
                                      idle_range=(2, 5))
        txns = [source.next_transaction(0) for _ in range(30)]
        gaps = [t.idle_cycles_before for t in txns]
        nonzero = [g for g in gaps if g]
        assert nonzero
        assert all(2 <= g <= 5 for g in nonzero)

    def test_addresses_stay_in_regions(self):
        source = PaperWriteReadSource(REGIONS, seed=3)
        for _ in range(50):
            txn = source.next_transaction(0)
            assert any(base <= txn.address < base + size
                       for base, size in REGIONS)

    def test_locality(self):
        sticky = PaperWriteReadSource(REGIONS, seed=3, locality=1.0)
        regions = set()
        for _ in range(40):
            txn = sticky.next_transaction(0)
            regions.add(txn.address & ~0xFFF)
        assert len(regions) == 1

    def test_determinism(self):
        def addresses(seed):
            source = PaperWriteReadSource(REGIONS, seed=seed)
            return [source.next_transaction(0).address
                    for _ in range(20)]
        assert addresses(5) == addresses(5)
        assert addresses(5) != addresses(6)

    def test_max_transactions(self):
        source = PaperWriteReadSource(REGIONS, seed=1,
                                      max_transactions=6)
        txns = [source.next_transaction(0) for _ in range(10)]
        assert sum(1 for t in txns if t is not None) == 6

    def test_empty_regions_rejected(self):
        with pytest.raises(ValueError):
            PaperWriteReadSource([], seed=1)


class TestOtherSources:
    def test_random_source_mix(self):
        source = RandomSource(REGIONS, seed=2, write_fraction=0.5)
        txns = [source.next_transaction(0) for _ in range(100)]
        writes = sum(1 for t in txns if t.write)
        assert 25 <= writes <= 75

    def test_dma_alternates_write_read(self):
        source = DmaBurstSource(REGIONS, seed=2, burst=HBURST.INCR4)
        txns = [source.next_transaction(0) for _ in range(6)]
        assert [t.write for t in txns] == [True, False] * 3
        assert all(t.hburst == HBURST.INCR4 for t in txns)

    def test_dma_region_too_small_rejected(self):
        source = DmaBurstSource([(0, 16)], seed=2, burst=HBURST.INCR16)
        with pytest.raises(ValueError):
            source.next_transaction(0)

    def test_cpu_like_is_read_dominated_and_local(self):
        source = CpuLikeSource(REGIONS, seed=2, read_fraction=0.8,
                               jump_probability=0.0)
        txns = [source.next_transaction(0) for _ in range(100)]
        reads = sum(1 for t in txns if not t.write)
        assert reads > 60
        addresses = [t.address for t in txns]
        sequential = sum(1 for a, b in zip(addresses, addresses[1:])
                         if b - a == 4 or b < a)
        assert sequential == len(addresses) - 1

    def test_randrange_draws_as_the_library(self):
        import random

        from repro.workloads.patterns import _randrange
        for seed in range(20):
            ours, library = random.Random(seed), random.Random(seed)
            for start, stop in ((0, 1), (0, 3), (2, 11), (-5, 5),
                                (0, 1 << 40), (7, 8 + seed)):
                assert [_randrange(ours, start, stop)
                        for _ in range(50)] == \
                    [library.randrange(start, stop) for _ in range(50)]
            assert ours.getstate() == library.getstate()
        for start, stop in ((3, 3), (4, 2)):
            with pytest.raises(ValueError, match="empty range"):
                _randrange(random.Random(0), start, stop)

    def test_replay_source(self):
        from repro.amba import AhbTransaction
        txns = [AhbTransaction.read(0), AhbTransaction.read(4)]
        source = ReplaySource(txns)
        assert source.next_transaction(0) is txns[0]
        assert source.next_transaction(0) is txns[1]
        assert source.next_transaction(0) is None


class TestAhbSystem:
    def test_assembly_counts(self):
        sources = [RandomSource(REGIONS, seed=k) for k in range(2)]
        system = AhbSystem(sources, n_slaves=2)
        assert len(system.masters) == 2
        assert len(system.slaves) == 2
        assert system.config.n_masters == 3  # + default master

    def test_monitor_style_validation(self):
        with pytest.raises(ValueError):
            AhbSystem([RandomSource(REGIONS)], monitor_style="bogus")
        with pytest.raises(ValueError):
            AhbSystem([])

    def test_run_advances_time(self):
        system = AhbSystem([RandomSource(REGIONS, seed=1)], n_slaves=2)
        system.run(us(5))
        assert system.sim.now == us(5)
        system.run(us(5))
        assert system.sim.now == us(10)

    def test_paper_testbench_shape(self):
        tb = build_paper_testbench(seed=1)
        assert len(tb.masters) == 2
        assert len(tb.slaves) == 3
        assert tb.config.default_master == 2
        assert tb.clk.period == 10_000  # 100 MHz

    def test_paper_testbench_runs_clean(self):
        tb = build_paper_testbench(seed=4)
        tb.run(us(20))
        tb.assert_protocol_clean()
        assert tb.transactions_completed() > 100
        # every completed read of a pair returns the written value
        for master in tb.masters:
            completed = master.completed
            for write, read in zip(completed[0::2], completed[1::2]):
                if write.write and not read.write and \
                        write.address == read.address:
                    assert read.rdata == write.data
