"""Shared fixtures for the test suite."""

import pytest

from repro.amba import (
    AhbBus,
    AhbConfig,
    AhbMaster,
    AhbProtocolChecker,
    DefaultMaster,
    MemorySlave,
)
from repro.kernel import Clock, MHz, Simulator


class SmallSystem:
    """A compact 2-active-master, 2-slave AHB system for tests."""

    def __init__(self, wait_states=(0, 0), retry_period=0,
                 arbitration="fixed-priority", data_width=32,
                 region_size=0x1000):
        self.sim = Simulator()
        self.clk = Clock.from_frequency(self.sim, "clk", MHz(100))
        self.config = AhbConfig.with_uniform_map(
            n_masters=3, n_slaves=2, region_size=region_size,
            data_width=data_width, arbitration=arbitration,
            default_master=2,
        )
        self.bus = AhbBus(self.sim, "ahb", self.clk, self.config)
        self.m0 = AhbMaster(self.sim, "m0", self.clk,
                            self.bus.master_ports[0], self.bus)
        self.m1 = AhbMaster(self.sim, "m1", self.clk,
                            self.bus.master_ports[1], self.bus)
        self.dm = DefaultMaster(self.sim, "dm", self.clk,
                                self.bus.master_ports[2], self.bus)
        self.slaves = [
            MemorySlave(self.sim, "s%d" % index, self.clk,
                        self.bus.slave_ports[index], self.bus,
                        base=index * region_size,
                        wait_states=wait_states[index],
                        retry_period=retry_period)
            for index in range(2)
        ]
        self.checker = AhbProtocolChecker(self.sim, "chk", self.bus)

    def run_us(self, micros):
        from repro.kernel import us
        self.sim.run(until=self.sim.now + us(micros))
        return self

    def assert_clean(self):
        assert self.checker.ok, self.checker.violations[:5]


@pytest.fixture
def small_system():
    return SmallSystem()


@pytest.fixture
def small_system_waits():
    return SmallSystem(wait_states=(1, 2))


class NoOpObserver:
    """A kernel observer that records nothing.  Attaching one keeps
    every record/replay consumer on its per-cycle method on both
    engines."""

    def on_process(self, process, now, seconds):
        pass

    def on_settle(self, now, deltas):
        pass


def per_cycle(system):
    """``execute`` instrument: keep every consumer per-cycle."""
    system.sim.attach_observer(NoOpObserver())
