"""E11 — infrastructure benchmarks: simulation throughput.

Not a paper artefact but the quantity that makes the methodology usable:
"the simulation of a complete SoC ... can be several hundreds times
faster than an RTL simulation".  Tracks kernel cycles/second, bus
transfer throughput and gate-level vectors/second, and records the
figures to ``BENCH_throughput.json`` for the PR-over-PR trajectory.
"""

import time

from conftest import bench_seconds

from repro.compiled import compile_system
from repro.gatelevel import GateLevelSimulator, run_batch, synth_mux
from repro.kernel import Clock, MHz, Signal, Simulator, us
from repro.workloads import build_paper_testbench


def test_kernel_cycle_throughput(benchmark, bench_json):
    """Raw kernel: one clocked method process counting edges."""
    def run():
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        count = Signal(sim, "count", width=32)
        sim.add_method(lambda: count.write(count.value + 1),
                       [clk.posedge], initialize=False)
        sim.run(until=us(200))
        return count.value

    start = time.perf_counter()
    cycles = benchmark(run)
    seconds = bench_seconds(benchmark, time.perf_counter() - start)
    assert cycles == 20_000
    bench_json("kernel_cycle_throughput", cycles=cycles,
               seconds=seconds, cycles_per_s=cycles / seconds)


def test_bus_simulation_throughput(benchmark, bench_json):
    """Full paper testbench with power analysis (the common case)."""
    def run():
        testbench = build_paper_testbench(seed=1, checker=False)
        testbench.run(us(50))
        return testbench.ledger.cycles

    start = time.perf_counter()
    cycles = benchmark(run)
    seconds = bench_seconds(benchmark, time.perf_counter() - start)
    assert cycles == 5_000
    bench_json("bus_simulation_throughput", cycles=cycles,
               seconds=seconds, cycles_per_s=cycles / seconds)


def test_compiled_bus_throughput(benchmark, bench_json):
    """Paper testbench on the compiled engine (repro.compiled).

    Same workload as ``bus_simulation_throughput``; compilation
    (graph extraction, levelization, codegen) happens inside the
    timed region and costs ~1 ms against a multi-hundred-ms run.
    The engine must actually execute compiled — a silent decline to
    the interpreted loop would fake the figure.
    """
    def run():
        testbench = build_paper_testbench(seed=1, checker=False)
        engine = compile_system(testbench)
        testbench.run(us(50))
        assert engine.runs_compiled > 0, engine.fallback_reason
        return testbench.ledger.cycles

    start = time.perf_counter()
    cycles = benchmark(run)
    seconds = bench_seconds(benchmark, time.perf_counter() - start)
    assert cycles == 5_000
    bench_json("compiled_bus_throughput", cycles=cycles,
               seconds=seconds, cycles_per_s=cycles / seconds)


def test_bus_functional_only_throughput(benchmark, bench_json):
    """POWERTEST off: the fast architectural-exploration mode."""
    def run():
        testbench = build_paper_testbench(seed=1, checker=False,
                                          power_analysis=False)
        testbench.run(us(50))
        return testbench.transactions_completed()

    start = time.perf_counter()
    transactions = benchmark(run)
    seconds = bench_seconds(benchmark, time.perf_counter() - start)
    assert transactions > 1000
    bench_json("bus_functional_only_throughput",
               transactions=transactions, seconds=seconds,
               txns_per_s=transactions / seconds)


def test_gate_level_vector_throughput(benchmark, bench_json):
    """Gate-level characterisation speed, scalar vs vectorized.

    Runs the same 2000-vector sweep through the scalar per-cell
    interpreter and through :func:`repro.gatelevel.run_batch` (one
    NumPy expression per cell over the whole batch) on fresh
    simulators, asserts the exact-integer activity counts and the
    bit-identical energy ledgers agree, and records both rates plus
    the speedup.
    """
    vectors = [
        {"d0": (17 * k) & 0xFFFFFFFF, "d1": 0, "d2": k,
         "d3": ~k & 0xFFFFFFFF, "s": k % 4}
        for k in range(2000)
    ]

    netlist = synth_mux(4, 32)
    sweeps = []

    def run_scalar():
        # Fresh simulator per round: the benchmark fixture may repeat
        # this, and activity counts must stay one-sweep comparable.
        sim = GateLevelSimulator(netlist)
        for vector in vectors:
            sim.step_ints(**vector)
        sweeps.append(sim)
        return sim.total_toggles

    start = time.perf_counter()
    benchmark(run_scalar)
    scalar_seconds = bench_seconds(benchmark,
                                   time.perf_counter() - start)
    scalar_sim = sweeps[-1]

    batch_sim = GateLevelSimulator(netlist)
    start = time.perf_counter()
    run_batch(batch_sim, vectors)
    batch_seconds = time.perf_counter() - start

    assert batch_sim.total_toggles == scalar_sim.total_toggles
    assert batch_sim.steps == scalar_sim.steps
    assert batch_sim.total_energy == scalar_sim.total_energy

    count = len(vectors)
    bench_json("gate_level_vector_throughput", vectors=count,
               seconds=scalar_seconds,
               vectors_per_s=count / scalar_seconds)
    bench_json("gate_level_vectorized_throughput", vectors=count,
               seconds=batch_seconds,
               vectors_per_s=count / batch_seconds,
               speedup_vs_scalar=scalar_seconds / batch_seconds)
