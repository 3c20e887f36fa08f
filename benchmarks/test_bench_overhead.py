"""E6 — §6 claim: power instrumentation doubles the simulation time.

Times the paper testbench with the global power monitor attached and
writing every cycle's energy to an output file (the paper's POWERTEST
instrumentation) vs the pure functional build (the switch off).  The
paper reports "a doubling in the simulation time"; the reproduction
target is a measurable, bounded slowdown of the same order.  The
default batched monitor's slowdown is recorded next to it, ungated.
Figures land in ``BENCH_overhead.json`` for the PR-over-PR
trajectory.
"""

from conftest import report

from repro.analysis import run_overhead


def test_powertest_overhead(run_once, bench_json):
    result = run_once(run_overhead, seed=1, repeats=3)
    report(result)
    assert 1.05 <= result.metrics["ratio"] <= 6.0
    bench_json("powertest_overhead",
               baseline_s=result.metrics["baseline_s"],
               instrumented_s=result.metrics["instrumented_s"],
               ratio=result.metrics["ratio"],
               batched_s=result.metrics["batched_s"],
               batched_ratio=result.metrics["batched_ratio"])


def test_functional_behaviour_unchanged_by_instrumentation():
    """The power code must be observe-only: same transactions, same
    handovers with and without it (paper §4: "this code does not have
    to modify the system behavior")."""
    from repro.kernel import us
    from repro.workloads import build_paper_testbench

    with_power = build_paper_testbench(seed=1)
    with_power.run(us(50))
    without = build_paper_testbench(seed=1, power_analysis=False)
    without.run(us(50))
    assert with_power.transactions_completed() == \
        without.transactions_completed()
    assert with_power.bus.arbiter.handover_count == \
        without.bus.arbiter.handover_count
