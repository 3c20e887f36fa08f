"""ISSUE 9 — transaction-level tier: speedup and calibrated accuracy.

The TLM tier's reason to exist is wall-clock: architectural surveys at
transactions-per-second rates the cycle-accurate kernel cannot reach,
inside a declared energy/latency error bound.  Records both sides of
that trade to ``BENCH_tlm.json``: the transaction-throughput speedup
over the cycle-accurate tier (acceptance floor: 20x) and the
per-scenario held-out energy error of the committed table.
"""

import gc
import time

from repro.amba.transactions import reset_txn_ids
from repro.kernel import us
from repro.tlm import TlmSystem, load_default_table
from repro.tlm.calibrate import reference_run
from repro.tlm.validate import VALIDATION_SEED, validate_table
from repro.workloads import plan_scenario

SCENARIO = "portable-audio-player"
DURATION_US = 50.0
#: Alternating timed rounds per tier in the speedup gate.
ROUNDS = 10


def test_tlm_transaction_throughput_speedup(run_once, bench_json):
    """Transactions/second, TLM vs cycle-accurate, same stimulus.

    Both sides are timed alike.  A single run varies by 10-30 % on a
    shared host, whose cores switch between fast and slow spells, so
    the two tiers alternate over ``ROUNDS`` rounds (which one goes
    first alternates too) and their total times compare.  Each run
    starts from a collected heap with GC disabled inside it: both tiers
    retain every completed transaction, and collector pauses would
    otherwise dominate the millisecond-scale TLM runs.
    """
    table = load_default_table()

    def run_cycle():
        return reference_run(SCENARIO, VALIDATION_SEED, DURATION_US)

    def run_tlm():
        reset_txn_ids()
        system = TlmSystem(
            plan_scenario(SCENARIO, seed=VALIDATION_SEED), table,
            scenario=SCENARIO, retry_limit=None, retry_backoff=0)
        system.run(us(DURATION_US))
        return system

    def timed(fn):
        gc.collect()
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            system = fn()
            return system, time.perf_counter() - start
        finally:
            if gc_was_enabled:
                gc.enable()

    def alternate():
        seconds = {run_cycle: 0.0, run_tlm: 0.0}
        systems = {}
        for index in range(ROUNDS):
            order = ((run_cycle, run_tlm) if index % 2 == 0
                     else (run_tlm, run_cycle))
            for fn in order:
                systems[fn], elapsed = timed(fn)
                seconds[fn] += elapsed
        return systems, seconds

    systems, seconds = run_once(alternate)
    cycle_txns = systems[run_cycle].transactions_completed()
    tlm_txns = systems[run_tlm].transactions_completed()
    cycle_seconds = seconds[run_cycle] / ROUNDS
    tlm_seconds = seconds[run_tlm] / ROUNDS

    cycle_rate = cycle_txns / cycle_seconds
    tlm_rate = tlm_txns / tlm_seconds
    speedup = tlm_rate / cycle_rate
    assert speedup >= 20.0, (
        "TLM transaction throughput only %.1fx the cycle tier "
        "(acceptance floor: 20x)" % speedup)
    bench_json(
        "tlm_transaction_throughput",
        scenario=SCENARIO, duration_us=DURATION_US, rounds=ROUNDS,
        cycle_txns=cycle_txns, cycle_seconds=cycle_seconds,
        cycle_txns_per_s=cycle_rate,
        tlm_txns=tlm_txns, tlm_seconds=tlm_seconds,
        tlm_txns_per_s=tlm_rate, speedup=speedup,
    )


def test_tlm_energy_error_within_bound(bench_json):
    """Held-out per-scenario energy error of the committed table."""
    table = load_default_table()
    report = validate_table(table, duration_us=40.0)
    assert report.passed, "\n" + report.summary()
    bench_json(
        "tlm_energy_error",
        table_digest=report.table_digest,
        seed=report.seed, duration_us=report.duration_us,
        bound_energy_pct=report.bound["energy_pct"],
        bound_latency_cycles=report.bound["latency_cycles"],
        **{
            entry.scenario.replace("-", "_"): {
                "energy_error_pct": entry.energy_error_pct,
                "latency_error_cycles": entry.latency_error_cycles,
            }
            for entry in report.entries
        }
    )
