"""The transaction-level AHB tier: determinism, faults, parity.

The TLM engine advances in transaction-sized steps with no event
kernel underneath, yet it must honour the same contracts as the
cycle-accurate tier: bit-identical repeat runs, identical serial vs
``--jobs 2`` campaign results, honest fault outcomes, and a refusal
to silently approximate what it cannot model (signal-level faults).
"""

import json

import pytest

from repro.amba.transactions import reset_txn_ids
from repro.faults import run_fault_campaign
from repro.kernel import us
from repro.replay import FaultEntry, campaign_spec, execute
from repro.tlm import TlmSystem, load_default_table
from repro.workloads import SCENARIO_PLANS, plan_scenario


def tlm_run(scenario="portable-audio-player", seed=3,
            duration_us=20.0, **kwargs):
    reset_txn_ids()
    system = TlmSystem(plan_scenario(scenario, seed=seed),
                       load_default_table(), scenario=scenario,
                       **kwargs)
    system.run(us(duration_us))
    return system


class TestDeterminism:
    def test_repeat_runs_bit_identical(self):
        first = tlm_run()
        second = tlm_run()
        assert first.ledger.total_energy == second.ledger.total_energy
        assert first.transactions_completed() \
            == second.transactions_completed()
        assert first.clk.cycles == second.clk.cycles
        assert dict(first.ledger.block_energy) \
            == dict(second.ledger.block_energy)

    def test_block_energy_conserved(self):
        """The ledger invariant survives bulk charging: block energies
        sum to the total."""
        system = tlm_run()
        total = system.ledger.total_energy
        assert total > 0
        assert sum(system.ledger.block_energy.values()) \
            == pytest.approx(total, rel=1e-12)

    def test_every_named_scenario_runs(self):
        for scenario in sorted(SCENARIO_PLANS):
            system = tlm_run(scenario=scenario, duration_us=10.0)
            assert system.transactions_completed() > 0, scenario
            assert system.ledger.total_energy > 0, scenario


class TestFaultOutcomes:
    def _outcome(self, fault):
        spec = campaign_spec("portable-audio-player", fault=fault,
                             duration_us=10.0, tier="tlm")
        system, outcome = execute(spec)
        return system, outcome

    def test_always_retry_recovers_with_watchdog(self):
        system, outcome = self._outcome("always-retry")
        assert outcome.outcome == "recovered"
        assert outcome.watchdog_events > 0
        assert outcome.aborted > 0

    def test_hung_slave_detected(self):
        system, outcome = self._outcome("hung-slave")
        assert outcome.outcome == "recovered"
        assert outcome.watchdog_events > 0
        assert outcome.failed > 0

    def test_unreleased_split_detected(self):
        system, outcome = self._outcome("unreleased-split")
        assert outcome.outcome == "recovered"
        assert outcome.watchdog_events > 0

    def test_fault_energy_overhead_charged(self):
        """Non-OKAY response cycles carry energy on the TLM tier too
        (the paper's overhead accounting)."""
        _, faulted = self._outcome("always-retry")
        assert faulted.overhead_energy_j > 0


class TestWallClockBudget:
    def test_exhausted_budget_is_a_timeout(self):
        """A TLM run past its host wall-clock budget times out like a
        cycle-tier run: the error carries the elapsed time, the budget
        and the simulated time reached."""
        from repro.tlm import execute_tlm
        spec = campaign_spec("portable-audio-player", seed=1,
                             duration_us=2000.0).replace(tier="tlm")
        system, outcome = execute_tlm(spec, wall_clock_budget=0.0)
        assert outcome.outcome == "timeout", outcome.detail
        assert "wall-clock budget exhausted" in outcome.detail
        assert 0 < system.clk.cycles < 200_000


class TestFidelityRefusal:
    def test_signal_fault_refused_not_approximated(self):
        """Signal-level faults need kernel wires the TLM does not
        model: the run must crash loudly, never silently skip."""
        spec = campaign_spec("portable-audio-player",
                             duration_us=5.0, tier="tlm")
        spec.faults += [FaultEntry.signal_fault(
            "glitch", "hwdata", value=0xDEAD, start_ps=0)]
        system, outcome = execute(spec)
        assert outcome.outcome == "crashed"
        assert "signal" in (outcome.detail or "").lower()


    def test_tiers_contain_a_crash_alike(self):
        """Both tiers contain an elaboration crash the same way: no
        system, the same zeroed ``crashed`` fingerprint, and the
        traceback kept beside it."""
        spec = campaign_spec("portable-audio-player", duration_us=5.0)
        spec.faults += [FaultEntry.signal_fault(
            "glitch", "hwdata", value=0xDEAD, start_ps=0)]
        tlm_system, tlm = execute(spec.replace(tier="tlm"))
        cycle_system, cycle = execute(
            spec.replace(scenario_kwargs={"bogus": 1}))
        assert tlm_system is None and cycle_system is None
        fingerprints = []
        for outcome, error in ((tlm, "TlmFidelityError"),
                               (cycle, "TypeError")):
            fingerprint = outcome.fingerprint()
            assert fingerprint.pop("detail").startswith(error + ": ")
            assert outcome.traceback_text.startswith("Traceback")
            assert outcome.traceback_text.splitlines()[-1].endswith(
                outcome.detail)
            fingerprints.append(fingerprint)
        assert fingerprints[0] == fingerprints[1]
        assert fingerprints[0]["outcome"] == "crashed"


class TestSerialParallelParity:
    def test_jobs2_campaign_identical(self):
        """ISSUE 9 acceptance: a TLM campaign gives byte-identical
        results and merged metrics serial vs ``--jobs 2``."""
        kwargs = dict(
            scenarios=("portable-audio-player",),
            faults=("none", "always-retry", "hung-slave"),
            duration_us=10.0, tier="tlm", timeout=120,
        )
        serial = run_fault_campaign(jobs=1, **kwargs)
        parallel = run_fault_campaign(jobs=2, **kwargs)

        def comparable(campaign):
            runs = []
            for run in sorted(campaign.runs,
                              key=lambda r: r.run_id):
                data = run.to_dict()
                data.pop("wall_time_s", None)  # host timing only
                runs.append(data)
            return json.dumps(runs, sort_keys=True)

        assert comparable(serial) == comparable(parallel)
        assert json.dumps(serial.metrics().merged, sort_keys=True) \
            == json.dumps(parallel.metrics().merged, sort_keys=True)

    def test_tier_recorded_in_results_and_metrics(self):
        campaign = run_fault_campaign(
            scenarios=("portable-audio-player",), faults=("none",),
            duration_us=5.0, tier="tlm")
        assert all(run.tier == "tlm" for run in campaign.runs)
        merged = campaign.metrics().merged
        series = merged["counters"]["campaign_tier_runs_total"]["series"]
        assert any("tier=tlm" in key for key in series)
