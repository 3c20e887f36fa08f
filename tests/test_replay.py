"""Deterministic record/replay and the failure shrinker."""

import importlib
import json

import pytest

from repro.cli import main
from repro.faults import run_fault_campaign
from repro.replay import (
    FORMAT,
    FaultEntry,
    ReplayTrace,
    RunOutcome,
    RunSpec,
    campaign_spec,
    execute,
    failure_signature,
    shrink,
)

QUICK = dict(duration_us=5.0)

#: The module (the package's ``shrink`` attribute is the function).
shrink_module = importlib.import_module("repro.replay.shrink")


def retry_spec(**overrides):
    """A small failing run: always-RETRY slave under the campaign
    resilience stack (trips the retry-livelock rule)."""
    params = dict(QUICK)
    params.update(overrides)
    return campaign_spec("portable-audio-player", fault="always-retry",
                         **params)


def padded_spec():
    """The failing run plus three no-op signal faults (their windows
    open long after the run ends)."""
    spec = retry_spec()
    far = 10**12
    spec.faults += [
        FaultEntry.signal_fault("glitch", "hwdata", value=0xDEAD,
                                start_ps=far),
        FaultEntry.signal_fault("bit-flip", "haddr", bit=2,
                                start_ps=far, end_ps=far + 1000),
        FaultEntry.signal_fault("stuck-at", "htrans", bit=0,
                                start_ps=far, end_ps=far + 1000),
    ]
    return spec


def count_shrink_executions(monkeypatch):
    """The spec key of every run the shrinker executes, in order."""
    executed = []

    def counting(candidate, **kwargs):
        executed.append(candidate.key())
        return execute(candidate, **kwargs)

    monkeypatch.setattr(shrink_module, "execute", counting)
    return executed


def hresp_crash_spec():
    """A crashing run: a one-cycle glitch of HRESP to 7 makes the power
    monitor process raise (a ``ProcessError``)."""
    return campaign_spec("portable-audio-player", seed=3,
                         duration_us=3.0).replace(
        scenario_kwargs={"checker": False}, watchdog=False,
        faults=[FaultEntry.signal_fault("glitch", "hresp", value=7,
                                        cycles=1, start_ps=1_000_000)])


class TestSpecSerde:
    def test_spec_round_trips_through_json(self):
        spec = padded_spec()
        clone = RunSpec.from_dict(
            json.loads(json.dumps(spec.to_dict())))
        assert clone.key() == spec.key()
        assert [f.describe() for f in clone.faults] \
            == [f.describe() for f in spec.faults]

    def test_replace_produces_independent_copy(self):
        spec = retry_spec()
        shorter = spec.replace(duration_us=1.0)
        assert shorter.duration_us == 1.0
        assert spec.duration_us == QUICK["duration_us"]
        assert shorter.scenario == spec.scenario

    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEntry("cosmic-ray")

    def test_trace_format_is_versioned(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other/9", "runs": []}))
        with pytest.raises(ValueError, match=FORMAT):
            ReplayTrace.load(str(path))


class TestBitExactReplay:
    def test_same_spec_reproduces_identical_fingerprint(self):
        spec = retry_spec()
        _, first = execute(spec)
        _, second = execute(spec)
        assert first.failing
        assert first == second
        # the acceptance contract, spelled out:
        assert first.first_violation_cycle \
            == second.first_violation_cycle
        assert first.total_energy_j == second.total_energy_j

    def test_trace_round_trip_replays_bit_exactly(self, tmp_path):
        spec = retry_spec()
        _, outcome = execute(spec)
        trace = ReplayTrace()
        trace.append(spec, outcome)
        path = str(tmp_path / "trace.json")
        trace.save(path)
        loaded = ReplayTrace.load(path)
        assert len(loaded) == 1
        _, recorded, actual, match = loaded.replay(0)
        assert match
        assert recorded.fingerprint() == actual.fingerprint()

    def test_campaign_spec_mirrors_campaign_runner(self):
        from repro.faults import derive_run_seed
        result = run_fault_campaign(
            scenarios=("portable-audio-player",),
            faults=("always-retry",), **QUICK)
        cell = [run for run in result.runs
                if run.fault == "always-retry"][0]
        # The campaign derives each cell's seed from its identity so
        # results are dispatch-order invariant; mirror that here.
        seed = derive_run_seed(1, "portable-audio-player",
                               "always-retry", 0)
        _, outcome = execute(retry_spec(seed=seed))
        assert outcome.outcome == cell.outcome
        assert outcome.completed == cell.completed
        assert outcome.failed == cell.failed
        assert outcome.total_energy_j == cell.total_energy
        assert tuple(outcome.rules_tripped) == cell.rules_tripped

    def test_signal_faults_replay_deterministically(self):
        spec = retry_spec()
        spec.faults.append(FaultEntry.signal_fault(
            "bit-flip", "haddr", bit=4, probability=0.01,
            start_ps=0))
        _, first = execute(spec)
        _, second = execute(spec)
        assert first == second  # seeded injector RNG

    def test_outcome_failing_classification(self):
        healthy = RunOutcome(outcome="completed", violations=0,
                             recovery_compliant=True)
        assert not healthy.failing
        assert RunOutcome(outcome="hung", violations=0,
                          recovery_compliant=True).failing
        assert RunOutcome(outcome="completed", violations=3,
                          recovery_compliant=True).failing
        assert RunOutcome(outcome="completed", violations=0,
                          recovery_compliant=False).failing


class TestShrinker:
    def test_multi_fault_schedule_shrinks_to_minimal_reproducer(self):
        result = shrink(padded_spec())
        # acceptance: a multi-fault schedule reduces to <= 2 faults
        # (here: exactly the one fault that causes the failure).
        assert len(result.spec.faults) <= 2
        assert result.spec.faults[0].mode == "always-retry"
        assert "retry-livelock" in result.outcome.rules_tripped
        assert result.spec.duration_us < QUICK["duration_us"]
        assert result.executions >= 1
        assert any("faults" in step for step in result.steps)
        assert "minimal" in result.summary()

    def test_shrink_is_1_minimal_over_faults(self):
        result = shrink(padded_spec())
        # removing the last remaining fault must kill the failure
        empty = result.spec.replace(faults=[])
        _, outcome = execute(empty)
        assert "retry-livelock" not in outcome.rules_tripped

    def test_shrink_rejects_healthy_runs(self):
        healthy = campaign_spec("portable-audio-player", fault="none",
                                **QUICK)
        with pytest.raises(ValueError, match="not failing"):
            shrink(healthy)

    def test_failure_signature_prefers_violated_rule(self):
        # the rule signature carries the specific rule_id AND its tier
        assert failure_signature(RunOutcome(
            first_violation_rule="wait-limit",
            recovery_compliant=True, outcome="recovered",
        )) == ("rule", "wait-limit", "advisory")
        assert failure_signature(RunOutcome(
            first_violation_rule="alignment",
            recovery_compliant=False, outcome="recovered",
        )) == ("rule", "alignment", "mandatory")
        assert failure_signature(RunOutcome(
            first_violation_rule=None, recovery_compliant=False,
            outcome="recovered",
        )) == ("non-compliant",)
        assert failure_signature(RunOutcome(
            first_violation_rule=None, recovery_compliant=True,
            outcome="hung",
        )) == ("outcome", "hung")

    def test_crash_signature_keys_on_exception_type(self):
        crashed = RunOutcome(
            first_violation_rule=None, recovery_compliant=True,
            outcome="crashed", detail="KeyError: 'htrans'",
        )
        assert failure_signature(crashed) \
            == ("outcome", "crashed", "KeyError")
        other = RunOutcome(
            first_violation_rule=None, recovery_compliant=True,
            outcome="crashed", detail="ValueError: bad burst",
        )
        assert failure_signature(other) != failure_signature(crashed)

    def test_shrink_pins_original_rule_with_cooccurring_violations(
            self):
        # Two independent bugs in one run: a stuck-at on HADDR bit 0
        # trips the mandatory alignment rule first, while an
        # always-RETRY slave trips the advisory retry-livelock rule.
        # ddmin must not slide from the first bug onto the second.
        spec = retry_spec(duration_us=10.0)
        spec.faults.append(FaultEntry.signal_fault(
            "stuck-at", "haddr", bit=0, value=1,
            start_ps=100_000, end_ps=2_000_000))
        _, outcome = execute(spec)
        assert outcome.first_violation_rule == "alignment"
        assert "retry-livelock" in outcome.rules_tripped
        result = shrink(spec)
        assert "alignment" in result.outcome.rules_tripped
        assert result.outcome.first_violation_rule == "alignment"
        # the livelock fault is dead weight for *this* signature
        assert len(result.spec.faults) == 1
        assert result.spec.faults[0].kind == "stuck-at"

    def test_custom_predicate_drives_the_search(self):
        # shrink against outcome classification instead of rules
        result = shrink(retry_spec(),
                        predicate=lambda o: o.outcome == "recovered")
        assert result.outcome.outcome == "recovered"


class TestShrinkFromKnownOutcome:
    """``shrink(spec, original=outcome)`` skips the first run of *spec*
    and changes nothing else."""

    @pytest.mark.parametrize("make_spec, signature", [
        (padded_spec, ("rule", "retry-livelock", "advisory")),
        (hresp_crash_spec, ("outcome", "crashed", "ProcessError")),
    ], ids=["violation", "crash"])
    def test_given_outcome_equals_reexecution_one_run_fewer(
            self, monkeypatch, make_spec, signature):
        spec = make_spec()
        _, outcome = execute(spec)
        assert failure_signature(outcome) == signature
        calls = count_shrink_executions(monkeypatch)
        fresh = shrink(spec)
        fresh_calls, calls[:] = list(calls), []
        reused = shrink(spec, original=outcome)
        assert fresh_calls[0] == spec.key()
        assert calls == fresh_calls[1:]
        assert reused.spec.key() == fresh.spec.key()
        assert reused.outcome.fingerprint() \
            == fresh.outcome.fingerprint()
        assert reused.original_outcome == fresh.original_outcome
        assert reused.executions == fresh.executions
        assert reused.steps == fresh.steps

    def test_given_outcome_still_rejects_healthy_runs(self, monkeypatch):
        healthy = campaign_spec("portable-audio-player", fault="none",
                                **QUICK)
        monkeypatch.setattr(shrink_module, "execute", None)
        with pytest.raises(ValueError, match="not failing"):
            shrink(healthy, original=RunOutcome(
                outcome="completed", violations=0,
                recovery_compliant=True))


class TestCli:
    def test_faults_record_then_replay_round_trip(self, tmp_path):
        trace_path = str(tmp_path / "campaign.json")
        code = main(["faults", "--scenario", "portable-audio-player",
                     "--fault", "always-retry", "--duration-us", "5",
                     "--record", trace_path])
        assert code == 0
        assert len(ReplayTrace.load(trace_path)) == 2
        assert main(["replay", trace_path]) == 0

    def test_replay_shrink_writes_minimal_trace(self, tmp_path,
                                                capsys):
        trace_path = str(tmp_path / "campaign.json")
        out_path = str(tmp_path / "minimal.json")
        main(["faults", "--scenario", "portable-audio-player",
              "--fault", "always-retry", "--duration-us", "5",
              "--record", trace_path])
        code = main(["replay", trace_path, "--shrink",
                     "--out", out_path,
                     "--json", str(tmp_path / "report.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "bit-exact: yes" in out
        minimal = ReplayTrace.load(out_path)
        assert len(minimal) == 1
        spec, outcome = minimal[0]
        assert len(spec.faults) <= 2
        report = json.loads(
            (tmp_path / "report.json").read_text())
        assert report["match"] is True
        assert report["shrink"]["minimal_spec"]["faults"]

    def test_replay_rejects_bad_index(self, tmp_path):
        trace_path = str(tmp_path / "one.json")
        main(["scenario", "portable-audio-player", "--duration-us",
              "2", "--record", trace_path])
        assert main(["replay", trace_path, "--index", "7"]) == 2

    def test_scenario_check_protocol_raise_stays_clean(self, capsys):
        code = main(["scenario", "wireless-modem", "--duration-us",
                     "5", "--check-protocol", "raise"])
        assert code == 0
        assert '"transactions"' in capsys.readouterr().out

    def test_unrecovered_campaign_exits_nonzero(self, capsys):
        # detection without recovery leaves the hung slave hung: the
        # CI gate must see a non-zero exit and a stderr diagnosis.
        code = main(["faults", "--scenario", "portable-audio-player",
                     "--fault", "hung-slave", "--duration-us", "5",
                     "--no-recover"])
        assert code == 1
        err = capsys.readouterr().err
        assert "campaign FAILED" in err
        assert "hung-slave" in err
