"""The supervised campaign executor.

Covers the PR's acceptance scenario end-to-end: a campaign containing a
run whose worker is deliberately hung (monkeypatched busy-loop) and a
run whose worker is killed finishes anyway, classifies them ``timeout``
and — after two kills — ``quarantined`` with a shrink-ready ``RunSpec``
artefact on disk; a subsequent resume completes only the remaining runs
with results bit-identical to a fresh serial campaign.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
import repro.exec.worker as worker_mod
from repro.cli import main
from repro.exec import (
    ExecutorConfig,
    WORKER_ENV_FLAG,
    CampaignExecutor,
    execute_campaign,
    load_journal,
)
from repro.faults import enumerate_campaign, run_fault_campaign
from repro.replay import ReplayTrace

HAVE_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAVE_FORK,
    reason="hostile-worker tests patch the worker via fork inheritance")

SCENARIO = "portable-audio-player"
QUICK = dict(duration_us=2.0)


def small_campaign(**kwargs):
    params = dict(scenarios=(SCENARIO,),
                  faults=("always-retry", "hung-slave"), seed=1,
                  **QUICK)
    params.update(kwargs)
    return run_fault_campaign(**params)


def small_runs(scenarios=(SCENARIO,),
               faults=("always-retry", "hung-slave")):
    return enumerate_campaign(scenarios, faults, seed=1, **QUICK)


def strip_wall(campaign_dict):
    """Campaign JSON minus host-timing fields (everything else must be
    bit-identical across executors and dispatch orders)."""
    data = {key: value for key, value in campaign_dict.items()
            if key not in ("wall_time_s", "jobs")}
    data["runs"] = [{key: value for key, value in run.items()
                     if key != "wall_time_s"}
                    for run in data["runs"]]
    metrics = data.get("campaign_metrics")
    if metrics:
        # the merged snapshot is deterministic by contract; the summary
        # carries the wall-clock figures (throughput, jobs)
        data["campaign_metrics"] = {
            "merged": metrics["merged"],
            "summary": {
                key: value
                for key, value in metrics["summary"].items()
                if key not in ("wall_time_s", "jobs",
                               "throughput_runs_per_s")
            },
        }
    return data


def arm_hostile_worker(monkeypatch, by_fault):
    """Monkeypatch the worker entry to hang or die for chosen faults.

    The patch keys off :data:`WORKER_ENV_FLAG` so it only ever fires
    inside a disposable worker process (fork inheritance carries it
    there), never in the supervisor.
    """
    real = worker_mod.execute_payload

    def hostile(payload, wall_clock_budget=None):
        if os.environ.get(WORKER_ENV_FLAG):
            action = by_fault.get(payload["fault"])
            if action == "hang":
                while True:
                    pass
            if action == "die":
                os.kill(os.getpid(), signal.SIGKILL)
        return real(payload, wall_clock_budget=wall_clock_budget)

    monkeypatch.setattr(worker_mod, "execute_payload", hostile)


class TestSerialParallelEquivalence:
    def test_parallel_campaign_is_bit_identical_to_serial(self):
        serial = small_campaign()
        parallel = small_campaign(jobs=2, timeout=60)
        assert serial.ok and parallel.ok
        assert strip_wall(serial.to_dict()) \
            == strip_wall(parallel.to_dict())

    def test_scenario_order_does_not_change_results(self):
        forward = small_campaign(
            scenarios=(SCENARIO, "wireless-modem"))
        backward = small_campaign(
            scenarios=("wireless-modem", SCENARIO))
        by_id = {run.run_id: run.to_dict() for run in backward.runs}
        for run in forward.runs:
            mirrored = dict(by_id[run.run_id])
            mine = run.to_dict()
            mirrored.pop("wall_time_s"), mine.pop("wall_time_s")
            assert mine == mirrored


class TestDeadlines:
    def test_serial_deadline_classifies_timeout(self):
        # The cooperative kernel budget fires without any worker pool.
        result = small_campaign(faults=("always-retry",),
                                duration_us=500.0, timeout=0.01)
        outcomes = {run.run_id: run.outcome for run in result.runs}
        assert set(outcomes.values()) == {"timeout"}
        assert not result.ok
        assert all(run in [r.run_id for r in result.failures]
                   for run in outcomes)

    @needs_fork
    def test_hung_worker_is_killed_and_classified_timeout(
            self, monkeypatch, tmp_path):
        arm_hostile_worker(monkeypatch, {"always-retry": "hang"})
        journal = str(tmp_path / "c.jsonl")
        result = small_campaign(faults=("always-retry",), jobs=2,
                                timeout=0.4, journal=journal)
        by_fault = {run.fault: run for run in result.runs}
        assert by_fault["none"].outcome == "completed"
        assert by_fault["always-retry"].outcome == "timeout"
        assert "killed" in by_fault["always-retry"].detail
        assert not result.ok


class TestQuarantine:
    @needs_fork
    def test_two_worker_kills_quarantine_the_run(self, monkeypatch,
                                                 tmp_path):
        arm_hostile_worker(monkeypatch, {"hung-slave": "die"})
        journal = str(tmp_path / "c.jsonl")
        result = small_campaign(jobs=2, timeout=30, journal=journal,
                                executor_config=None)
        by_fault = {run.fault: run for run in result.runs}
        assert by_fault["none"].outcome == "completed"
        assert by_fault["always-retry"].outcome in (
            "completed", "recovered", "degraded")
        quarantined = by_fault["hung-slave"]
        assert quarantined.outcome == "quarantined"
        assert quarantined.attempts == 2
        # the artefact is a loadable single-run replay trace
        artefact = str(tmp_path / ("quarantine.%s--hung-slave"
                                   ".runspec.json" % SCENARIO))
        assert os.path.exists(artefact)
        trace = ReplayTrace.load(artefact)
        assert len(trace) == 1
        spec, outcome = trace[0]
        assert spec.to_dict() == quarantined.spec
        assert outcome.outcome == "quarantined"

    @needs_fork
    def test_quarantine_disabled_classifies_worker_crashed(
            self, monkeypatch, tmp_path):
        arm_hostile_worker(monkeypatch, {"hung-slave": "die"})
        runs = small_runs()
        config = ExecutorConfig(jobs=2, timeout=30, quarantine=False,
                                artefact_dir=str(tmp_path))
        report = execute_campaign(runs, config)
        outcome = report.results[SCENARIO + "/hung-slave"]
        assert outcome.outcome == "worker-crashed"
        assert not report.quarantined


class TestResume:
    def test_resume_skips_completed_and_is_bit_identical(
            self, monkeypatch, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        # Phase 1: only the first scenario's runs reach the journal.
        first = run_fault_campaign(scenarios=(SCENARIO,),
                                   faults=("always-retry",), seed=1,
                                   journal=journal, **QUICK)
        assert first.ok
        # Phase 2: the full campaign, resumed — phase-1 runs must be
        # restored, not re-executed.
        executed = []
        import repro.exec.executor as executor_mod
        real = executor_mod.execute_payload

        def counting(payload, wall_clock_budget=None):
            executed.append(payload["run"])
            return real(payload, wall_clock_budget=wall_clock_budget)

        monkeypatch.setattr(executor_mod, "execute_payload", counting)
        both = run_fault_campaign(
            scenarios=(SCENARIO, "wireless-modem"),
            faults=("always-retry",), seed=1, journal=journal,
            resume=True, **QUICK)
        assert both.resumed == 2
        assert all(run.startswith("wireless-modem/")
                   for run in executed)
        fresh = run_fault_campaign(
            scenarios=(SCENARIO, "wireless-modem"),
            faults=("always-retry",), seed=1, **QUICK)
        assert strip_wall(fresh.to_dict()) == strip_wall(
            {**both.to_dict(), "resumed": 0})

    def test_resume_tolerates_truncated_tail(self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        first = run_fault_campaign(scenarios=(SCENARIO,),
                                   faults=("always-retry",), seed=1,
                                   journal=journal, **QUICK)
        assert first.ok
        with open(journal, "a") as fh:
            fh.write('{"event": "result", "run": "tru')  # hard kill
        resumed = run_fault_campaign(scenarios=(SCENARIO,),
                                     faults=("always-retry",), seed=1,
                                     journal=journal, resume=True,
                                     **QUICK)
        assert resumed.resumed == len(first.runs)
        assert strip_wall(resumed.to_dict()) == strip_wall(
            {**first.to_dict(), "resumed": resumed.resumed})

    @needs_fork
    def test_acceptance_hung_and_killed_then_resume(self, monkeypatch,
                                                    tmp_path):
        """The ISSUE's acceptance scenario in one piece."""
        arm_hostile_worker(monkeypatch, {"always-retry": "hang",
                                         "hung-slave": "die"})
        journal = str(tmp_path / "c.jsonl")
        wrecked = small_campaign(jobs=2, timeout=0.4, journal=journal)
        by_fault = {run.fault: run for run in wrecked.runs}
        assert by_fault["none"].outcome == "completed"
        assert by_fault["always-retry"].outcome == "timeout"
        assert by_fault["hung-slave"].outcome == "quarantined"
        artefact = str(tmp_path / ("quarantine.%s--hung-slave"
                                   ".runspec.json" % SCENARIO))
        assert os.path.exists(artefact)
        # Resume with healthy workers: every run already has a
        # journalled result, so nothing re-executes and the healthy
        # run's result is bit-identical to a fresh serial campaign.
        resumed = small_campaign(jobs=2, timeout=30, journal=journal,
                                 resume=True)
        assert resumed.resumed == 3
        fresh = small_campaign(faults=())
        fresh_none = [run for run in fresh.runs
                      if run.fault == "none"][0]
        resumed_none = [run for run in resumed.runs
                        if run.fault == "none"][0]
        a, b = fresh_none.to_dict(), resumed_none.to_dict()
        a.pop("wall_time_s"), b.pop("wall_time_s")
        assert a == b


class TestDegradation:
    @needs_fork
    def test_pool_collapse_degrades_to_serial(self, monkeypatch,
                                              tmp_path):
        # Every worker dies on any payload: the pool collapses, and
        # the supervisor finishes untried runs in-process instead of
        # aborting the campaign.
        arm_hostile_worker(monkeypatch, {"none": "die",
                                         "always-retry": "die",
                                         "hung-slave": "die"})
        runs = small_runs()
        config = ExecutorConfig(jobs=2, timeout=30,
                                max_worker_restarts=1,
                                artefact_dir=str(tmp_path))
        report = execute_campaign(runs, config)
        assert report.degraded
        assert len(report.results) == len(runs)
        outcomes = {run_id: result.outcome
                    for run_id, result in report.results.items()}
        # runs that already killed a worker are not re-run in the
        # supervisor; fresh ones execute serially and succeed
        assert "quarantined" in set(outcomes.values())
        assert set(outcomes.values()) <= {"completed", "recovered",
                                          "degraded", "quarantined"}


class TestSigint:
    def test_first_interrupt_drains_second_aborts(self):
        executor = CampaignExecutor(small_runs(), ExecutorConfig())
        executor._on_sigint()
        assert executor.interrupts == 1  # drain mode, no exception
        executor._phase = "serial"
        with pytest.raises(KeyboardInterrupt):
            executor._on_sigint()

    def test_interrupted_serial_campaign_flushes_and_reports(
            self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        executor = CampaignExecutor(
            small_runs(), ExecutorConfig(journal=journal))
        executor.interrupts = 1  # as if Ctrl-C landed before work
        report = executor.execute()
        assert report.interrupted
        assert report.results == {}
        state = load_journal(journal)
        assert state.header is not None  # flushed, valid, resumable

    @pytest.mark.skipif(os.name != "posix",
                        reason="sends real SIGINT to a child process")
    def test_cli_double_sigint_exits_130_with_valid_journal(
            self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep \
            + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "faults",
             "--scenario", SCENARIO, "--fault", "always-retry",
             "--duration-us", "5000", "--jobs", "2",
             "--journal", journal],
            env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if os.path.exists(journal) \
                        and "dispatch" in open(journal).read():
                    break
                time.sleep(0.1)
            else:
                pytest.fail("campaign never started dispatching")
            proc.send_signal(signal.SIGINT)
            time.sleep(1.0)
            proc.send_signal(signal.SIGINT)
            rc = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert rc == 130
        state = load_journal(journal)  # append-only file stayed sane
        assert state.header is not None
        assert state.in_flight or state.results


class TestCrashArtefacts:
    def test_crashed_run_carries_traceback_and_runspec(
            self, monkeypatch, tmp_path):
        import repro.replay.trace as trace_mod

        def explode(*args, **kwargs):
            raise RuntimeError("injected elaboration failure")

        monkeypatch.setattr(trace_mod, "build_scenario", explode)
        journal = str(tmp_path / "c.jsonl")
        result = run_fault_campaign(scenarios=(SCENARIO,),
                                    faults=("always-retry",), seed=1,
                                    journal=journal, **QUICK)
        assert not result.ok
        for run in result.runs:
            assert run.outcome == "crashed"
            assert "RuntimeError: injected elaboration failure" \
                in run.traceback
            assert run.spec is not None
            artefact = str(tmp_path / ("crash.%s--%s.runspec.json"
                                       % (run.scenario, run.fault)))
            assert os.path.exists(artefact)
            trace = ReplayTrace.load(artefact)
            assert trace[0][0].to_dict() == run.spec

    def test_result_spec_and_fingerprint_feed_replay(self, tmp_path):
        # End-to-end: the spec/fingerprint every result now carries is
        # enough to rebuild a replay trace that `repro replay` accepts
        # and reproduces bit-exactly.
        campaign = run_fault_campaign(scenarios=(SCENARIO,),
                                      faults=("always-retry",),
                                      seed=1, **QUICK)
        run = [r for r in campaign.runs
               if r.fault == "always-retry"][0]
        from repro.replay import RunOutcome, RunSpec
        trace = ReplayTrace()
        trace.append(RunSpec.from_dict(run.spec),
                     RunOutcome(**run.fingerprint))
        path = str(tmp_path / "one.json")
        trace.save(path)
        assert main(["replay", path]) == 0  # bit-exact replay


class TestJson:
    def test_campaign_json_round_trips_new_fields(self, tmp_path):
        result = small_campaign(jobs=2, timeout=60)
        data = result.to_dict()
        assert data["jobs"] == 2
        assert data["interrupted"] is False
        assert data["degraded"] is False
        for run in data["runs"]:
            assert "attempts" in run and "wall_time_s" in run
            assert run["spec"] is not None
            assert run["fingerprint"] is not None
        blob = json.dumps(data)
        assert "quarantined" not in blob  # healthy campaign


class TestWorkerPreload:
    @pytest.mark.parametrize("engine, tier", [("compiled", "cycle"),
                                              ("interpreted", "cycle"),
                                              ("interpreted", "tlm")])
    def test_first_run_after_preload_imports_nothing(self, engine, tier):
        # A fresh process holding only what a supervisor imports: after
        # ``preload``, a forked worker's first run finds every module
        # it needs already imported.
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        child = (
            "import sys\n"
            "from repro.exec.worker import execute_payload, preload\n"
            "from repro.replay import campaign_spec\n"
            "spec = campaign_spec(%r, duration_us=1.0, engine=%r,\n"
            "                     tier=%r)\n"
            "preload([spec], coverage=True)\n"
            "before = set(sys.modules)\n"
            "result = execute_payload({'run': 'r', 'scenario': %r,\n"
            "                          'fault': 'none', 'coverage': True,\n"
            "                          'spec': spec.to_dict()})\n"
            "assert result['outcome'] == 'completed', result\n"
            "print(sorted(name for name in set(sys.modules) - before\n"
            "             if name.split('.')[0] == 'repro'))\n"
            % (SCENARIO, engine, tier, SCENARIO))
        output = subprocess.run(
            [sys.executable, "-c", child], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout
        assert output.strip() == "[]"
