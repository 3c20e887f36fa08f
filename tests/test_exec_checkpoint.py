"""Executor-level intra-run crash recovery and SIGTERM handling.

The acceptance scenario: a campaign whose runs checkpoint periodically
survives having attempts cut short (cooperative timeout, SIGKILL of
the whole process) and still produces results and digest streams
byte-identical to an uninterrupted campaign; SIGTERM drains like
SIGINT and exits 143."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.exec import (
    CampaignExecutor,
    ExecutorConfig,
    execute_campaign,
    load_journal,
)
from repro.faults import enumerate_campaign, run_fault_campaign
from repro.state import CheckpointStore

SCENARIO = "portable-audio-player"


def _runs(faults=("always-retry",), duration_us=4.0):
    return enumerate_campaign((SCENARIO,), faults, seed=1,
                              duration_us=duration_us)


def _streams(checkpoint_root):
    """run-id -> digest-stream JSON text for every run store."""
    out = {}
    for name in sorted(os.listdir(checkpoint_root)):
        store = CheckpointStore(os.path.join(checkpoint_root, name))
        out[name] = json.dumps(store.digest_stream(), sort_keys=True)
    return out


class TestCheckpointedCampaign:
    def test_serial_and_parallel_record_identical_streams(
            self, tmp_path):
        ref = execute_campaign(
            _runs(), ExecutorConfig(
                jobs=1, checkpoint_dir=str(tmp_path / "serial"),
                checkpoint_interval=100,
                artefact_dir=str(tmp_path)))
        par = execute_campaign(
            _runs(), ExecutorConfig(
                jobs=2, checkpoint_dir=str(tmp_path / "par"),
                checkpoint_interval=100,
                artefact_dir=str(tmp_path)))
        assert _streams(str(tmp_path / "serial")) \
            == _streams(str(tmp_path / "par"))
        for run_id, result in ref.results.items():
            assert result.fingerprint \
                == par.results[run_id].fingerprint

    def test_dispatch_journal_references_checkpoint_store(
            self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        execute_campaign(
            _runs(), ExecutorConfig(
                jobs=1, journal=journal,
                checkpoint_dir=str(tmp_path / "ck"),
                checkpoint_interval=100,
                artefact_dir=str(tmp_path)))
        dispatches = [json.loads(line)
                      for line in open(journal)
                      if '"dispatch"' in line]
        assert dispatches
        for record in dispatches:
            assert record["checkpoint"].startswith(
                str(tmp_path / "ck"))

    def test_cooperative_timeout_resumes_to_exact_completion(
            self, tmp_path):
        """A per-run budget far smaller than the run's wall cost: each
        attempt times out cooperatively mid-run, the executor
        re-dispatches it against its checkpoint store, and the final
        result is bit-identical to an unconstrained run."""
        duration = 30.0
        ref_dir = str(tmp_path / "ref")
        ref = execute_campaign(
            _runs(("hung-slave",), duration),
            ExecutorConfig(jobs=1, checkpoint_dir=ref_dir,
                           checkpoint_interval=250,
                           artefact_dir=str(tmp_path)))

        journal = str(tmp_path / "c.jsonl")
        ck_dir = str(tmp_path / "ck")
        report = execute_campaign(
            _runs(("hung-slave",), duration),
            ExecutorConfig(jobs=1, timeout=0.2, max_attempts=80,
                           checkpoint_dir=ck_dir,
                           checkpoint_interval=250, journal=journal,
                           artefact_dir=str(tmp_path)))
        # enumerate_campaign adds a "none" baseline run per scenario
        run_id, result = next(
            (run_id, result)
            for run_id, result in report.results.items()
            if result.fault == "hung-slave")
        assert result.outcome not in ("timeout", "quarantined"), \
            result.detail
        assert result.fingerprint \
            == ref.results[run_id].fingerprint
        assert _streams(ck_dir) == _streams(ref_dir)
        events = [json.loads(line) for line in open(journal)]
        retries = [e for e in events if e["event"] == "attempt-failed"
                   and e.get("reason") == "timeout"]
        if result.attempts > 1:  # host-speed dependent, usually true
            assert retries
            assert all("checkpoint" in e for e in retries)

    def test_timeout_without_checkpointing_stays_terminal(
            self, tmp_path):
        # 30 000 bus cycles: every attempt overruns the 0.1 s budget,
        # however fast the run path gets
        report = execute_campaign(
            _runs(("hung-slave",), 300.0),
            ExecutorConfig(jobs=1, timeout=0.1, max_attempts=3,
                           artefact_dir=str(tmp_path)))
        result = next(result for result in report.results.values()
                      if result.fault == "hung-slave")
        assert result.outcome == "timeout"


class TestSigterm:
    def test_sigterm_records_signal_and_enters_drain(self):
        executor = CampaignExecutor(_runs(), ExecutorConfig())
        executor._on_sigint(signal.SIGTERM)
        assert executor.interrupts == 1
        assert executor.report.interrupt_signal == signal.SIGTERM

    def test_campaign_result_carries_interrupt_signal(self, tmp_path):
        result = run_fault_campaign(
            scenarios=(SCENARIO,), faults=("always-retry",), seed=1,
            duration_us=2.0)
        assert result.to_dict()["interrupt_signal"] is None

    @pytest.mark.skipif(os.name != "posix",
                        reason="sends real SIGTERM to a child process")
    def test_cli_sigterm_drains_flushes_and_exits_143(self, tmp_path):
        journal = str(tmp_path / "c.jsonl")
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep \
            + env.get("PYTHONPATH", "")
        # a run of ~100 us is long enough to still be in flight when
        # the signal lands, short enough that the graceful drain (the
        # in-flight runs are *finished*, not killed) completes quickly
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "faults",
             "--scenario", SCENARIO, "--fault", "always-retry",
             "--duration-us", "100", "--jobs", "2",
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
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert rc == 143
        state = load_journal(journal)
        assert state.header is not None
        interrupted = [json.loads(line) for line in open(journal)
                       if '"interrupted"' in line]
        assert interrupted
        assert interrupted[-1]["signal"] == "SIGTERM"


@pytest.mark.skipif(os.name != "posix",
                    reason="SIGKILLs a child campaign process")
class TestKillResume:
    def test_sigkilled_campaign_resumes_byte_identical(self, tmp_path):
        """The CI smoke scenario, in-tree: SIGKILL a parallel
        checkpointed campaign mid-run, resume it, and require the
        merged results and every digest stream to be byte-identical to
        an uninterrupted reference campaign."""
        duration = "40"
        base_cmd = [sys.executable, "-m", "repro.cli", "faults",
                    "--scenario", SCENARIO,
                    "--fault", "always-retry",
                    "--fault", "hung-slave",
                    "--duration-us", duration, "--jobs", "2",
                    "--seed", "1", "--checkpoint-interval", "200"]
        src = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep \
            + env.get("PYTHONPATH", "")

        ref_dir = str(tmp_path / "ref-ck")
        ref_json = str(tmp_path / "ref.json")
        subprocess.run(
            base_cmd + ["--checkpoint-dir", ref_dir,
                        "--journal", str(tmp_path / "ref.jsonl"),
                        "--json", ref_json],
            env=env, check=True, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=300)

        ck_dir = str(tmp_path / "ck")
        journal = str(tmp_path / "c.jsonl")
        out_json = str(tmp_path / "out.json")
        cmd = base_cmd + ["--checkpoint-dir", ck_dir,
                          "--journal", journal, "--json", out_json]
        # own process group: the SIGKILL must take out the workers too,
        # like a real OOM-kill / node reclaim would
        proc = subprocess.Popen(cmd, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if os.path.isdir(ck_dir) and any(
                        os.listdir(os.path.join(ck_dir, d))
                        for d in os.listdir(ck_dir)):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("no checkpoint appeared before deadline")
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except OSError:
                    pass
                proc.wait()
        assert not os.path.exists(out_json)  # it really died mid-run

        subprocess.run(
            cmd + ["--resume"], env=env, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=300)

        reference = json.load(open(ref_json))
        resumed = json.load(open(out_json))

        def comparable(data):
            runs = []
            for run in sorted(data["runs"],
                              key=lambda r: (r["scenario"],
                                             r["fault"])):
                runs.append({key: value
                             for key, value in run.items()
                             if key not in ("wall_time_s", "attempts",
                                            "metrics", "detail")})
            return runs

        assert comparable(resumed) == comparable(reference)
        assert _streams(ck_dir) == _streams(ref_dir)
