"""System-level checkpoint/restore exactness and the state-digest
divergence oracle.

The contract under test: a snapshot restored into a freshly elaborated
identical system continues **bit-identically** — the state digest after
``restore + run(N)`` equals the digest after ``run(M + N)`` — and when
two executions are *not* bit-identical, the digest-stream comparison
localizes the first divergent interval and names the differing state
paths."""

import json

import pytest

from repro.amba.transactions import reset_txn_ids
from repro.cli import main
from repro.kernel import StateError, us
from repro.replay import campaign_spec, execute
from repro.replay.verify import compare_streams, verify_digests
from repro.state import (
    CheckpointPlan,
    CheckpointStore,
    Snapshot,
    StateFormatError,
    canonical_json,
    digest_of,
)
from repro.workloads import build_paper_testbench, build_scenario

SCENARIO = "portable-audio-player"


def build(name=SCENARIO, seed=2):
    # The global transaction-id counter is part of snapshotted state;
    # reset it per elaboration exactly as `repro.replay.execute` does,
    # so manually built systems are comparable.
    reset_txn_ids()
    return build_scenario(name, seed=seed)


class TestSnapshotRestore:
    def test_restore_then_run_matches_straight_run(self):
        straight = build()
        straight.run(us(4))
        expected = straight.snapshot().digest

        donor = build()
        donor.run(us(2))
        snap = donor.snapshot()

        resumed = build()
        resumed.restore(snap)
        assert resumed.snapshot().digest == snap.digest
        resumed.run(us(2))
        assert resumed.snapshot().digest == expected

    def test_restore_into_different_elaboration_raises(self):
        donor = build(SCENARIO)
        donor.run(us(1))
        snap = donor.snapshot()
        # structurally different design: signal sets don't match
        other = build("portable-videogame")
        with pytest.raises(StateError, match="does not match"):
            other.restore(snap)
        # same design, but a component section is missing
        clipped = json.loads(json.dumps(snap.to_dict()))
        removed = sorted(clipped["state"]["components"])[0]
        del clipped["state"]["components"][removed]
        fresh = build(SCENARIO)
        with pytest.raises(StateError):
            fresh.restore(clipped["state"])

    def test_chunked_execution_equals_straight_execution(self):
        spec = campaign_spec(SCENARIO, "always-retry", seed=3,
                             duration_us=4.0)
        _, straight = execute(
            spec, checkpoint=CheckpointPlan(interval_cycles=0))
        _, chunked = execute(
            spec, checkpoint=CheckpointPlan(interval_cycles=150))
        assert straight.digests["entries"][-1]["digest"] \
            == chunked.digests["entries"][-1]["digest"]
        assert straight.fingerprint() == chunked.fingerprint()


class TestCheckpointFiles:
    """Checkpoint files are compact JSON; indented ones, as older code
    wrote them, still load and verify."""

    @pytest.mark.parametrize("indented", [False, True],
                             ids=["compact", "indented"])
    def test_saved_checkpoint_restores_like_a_straight_run(
            self, tmp_path, indented):
        straight = build()
        straight.run(us(4))
        expected = straight.snapshot().digest

        donor = build()
        donor.run(us(2))
        snap = donor.snapshot()
        store = CheckpointStore(str(tmp_path / "ck"))
        path = store.put(snap)
        with open(path) as fh:
            text = fh.read()
        assert text == canonical_json(snap.to_dict()) + "\n"
        if indented:
            with open(path, "w") as fh:
                json.dump(snap.to_dict(), fh, indent=2, sort_keys=True)
                fh.write("\n")

        loaded = store.latest()
        assert loaded.digest == snap.digest
        assert loaded.meta == snap.meta
        resumed = build()
        resumed.restore(loaded)
        assert resumed.snapshot().digest == snap.digest
        resumed.run(us(2))
        assert resumed.snapshot().digest == expected

    def test_one_encoding_gives_every_digest(self):
        """The spliced text, the digest and the section digests equal
        those of encoding the tree and each section separately."""
        donor = build()
        donor.run(us(1))
        snap = donor.snapshot()
        tree = snap.tree
        kernel = tree["kernel"]
        expected = {
            "kernel": digest_of({key: value
                                 for key, value in kernel.items()
                                 if key != "signals"}),
            "kernel.signals": digest_of(kernel["signals"]),
        }
        for path, state in tree["components"].items():
            expected["components." + path] = digest_of(state)
        assert snap.section_digests() == expected
        assert list(snap.section_digests()) == list(expected)
        assert snap.digest == digest_of(tree)
        assert snap._text == canonical_json(tree)

    def test_indented_checkpoint_is_digest_verified(self, tmp_path):
        donor = build()
        donor.run(us(1))
        data = donor.snapshot().to_dict()
        data["state"]["kernel"]["now"] += 1  # bit-rot after hashing
        path = str(tmp_path / "ckpt.json")
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
        with pytest.raises(StateFormatError, match="digest mismatch"):
            Snapshot.load(path)


class TestStoreResume:
    def test_resumed_run_reproduces_uninterrupted_stream(
            self, tmp_path):
        """Crash recovery is provably exact: stop a checkpointed run
        partway (the crash proxy), resume it from its store in a fresh
        process-equivalent execution, and the merged digest stream and
        fingerprint are byte-identical to an uninterrupted run."""
        spec = campaign_spec(SCENARIO, "always-retry", seed=5,
                             duration_us=6.0)
        interval = 100  # 1 us at 100 MHz: partial end lands on-boundary
        ref_store = CheckpointStore(str(tmp_path / "ref"))
        _, ref = execute(spec, checkpoint=CheckpointPlan(
            interval, ref_store))

        crash_store = CheckpointStore(str(tmp_path / "crash"))
        execute(spec.replace(duration_us=2.0),
                checkpoint=CheckpointPlan(interval, crash_store))
        _, resumed = execute(spec, checkpoint=CheckpointPlan(
            interval, crash_store), resume=True)

        assert json.dumps(resumed.digests["entries"], sort_keys=True) \
            == json.dumps(ref.digests["entries"], sort_keys=True)
        assert resumed.fingerprint() == ref.fingerprint()
        # the stream on disk is the same merged record
        assert json.dumps(crash_store.digest_stream(), sort_keys=True) \
            == json.dumps(ref_store.digest_stream(), sort_keys=True)

    def test_resume_skips_already_executed_prefix(self, tmp_path):
        spec = campaign_spec(SCENARIO, "none", seed=1, duration_us=3.0)
        store = CheckpointStore(str(tmp_path / "ck"))
        execute(spec.replace(duration_us=2.0),
                checkpoint=CheckpointPlan(100, store))
        system, _ = execute(spec, checkpoint=CheckpointPlan(100, store),
                            resume=True)
        # resumed execution only simulated the last microsecond
        assert system.sim.now == us(3)


class TestMonitorStyleRoundTrip:
    """The local and private monitor styles checkpoint exactly too.

    The private style's watcher closures hold its pending-energy dict,
    so restoring must refill that dict in place: a rebound dict would
    leave the watchers charging the old one and lose energy."""

    @staticmethod
    def build(style, table):
        reset_txn_ids()
        return build_paper_testbench(seed=5, checker=False,
                                     monitor_style=style,
                                     instruction_energies=table)

    @pytest.mark.parametrize("style", ["local", "private"])
    def test_restored_run_matches_straight_run(self, style):
        reference = self.build("global", None)
        reference.run(us(2))
        table = {name: stats.average_energy
                 for name, stats in reference.ledger.instructions.items()}
        if style == "private":
            table = None

        straight = self.build(style, table)
        straight.run(us(6))

        donor = self.build(style, table)
        donor.run(us(3))
        snap = donor.snapshot()
        resumed = self.build(style, table)
        resumed.restore(snap)
        resumed.run(us(3))

        assert resumed.ledger.state_dict() == straight.ledger.state_dict()
        assert resumed.snapshot().digest == straight.snapshot().digest


class _TimeBomb:
    """Test-only injected nondeterminism: a state provider whose
    content flips to a run-specific value once sim time passes the
    fuse — bit-identical before, divergent after."""

    def __init__(self, sim, fuse_ps, value):
        self.sim = sim
        self.fuse_ps = fuse_ps
        self.value = value

    def state_dict(self):
        return {"v": 0 if self.sim.now < self.fuse_ps else self.value}

    def load_state_dict(self, state):
        pass


def _armed(value, fuse_us):
    def install(system):
        system.sim.register_state(
            "nondet", _TimeBomb(system.sim, us(fuse_us), value))
    return install


class TestDivergenceOracle:
    SPEC = dict(seed=4, duration_us=6.0)

    def test_identical_runs_verify_clean(self):
        spec = campaign_spec(SCENARIO, "always-retry", **self.SPEC)
        _, recorded = execute(spec, checkpoint=CheckpointPlan(200))
        report = verify_digests(spec, recorded.digests)
        assert report.match
        assert report.entries_compared \
            == len(recorded.digests["entries"])
        assert "identical" in report.describe()

    def test_injected_nondeterminism_is_localized(self):
        """End-to-end oracle: two executions that differ only in a
        state bit planted after 3 us diverge at the first interval
        boundary past the fuse, and the report names the state path."""
        spec = campaign_spec(SCENARIO, "none", **self.SPEC)
        plan = CheckpointPlan(interval_cycles=150)
        _, rec = execute(spec, instrument=_armed(0, 3.0),
                         checkpoint=plan)
        _, act = execute(spec, instrument=_armed(1, 3.0),
                         checkpoint=plan)
        entries = rec.digests["entries"]
        expected_index = next(
            index for index, entry in enumerate(entries)
            if entry["time_ps"] >= us(3))

        report = compare_streams(entries, act.digests["entries"])
        assert not report.match
        div = report.first_divergence
        assert div["index"] == expected_index
        assert div["cycle"] == entries[expected_index]["cycle"]
        assert div["paths"] == ["components.nondet"]
        assert "components.nondet" in report.describe()
        assert "first divergent interval" in report.describe()

    def test_cadence_mismatch_is_reported_not_misattributed(self):
        spec = campaign_spec(SCENARIO, "none", seed=4, duration_us=2.0)
        _, a = execute(spec, checkpoint=CheckpointPlan(100))
        _, b = execute(spec, checkpoint=CheckpointPlan(50))
        report = compare_streams(a.digests["entries"],
                                 b.digests["entries"])
        assert not report.match
        assert "cadence" in report.detail


class TestCliDigests:
    def test_scenario_records_digests_and_replay_verifies(
            self, tmp_path, capsys):
        trace = str(tmp_path / "run.json")
        report_path = str(tmp_path / "report.json")
        assert main(["scenario", "wireless-modem", "--duration-us",
                     "3", "--digest-interval", "100", "--record",
                     trace]) == 0
        assert main(["replay", trace, "--json", report_path]) == 0
        out = capsys.readouterr().out
        assert "state digests" in out
        report = json.load(open(report_path))
        assert report["digests"]["match"]
        assert report["digests"]["entries_compared"] > 1

    def test_tampered_digest_fails_replay_and_names_interval(
            self, tmp_path, capsys):
        trace_path = str(tmp_path / "run.json")
        assert main(["scenario", "wireless-modem", "--duration-us",
                     "3", "--digest-interval", "100", "--record",
                     trace_path]) == 0
        data = json.load(open(trace_path))
        entry = data["runs"][0]["digests"]["entries"][1]
        entry["digest"] = "0" * 64
        entry["sections"]["kernel.signals"] = "0" * 64
        with open(trace_path, "w") as fh:
            json.dump(data, fh)
        report_path = str(tmp_path / "report.json")
        assert main(["replay", trace_path,
                     "--json", report_path]) == 1
        report = json.load(open(report_path))
        assert report["match"]  # fingerprints still agree...
        div = report["digests"]["first_divergence"]
        assert div["index"] == 1  # ...the state stream localizes it
        assert div["paths"] == ["kernel.signals"]
