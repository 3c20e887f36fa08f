"""The coverage-guided fuzz campaign engine.

Locks in the PR's acceptance criteria: corpus evolution and the
coverage map are bit-identical for serial and ``--jobs 2`` campaigns
from the same base seed, and a seed genome carrying a known protocol
violation is auto-shrunk into a reproducer a quarter of the original
schedule length that replays to the same rule_id.
"""

import hashlib
import io
import json
import os

import pytest

from repro.cli import main
from repro.exec import ExecutorConfig, execute_campaign
from repro.faults import CampaignRun
from repro.fuzz import (
    Corpus,
    FuzzConfig,
    entry_id_for,
    run_fuzz_campaign,
)
from repro.fuzz.coverage import CoverageMap
from repro.replay import (
    FaultEntry,
    ReplayTrace,
    RunOutcome,
    campaign_spec,
    execute,
)
from tests.test_replay import count_shrink_executions, hresp_crash_spec

SCENARIO = "portable-audio-player"


def quick_config(**overrides):
    params = dict(budget=6, seed=7, duration_us=5.0, batch_size=4,
                  scenarios=(SCENARIO,))
    params.update(overrides)
    return FuzzConfig(**params)


def corpus_digest(root):
    """(name, sha256) of every campaign file (reproducers excluded:
    they are keyed by failure signature, not part of the evolution)."""
    digests = []
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if not os.path.isfile(path):
            continue
        with open(path, "rb") as fh:
            digests.append((name, hashlib.sha256(fh.read()).hexdigest()))
    return digests


def violating_genome(duration_us=20.0):
    """A seed genome with a known mandatory violation (HADDR bit 0
    stuck high => unaligned word transfers) plus an advisory one."""
    spec = campaign_spec(SCENARIO, "always-retry",
                        duration_us=duration_us)
    spec.faults.append(FaultEntry.signal_fault(
        "stuck-at", "haddr", bit=0, value=1,
        start_ps=100_000, end_ps=2_000_000))
    return spec


class TestCampaignLoop:
    def test_campaign_seeds_executes_and_persists(self, tmp_path):
        root = str(tmp_path / "corpus")
        report = run_fuzz_campaign(root, quick_config())
        assert report.executions == 6
        assert report.ok
        assert report.corpus_size >= 1
        assert report.coverage_keys > 0
        assert os.path.exists(os.path.join(root, "state.json"))
        coverage = CoverageMap.load(
            os.path.join(root, "coverage.json"))
        assert len(coverage) == report.coverage_keys
        corpus = Corpus.load(root)
        assert len(corpus) == report.corpus_size
        # seed entry first, mutants carry provenance
        entries = list(corpus)
        assert entries[0].parent is None
        assert all(entry.parent in corpus.entries
                   for entry in entries[1:])
        assert "fuzz campaign" in report.summary()

    def test_serial_and_parallel_evolution_bit_identical(
            self, tmp_path):
        """Acceptance: same base seed + corpus => byte-identical corpus
        files and coverage map under --jobs 1, --jobs 1 again, and
        --jobs 2."""
        digests = []
        for label, jobs in (("a", 1), ("b", 1), ("c", 2)):
            root = str(tmp_path / label)
            run_fuzz_campaign(root, quick_config(budget=10, jobs=jobs))
            digests.append(corpus_digest(root))
        assert digests[0] == digests[1]  # rerun-stable
        assert digests[0] == digests[2]  # worker-count invariant

    def test_indented_files_keep_their_bytes(self, tmp_path):
        """state.json, coverage.json and the corpus entries are still
        exactly what ``json.dump(indent=2, sort_keys=True)`` and a
        newline write; only warm-start checkpoints are compact."""
        root = str(tmp_path / "corpus")
        run_fuzz_campaign(root, quick_config(warm_start=True))
        names = sorted(name for name in os.listdir(root)
                       if name.endswith(".json"))
        assert {"state.json", "coverage.json"} < set(names)
        for name in names:
            with open(os.path.join(root, name)) as fh:
                text = fh.read()
            expected = io.StringIO()
            json.dump(json.loads(text), expected, indent=2,
                      sort_keys=True)
            assert text == expected.getvalue() + "\n", name
        checkpoints = [os.path.join(directory, name)
                       for directory, _, files in os.walk(
                           os.path.join(root, "warmstart"))
                       for name in files if name.startswith("ckpt-")]
        assert checkpoints
        for path in checkpoints:
            with open(path) as fh:
                assert fh.read().count("\n") == 1

    def test_resume_continues_the_budget(self, tmp_path):
        root = str(tmp_path / "corpus")
        first = run_fuzz_campaign(root, quick_config(budget=4))
        assert first.executions == 4
        resumed = run_fuzz_campaign(
            root, quick_config(budget=8, resume=True))
        assert resumed.resumed
        assert resumed.executions == 8
        assert resumed.corpus_size >= first.corpus_size

    def test_resume_with_different_seed_is_rejected(self, tmp_path):
        root = str(tmp_path / "corpus")
        run_fuzz_campaign(root, quick_config())
        with pytest.raises(ValueError, match="seed"):
            run_fuzz_campaign(
                root, quick_config(seed=8, resume=True))

    def test_sim_budget_stops_the_campaign(self, tmp_path):
        root = str(tmp_path / "corpus")
        report = run_fuzz_campaign(
            root, quick_config(budget=50, max_sim_us=8.0))
        # seed batch (5 us) crosses the 8 us meter after one more batch
        assert report.executions < 50
        assert report.sim_us >= 8.0


class TestFailureHandling:
    def test_known_violation_seed_yields_shrunk_reproducer(
            self, tmp_path):
        """Acceptance: a known-violation seed genome is auto-shrunk to
        <= 25 % of the original schedule length and replays to the
        same rule_id."""
        root = str(tmp_path / "corpus")
        genome = violating_genome(duration_us=20.0)
        report = run_fuzz_campaign(root, quick_config(
            budget=2, seed_specs=(genome,)))
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure["shrunk"]
        assert failure["signature"] == "rule|alignment|mandatory"
        assert failure["minimal_duration_us"] \
            <= 0.25 * genome.duration_us
        assert failure["minimal_faults"] <= 1
        # the reproducer replays bit-exactly to the same rule
        trace = ReplayTrace.load(failure["reproducer"])
        _, recorded, actual, match = trace.replay(0)
        assert match
        assert actual.first_violation_rule == "alignment"
        # and the generated regression test is valid python that
        # asserts exactly that
        source = open(failure["test"]).read()
        compile(source, failure["test"], "exec")
        assert "def test_repro_rule_alignment_mandatory" in source
        assert "'alignment' in actual.rules_tripped" in source

    def test_failing_genome_enriches_coverage_with_rule_arms(
            self, tmp_path):
        root = str(tmp_path / "corpus")
        report = run_fuzz_campaign(root, quick_config(
            budget=2, seed_specs=(violating_genome(duration_us=5.0),)))
        coverage = CoverageMap.load(os.path.join(root, "coverage.json"))
        assert "rule:alignment" in coverage
        assert "mandatory-broken" in coverage
        assert report.coverage_groups().get("rule")

    def test_unshrunk_failures_gate_the_report(self, tmp_path):
        root = str(tmp_path / "corpus")
        report = run_fuzz_campaign(root, quick_config(
            budget=2, shrink=False,
            seed_specs=(violating_genome(duration_us=5.0),)))
        assert report.failures and not report.failures[0]["shrunk"]
        assert report.unshrunk
        assert not report.ok

    def test_duplicate_signatures_shrink_once(self, tmp_path):
        root = str(tmp_path / "corpus")
        first = violating_genome(duration_us=5.0)
        second = first.replace(seed=first.seed + 1)
        report = run_fuzz_campaign(root, quick_config(
            budget=3, seed_specs=(first, second)))
        shrunk = [failure for failure in report.failures
                  if failure["signature"] == "rule|alignment|mandatory"]
        assert len(shrunk) == 1


class TestShrinkStartsFromWorkerOutcome:
    """The campaign hands the shrinker ``RunOutcome(**fingerprint)``
    from the worker's result instead of re-running the spec."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_worker_fingerprint_equals_in_process_execute(
            self, tmp_path, jobs):
        specs = {"violation": violating_genome(duration_us=5.0),
                 "crash": hresp_crash_spec()}
        runs = [CampaignRun(run_id, spec.scenario, "fuzz", spec)
                for run_id, spec in specs.items()]
        report = execute_campaign(runs, ExecutorConfig(
            jobs=jobs, collect_coverage=True,
            artefact_dir=str(tmp_path),
            warm_start_dir=str(tmp_path / "warmstart")))
        for run_id, spec in specs.items():
            result = report.results[run_id]
            _, fresh = execute(spec)
            assert fresh.failing
            assert RunOutcome(**result.fingerprint).fingerprint() \
                == fresh.fingerprint()
        # the executor appends the artefact path to the result's detail,
        # never to the fingerprint the shrinker starts from
        crashed = report.results["crash"]
        assert crashed.outcome == "crashed"
        assert "RunSpec written to" in crashed.detail
        assert "RunSpec written to" not in crashed.fingerprint["detail"]

    def test_campaign_shrink_skips_the_original_run(
            self, tmp_path, monkeypatch):
        genome = violating_genome(duration_us=5.0)
        executed = count_shrink_executions(monkeypatch)
        report = run_fuzz_campaign(str(tmp_path / "corpus"), quick_config(
            budget=2, seed_specs=(genome,)))
        (failure,) = report.failures
        assert failure["shrunk"]
        assert genome.key() not in executed
        assert len(executed) == report.shrink_executions


class TestCli:
    def test_fuzz_cli_smoke(self, tmp_path, capsys):
        root = str(tmp_path / "corpus")
        coverage_out = str(tmp_path / "coverage.json")
        code = main(["fuzz", "--corpus", root, "--budget", "4",
                     "--seed", "7", "--duration-us", "5",
                     "--batch", "2", "--scenario", SCENARIO,
                     "--coverage-out", coverage_out,
                     "--json", str(tmp_path / "report.json")])
        assert code == 0
        out = capsys.readouterr().out
        assert "fuzz campaign: 4/4 executions" in out
        assert os.path.exists(coverage_out)
        # a second identical invocation in a fresh corpus is
        # bit-identical (the CLI-level determinism contract)
        other = str(tmp_path / "corpus2")
        main(["fuzz", "--corpus", other, "--budget", "4",
              "--seed", "7", "--duration-us", "5", "--batch", "2",
              "--scenario", SCENARIO])
        assert corpus_digest(root) == corpus_digest(other)

    def test_fuzz_cli_rejects_unknown_scenario(self, capsys, tmp_path):
        code = main(["fuzz", "--corpus", str(tmp_path / "c"),
                     "--scenario", "no-such-soc"])
        assert code == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_entry_id_is_content_derived(self):
        spec = campaign_spec(SCENARIO, "none", duration_us=5.0)
        assert entry_id_for(spec) == entry_id_for(spec.replace())
        assert entry_id_for(spec) \
            != entry_id_for(spec.replace(seed=99))
