"""Coverage-guided fuzz campaign engine.

Closes the loop between three existing subsystems:

* the **compliance oracle** (:mod:`repro.protocol`) classifies each
  mutated run and contributes rule-arm coverage;
* the **supervised executor** (:mod:`repro.exec`) runs candidate
  genomes under per-run wall-clock budgets with crash/hang isolation;
* the **ddmin shrinker** (:mod:`repro.replay.shrink`) minimises every
  novel failure into a reproducer artefact plus a generated regression
  test.

The campaign loop is classic coverage-guided fuzzing over
RunSpec-encodable genomes: select a corpus parent (rarity-weighted by
the campaign :class:`~repro.fuzz.coverage.CoverageMap`), apply one
structured mutator (:mod:`repro.fuzz.mutators`), execute the batch
through :func:`repro.exec.execute_campaign`, admit candidates whose
coverage keys are novel, and shrink every *new* failure signature.

Determinism contract: the engine's RNG is drawn **only** in the
batch-generation step, batch composition never depends on worker
count, and batch results are folded in generation order — so the
corpus evolution, the coverage map and the saved RNG state are
bit-identical for serial and ``--jobs N`` campaigns with the same base
seed (``tests/test_fuzz_engine.py`` locks this in).
"""

from __future__ import annotations

import json
import os
import random
import re
import time

from ..exec import ExecutorConfig, execute_campaign
from ..faults.campaign import CampaignRun
from ..replay import RunOutcome, RunSpec, campaign_spec
from ..replay.shrink import failure_signature, shrink
from ..replay.trace import ReplayTrace
from ..state import atomic_write_json
from ..workloads import SCENARIOS
from .corpus import Corpus, CorpusEntry, entry_id_for
from .coverage import CoverageMap
from .mutators import mutate

#: Campaign state file format marker.
STATE_FORMAT = "repro-fuzz-state/1"

#: Outcomes that mean the run never produced a usable fingerprint —
#: they count as (unshrinkable) infrastructure failures.
INFRA_FAILURES = ("quarantined", "worker-crashed")


class FuzzConfig:
    """Knobs of one fuzz campaign.

    Parameters
    ----------
    budget:
        Total candidate executions the campaign may spend (seed-corpus
        executions included; cumulative across ``--resume``).
    seed:
        Base seed — the campaign's only entropy source.
    jobs, timeout:
        Forwarded to the supervised executor: worker processes, and the
        per-run wall-clock budget in host seconds.
    scenarios:
        Scenario names seeding an empty corpus (default: the full
        registry, sorted).
    seed_specs:
        Extra :class:`~repro.replay.RunSpec` genomes executed alongside
        the scenario seeds when the corpus starts empty — the way to
        inject a known (or suspected) violating genome and let the
        campaign shrink it into a reproducer.
    duration_us:
        Simulated window of the seed genomes.
    batch_size:
        Candidates generated per executor batch.  Fixed — never derived
        from ``jobs`` — so corpus evolution is worker-count invariant.
    shrink, min_shrink_duration_us:
        Auto-shrink novel failures (and the shrinker's duration floor).
    reproducer_dir:
        Where reproducer JSON + generated regression tests go
        (default: ``<corpus>/reproducers``).
    coverage_out:
        Optional extra path for the final coverage map (the corpus dir
        always keeps its own ``coverage.json``).
    max_sim_us, max_energy_j:
        Campaign-level simulated-time / simulated-energy budgets:
        generation stops once the accumulated totals exceed them.
    wall_budget_s:
        Host-side campaign budget: no new batch starts after this many
        seconds (per-run determinism is unaffected; the corpus then
        depends on host speed, so leave unset when reproducibility of
        the *whole* directory matters).
    resume:
        Restore ``state.json`` (RNG state, budgets, seen failure
        signatures) and continue the campaign.
    warm_start:
        Warm-start mutated candidates from shared scenario-prefix
        checkpoints (``<corpus>/warmstart/``, see
        :mod:`repro.fuzz.warmstart`): siblings that differ from their
        parent only after the first signal-fault window opens skip
        re-simulating the common prefix.  Corpus evolution stays
        bit-identical to a cold campaign — the probe's coverage state
        is checkpointed along with the simulation.
    engine:
        Kernel engine stamped into the seed genomes (mutation
        preserves it), so a whole campaign can run on the compiled
        engine — see :class:`repro.replay.RunSpec.ENGINES`.  Either
        engine yields bit-identical outcomes and coverage, so corpus
        evolution is engine-independent.
    """

    def __init__(self, budget=100, seed=1, jobs=1, timeout=None,
                 scenarios=None, seed_specs=(), duration_us=20.0,
                 batch_size=8, shrink=True, min_shrink_duration_us=0.5,
                 reproducer_dir=None, coverage_out=None,
                 max_sim_us=None, max_energy_j=None,
                 wall_budget_s=None, resume=False, warm_start=False,
                 engine="interpreted"):
        self.budget = max(1, int(budget))
        self.seed = int(seed)
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.scenarios = tuple(scenarios or sorted(SCENARIOS))
        self.seed_specs = tuple(seed_specs)
        self.duration_us = float(duration_us)
        self.batch_size = max(1, int(batch_size))
        self.shrink = shrink
        self.min_shrink_duration_us = min_shrink_duration_us
        self.reproducer_dir = reproducer_dir
        self.coverage_out = coverage_out
        self.max_sim_us = max_sim_us
        self.max_energy_j = max_energy_j
        self.wall_budget_s = wall_budget_s
        self.resume = resume
        self.warm_start = warm_start
        self.engine = engine


class FuzzReport:
    """What one :func:`run_fuzz_campaign` invocation produced."""

    def __init__(self, config):
        self.config = config
        #: Cumulative candidate executions (across resumes).
        self.executions = 0
        #: Extra executions spent inside the shrinker (not budgeted).
        self.shrink_executions = 0
        #: Entries admitted by this invocation / corpus total.
        self.admitted = 0
        self.corpus_size = 0
        #: Coverage keys first seen by this invocation / map total.
        self.novel_keys = 0
        self.coverage_keys = 0
        #: Failure dicts (signature, reproducer paths, shrink stats).
        self.failures = []
        #: Runs classified ``timeout`` (budget too tight, not a bug).
        self.timeouts = 0
        #: Accumulated simulated time / energy (campaign budget meters).
        self.sim_us = 0.0
        self.energy_j = 0.0
        self.wall_time_s = 0.0
        self.interrupted = False
        self.resumed = False

    @property
    def unshrunk(self):
        """Failures with no minimal reproducer — these gate CI."""
        return [failure for failure in self.failures
                if not failure["shrunk"]]

    @property
    def ok(self):
        """True when nothing needs human attention: every discovered
        failure was shrunk into a reproducer and the campaign was not
        interrupted."""
        return not self.unshrunk and not self.interrupted

    def coverage_groups(self):
        """key-class prefix -> distinct keys, for the coverage report."""
        groups = {}
        for key in self._coverage_counts:
            prefix = key.split(":", 1)[0]
            groups[prefix] = groups.get(prefix, 0) + 1
        return dict(sorted(groups.items()))

    _coverage_counts = ()

    def attach_coverage(self, coverage_map):
        self._coverage_counts = dict(coverage_map.counts)
        self.coverage_keys = len(coverage_map)

    def summary(self):
        lines = [
            "fuzz campaign: %d/%d executions (%d in shrinker), "
            "%.1f us simulated, %.3e J"
            % (self.executions, self.config.budget,
               self.shrink_executions, self.sim_us, self.energy_j),
            "corpus: %d entries (%d admitted now); coverage: %d keys "
            "(%d novel now)"
            % (self.corpus_size, self.admitted, self.coverage_keys,
               self.novel_keys),
        ]
        for prefix, count in self.coverage_groups().items():
            lines.append("  coverage[%s]: %d" % (prefix, count))
        if self.timeouts:
            lines.append("timeouts: %d (per-run budget too tight?)"
                         % self.timeouts)
        for failure in self.failures:
            status = ("shrunk -> %s" % failure["reproducer"]
                      if failure["shrunk"] else "UNSHRUNK")
            lines.append("failure %s: %s"
                         % (failure["signature"], status))
        if not self.failures:
            lines.append("no failures discovered")
        if self.interrupted:
            lines.append("INTERRUPTED — resume with --resume")
        return "\n".join(lines)

    def to_dict(self):
        return {
            "budget": self.config.budget,
            "seed": self.config.seed,
            "jobs": self.config.jobs,
            "executions": self.executions,
            "shrink_executions": self.shrink_executions,
            "admitted": self.admitted,
            "corpus_size": self.corpus_size,
            "novel_keys": self.novel_keys,
            "coverage_keys": self.coverage_keys,
            "coverage_groups": self.coverage_groups(),
            "failures": list(self.failures),
            "timeouts": self.timeouts,
            "sim_us": self.sim_us,
            "energy_j": self.energy_j,
            "wall_time_s": self.wall_time_s,
            "interrupted": self.interrupted,
            "resumed": self.resumed,
            "ok": self.ok,
        }


def _slug(signature):
    """Filesystem/module-safe name of a failure signature tuple."""
    text = "_".join(str(part) for part in signature)
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")


def _signature_assertion(signature):
    """The reproduction assert of a generated regression test."""
    if signature[0] == "rule":
        return ('    assert %r in actual.rules_tripped, \\\n'
                '        "expected rule %s to trip"' %
                (signature[1], signature[1]))
    if signature[0] == "non-compliant":
        return ('    assert not actual.recovery_compliant, \\\n'
                '        "expected a mandatory-rule violation"')
    return ('    assert actual.outcome == %r, \\\n'
            '        "expected outcome %s"'
            % (signature[1], signature[1]))


def write_reproducer(directory, signature, shrink_result):
    """Persist a shrunk failure as ``(trace JSON, generated test)``.

    The JSON is a single-run :class:`~repro.replay.ReplayTrace` of the
    minimal spec and its recorded outcome; the test replays it and
    asserts both the pinned failure signature and the bit-exact
    fingerprint, so committing the pair under ``tests/reproducers/``
    turns the finding into a tier-1 regression test.
    """
    os.makedirs(directory, exist_ok=True)
    slug = _slug(signature)
    trace_name = "repro_%s.json" % slug
    trace_path = os.path.join(directory, trace_name)
    trace = ReplayTrace()
    trace.append(shrink_result.spec, shrink_result.outcome)
    trace.save(trace_path)
    test_path = os.path.join(directory, "test_repro_%s.py" % slug)
    body = '''\
"""Auto-generated fuzz reproducer regression test.

Failure signature: %(signature)s
Produced by `repro fuzz` (repro.fuzz.engine.write_reproducer); the
sibling JSON file is the minimal shrunk RunSpec with its recorded
outcome.  Regenerate rather than edit.
"""

import os

from repro.replay import ReplayTrace

_TRACE = os.path.join(os.path.dirname(__file__), %(trace_name)r)


def test_repro_%(slug)s():
    trace = ReplayTrace.load(_TRACE)
    spec, recorded, actual, match = trace.replay(0)
%(assertion)s
    assert match, "replay diverged from the recorded fingerprint"
''' % {
        "signature": " ".join(str(part) for part in signature),
        "trace_name": trace_name,
        "slug": slug,
        "assertion": _signature_assertion(signature),
    }
    with open(test_path, "w") as fh:
        fh.write(body)
    return trace_path, test_path


class FuzzCampaign:
    """One coverage-guided campaign over a corpus directory."""

    def __init__(self, corpus_root, config=None):
        self.root = corpus_root
        self.config = config or FuzzConfig()
        self.report = FuzzReport(self.config)
        self.corpus = None
        self.coverage = None
        self.rng = None
        #: Failure-signature keys already shrunk (persisted in state).
        self.seen_failures = set()

    # -- paths ----------------------------------------------------------

    @property
    def state_path(self):
        return os.path.join(self.root, "state.json")

    @property
    def coverage_path(self):
        return os.path.join(self.root, "coverage.json")

    @property
    def reproducer_dir(self):
        return (self.config.reproducer_dir
                or os.path.join(self.root, "reproducers"))

    # -- state ----------------------------------------------------------

    def _load_state(self):
        with open(self.state_path) as fh:
            state = json.load(fh)
        if state.get("format") != STATE_FORMAT:
            raise ValueError("%s is not a %s state file (format=%r)"
                             % (self.state_path, STATE_FORMAT,
                                state.get("format")))
        if state.get("seed") != self.config.seed:
            raise ValueError(
                "corpus %s was evolved with --seed %s; refusing to "
                "resume with --seed %s (corpus evolution is a pure "
                "function of the base seed)"
                % (self.root, state.get("seed"), self.config.seed))
        self.report.executions = state["executions"]
        self.report.sim_us = state["sim_us"]
        self.report.energy_j = state["energy_j"]
        self.report.shrink_executions = state.get(
            "shrink_executions", 0)
        self.seen_failures = set(state.get("failures", ()))
        rng_state = state["rng_state"]
        self.rng.setstate((rng_state[0], tuple(rng_state[1]),
                           rng_state[2]))
        self.report.resumed = True

    def _save_state(self):
        os.makedirs(self.root, exist_ok=True)
        state = {
            "format": STATE_FORMAT,
            "seed": self.config.seed,
            "scenarios": list(self.config.scenarios),
            "duration_us": self.config.duration_us,
            "executions": self.report.executions,
            "sim_us": self.report.sim_us,
            "energy_j": self.report.energy_j,
            "shrink_executions": self.report.shrink_executions,
            "failures": sorted(self.seen_failures),
            "rng_state": list(self.rng.getstate()),
        }
        # Atomic: a campaign killed mid-save must leave either the old
        # complete state.json or the new one, never a truncated file
        # that poisons the next --resume.
        atomic_write_json(self.state_path, state)
        self.coverage.save(self.coverage_path)

    # -- budget ---------------------------------------------------------

    def _remaining(self):
        return self.config.budget - self.report.executions

    def _exhausted(self, started):
        config = self.config
        if self._remaining() <= 0:
            return True
        if config.max_sim_us is not None \
                and self.report.sim_us >= config.max_sim_us:
            return True
        if config.max_energy_j is not None \
                and self.report.energy_j >= config.max_energy_j:
            return True
        if config.wall_budget_s is not None \
                and time.monotonic() - started >= config.wall_budget_s:
            return True
        return False

    # -- candidate generation -------------------------------------------

    def _seed_batch(self):
        """Generation-0 genomes: one clean run per scenario."""
        specs = [campaign_spec(scenario, "none", seed=self.config.seed,
                               duration_us=self.config.duration_us,
                               engine=self.config.engine)
                 for scenario in self.config.scenarios]
        specs.extend(self.config.seed_specs)
        return [(entry_id_for(spec), spec, None, None)
                for spec in specs[:self._remaining()]]

    def _select_parent(self, entries):
        """Rarity-weighted draw: genomes holding rare coverage keys
        breed more."""
        weights = [1.0 + self.coverage.rarity(entry.coverage)
                   for entry in entries]
        pick = self.rng.random() * sum(weights)
        for entry, weight in zip(entries, weights):
            pick -= weight
            if pick < 0:
                return entry
        return entries[-1]

    def _generate_batch(self):
        """Mutate up to ``batch_size`` novel candidates.  All RNG use
        happens here, in the supervisor, before any execution."""
        limit = min(self.config.batch_size, self._remaining())
        entries = list(self.corpus)
        taken = set(self.corpus.entries)
        batch = []
        attempts = 0
        while len(batch) < limit and attempts < limit * 20:
            attempts += 1
            parent = self._select_parent(entries)
            mutator, spec = mutate(parent.spec, self.rng)
            entry_id = entry_id_for(spec)
            if entry_id in taken:
                continue
            taken.add(entry_id)
            batch.append((entry_id, spec, parent.entry_id, mutator))
        return batch

    # -- execution & folding --------------------------------------------

    def _execute_batch(self, batch):
        runs = [CampaignRun(entry_id, spec.scenario, "fuzz", spec)
                for entry_id, spec, _, _ in batch]
        exec_config = ExecutorConfig(
            jobs=self.config.jobs, timeout=self.config.timeout,
            collect_coverage=True, artefact_dir=self.root,
            warm_start_dir=(os.path.join(self.root, "warmstart")
                            if self.config.warm_start else None))
        return execute_campaign(runs, exec_config)

    def _fold_batch(self, batch, exec_report, admit_all=False):
        """Fold batch results **in generation order** — the step that
        makes corpus evolution independent of worker scheduling."""
        for entry_id, spec, parent, mutator in batch:
            result = exec_report.results.get(entry_id)
            if result is None:  # interrupted before this run finished
                self.report.interrupted = True
                break
            self.report.executions += 1
            self.report.sim_us += spec.duration_us
            self.report.energy_j += result.total_energy
            keys = result.coverage or []
            novel = self.coverage.add(keys)
            self.report.novel_keys += len(novel)
            if admit_all or novel:
                admitted = self.corpus.add(CorpusEntry(
                    spec, coverage=keys, parent=parent,
                    mutator=mutator, novel=novel,
                    outcome=result.outcome))
                if admitted:
                    self.report.admitted += 1
            self._check_failure(result)
        if exec_report.interrupted:
            self.report.interrupted = True

    def _check_failure(self, result):
        if result.outcome == "timeout":
            self.report.timeouts += 1
            return
        outcome = (RunOutcome(**result.fingerprint)
                   if result.fingerprint else None)
        if outcome is not None and outcome.failing:
            self._handle_failure(result, outcome)
        elif result.outcome in INFRA_FAILURES:
            self.report.failures.append({
                "signature": "outcome|%s" % result.outcome,
                "entry": entry_id_for(RunSpec.from_dict(result.spec)),
                "scenario": result.scenario,
                "shrunk": False,
                "reproducer": None,
                "test": None,
                "detail": result.detail,
            })

    def _handle_failure(self, result, outcome):
        signature = failure_signature(outcome)
        key = "|".join(str(part) for part in signature)
        if key in self.seen_failures:
            return
        self.seen_failures.add(key)
        spec = RunSpec.from_dict(result.spec)
        failure = {
            "signature": key,
            "entry": entry_id_for(spec),
            "scenario": result.scenario,
            "shrunk": False,
            "reproducer": None,
            "test": None,
            "detail": result.detail,
        }
        if self.config.shrink:
            try:
                shrunk = shrink(
                    spec,
                    min_duration_us=self.config.min_shrink_duration_us,
                    original=outcome)
            except ValueError as exc:
                failure["detail"] = "shrink failed: %s" % exc
            else:
                self.report.shrink_executions += shrunk.executions
                trace_path, test_path = write_reproducer(
                    self.reproducer_dir, signature, shrunk)
                failure.update(
                    shrunk=True, reproducer=trace_path, test=test_path,
                    shrink_runs=shrunk.executions,
                    original_faults=len(spec.faults),
                    minimal_faults=len(shrunk.spec.faults),
                    original_duration_us=spec.duration_us,
                    minimal_duration_us=shrunk.spec.duration_us,
                )
        self.report.failures.append(failure)

    # -- main loop ------------------------------------------------------

    def run(self):
        started = time.monotonic()
        config = self.config
        self.rng = random.Random(config.seed)
        self.corpus = Corpus.load(self.root)
        resuming = (config.resume
                    and os.path.exists(self.state_path))
        if resuming:
            self.coverage = (CoverageMap.load(self.coverage_path)
                             if os.path.exists(self.coverage_path)
                             else CoverageMap())
            self._load_state()
        else:
            # Fresh campaign over a (possibly pre-seeded) corpus: the
            # map is rebuilt from the entries' recorded coverage.
            self.coverage = CoverageMap()
            for entry in self.corpus:
                self.coverage.add(entry.coverage)
        if not self.corpus and not self._exhausted(started):
            batch = self._seed_batch()
            self._fold_batch(batch, self._execute_batch(batch),
                             admit_all=True)
        while not self.report.interrupted \
                and not self._exhausted(started) and len(self.corpus):
            batch = self._generate_batch()
            if not batch:
                break
            self._fold_batch(batch, self._execute_batch(batch))
        self._save_state()
        if config.coverage_out:
            self.coverage.save(config.coverage_out)
        self.report.corpus_size = len(self.corpus)
        self.report.attach_coverage(self.coverage)
        self.report.wall_time_s = time.monotonic() - started
        return self.report


def run_fuzz_campaign(corpus_root, config=None):
    """Run one fuzz campaign over *corpus_root*; return the
    :class:`FuzzReport`."""
    return FuzzCampaign(corpus_root, config).run()
