"""The benchmark's four workloads.

Each workload has a fixed *pool* of inputs whose outputs are committed
under ``perfbench/references/``.  ``--seed`` chooses which inputs of
the pool a run uses and in which order; the run goes through them one
*pass* at a time (a closed loop with one caller: the next operation
starts when the previous one returned) and checks every output against
its reference.  So every output of every seed is checked, and an input
without a reference counts as a failed operation.

Only this module decides what the program is given; the program
itself (``src/repro``) is called through its public functions.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import tempfile
import time
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(HERE, "references")

#: Run outcomes that mean no usable result came back.
BAD_OUTCOMES = ("crashed", "timeout", "quarantined", "worker-crashed")

#: Simulated window of every power-workload spec, traffic seeds per
#: scenario in the pool, and specs per scenario a run draws from it.
#: The window is fixed (not seed-derived) so that each pass does the
#: same amount of simulated work whatever the seed.  Four traffic seeds
#: per scenario rather than two longer runs: the compiled engine's
#: speed depends on traffic density, and two seeds per scenario left a
#: 15 % spread between benchmark seeds (7 % with four).  Elaboration,
#: compilation and the outcome summary take about 2 % of a spec.
SPEC_DURATION_US = 20.0
SPEC_POOL_PER_SCENARIO = 8
SPECS_PER_SCENARIO = 4

#: Fuzz session shape: executions per session, worker pool size (the
#: host has two cores) and sessions in the pool.
FUZZ_BUDGET = 16
FUZZ_JOBS = 2
FUZZ_POOL = 12

#: The characterisation sweep: (kind, size arguments, stimulus vectors).
FIT_SWEEP = (
    [("decoder", (n,), 400) for n in (4, 8, 16, 32)]
    + [("mux", (n, w), 500) for n in (2, 4, 8) for w in (8, 32)]
    + [("arbiter", (n,), 500) for n in (2, 4, 8, 16)]
)

#: Stimulus seeds per fit in the pool; a run uses one per fit.
FIT_VARIANTS = 8


#: Iterations of the fixed pure-Python reference loop, and the loop rate
#: (iterations per second) at which a reference second equals a wall
#: second.
REF_ITERATIONS = 50_000
REF_RATE = 1.0e7


def reference_rate():
    """Iterations per second of a fixed pure-Python loop, right now."""
    started = time.perf_counter()
    total = 0
    for value in range(REF_ITERATIONS):
        total += value * value % 7
    return REF_ITERATIONS / (time.perf_counter() - started)


class HostClock:
    """Times operations in wall seconds and in reference seconds.

    The shared host this benchmark was built on changes speed by tens of
    percent in phases of seconds to minutes, which wall time alone cannot
    separate from a change to the program.  So the reference loop runs
    right before and right after each operation, and the operation's
    reference seconds are its wall seconds scaled by the mean of the two
    loop rates over :data:`REF_RATE`: the time the operation would take
    on a host that runs the loop at exactly that rate.
    """

    def __init__(self):
        #: Every loop rate sampled, in order.
        self.rates = []

    def sample(self):
        self.rates.append(reference_rate())
        return self.rates[-1]

    def measure(self, function, *args, **kwargs):
        """Call *function*; return ``(value, wall s, reference s)``."""
        before = self.rates[-1] if self.rates else self.sample()
        started = time.perf_counter()
        value = function(*args, **kwargs)
        seconds = time.perf_counter() - started
        after = self.sample()
        return value, seconds, seconds * (before + after) / (2 * REF_RATE)


def derive_seed(*parts):
    """A stable 31-bit seed from *parts* (independent of hash
    randomisation: ``random.Random`` hashes a str seed with SHA-512)."""
    return random.Random(":".join(str(part) for part in parts)) \
        .randrange(1, 2 ** 31)


def load_reference(kind, directory=REFERENCE_DIR):
    """The committed reference outputs of *kind*'s whole input pool."""
    with open(os.path.join(directory, kind + ".json")) as fh:
        return json.load(fh)


def canonical(value):
    """*value* as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(value))


@contextmanager
def patched(owner, name, make_wrapper):
    """Temporarily replace ``owner.name`` with ``make_wrapper(current)``."""
    raw = owner.__dict__[name]
    setattr(owner, name, make_wrapper(getattr(owner, name)))
    try:
        yield
    finally:
        setattr(owner, name, raw)


def until(seconds):
    """Pass indices 0, 1, ... until *seconds* have elapsed (at least one)."""
    started = time.perf_counter()
    for index in itertools.count():
        yield index
        if time.perf_counter() - started >= seconds:
            return


class Pass:
    """What one pass over a workload's inputs did."""

    def __init__(self):
        self.seconds = 0.0
        self.ops = 0
        self.cycles = 0
        self.failed = 0
        self.problems = []
        self.ref_seconds = 0.0
        #: ``(key, reference seconds, ops, cycles)`` per timed operation.
        self.timings = []

    def record(self, key, seconds, ref_seconds, ops, cycles):
        self.timings.append((key, ref_seconds, ops, cycles))
        self.seconds += seconds
        self.ref_seconds += ref_seconds
        self.ops += ops
        self.cycles += cycles

    def fail(self, label, problem, ops=1):
        self.failed += ops
        self.problems.append("%s: %s" % (label, problem))

    def absorb(self, other):
        """Count *other*'s operations and failures into this pass."""
        self.ops += other.ops
        self.failed += other.failed
        self.problems.extend(other.problems)


def matches(observed, expected, rel_tol):
    """Equality, with floats allowed to differ by *rel_tol*."""
    if isinstance(observed, float) and isinstance(expected, float):
        return abs(observed - expected) <= rel_tol * max(abs(observed),
                                                         abs(expected))
    if isinstance(observed, dict) and isinstance(expected, dict):
        return observed.keys() == expected.keys() and all(
            matches(observed[key], expected[key], rel_tol)
            for key in observed)
    if isinstance(observed, list) and isinstance(expected, list):
        return len(observed) == len(expected) and all(
            matches(a, b, rel_tol) for a, b in zip(observed, expected))
    return observed == expected


class Checker:
    """Compares outputs with the committed references.

    ``rel_tol`` is zero (bit-exact) for simulated quantities; least
    squares fits get a tolerance because their last bits depend on the
    BLAS build, not on the simulator.
    """

    def __init__(self, reference, rel_tol=0.0):
        self.reference = reference
        self.rel_tol = rel_tol

    def problem(self, key, observed):
        if key not in self.reference:
            return "no committed reference"
        if matches(canonical(observed), self.reference[key], self.rel_tol):
            return None
        return "differs from reference"


# -- power-interpreted / power-compiled ------------------------------------

def spec_pool(engine):
    """Every spec a power workload can draw: :data:`SPEC_POOL_PER_SCENARIO`
    traffic seeds per named scenario, with RunSpec defaults (power
    analysis on, checker ``record``, watchdog on)."""
    from repro.replay import RunSpec
    from repro.workloads import SCENARIOS
    return [RunSpec(scenario, seed=derive_seed("power", scenario, index),
                    duration_us=SPEC_DURATION_US, engine=engine)
            for scenario in sorted(SCENARIOS)
            for index in range(SPEC_POOL_PER_SCENARIO)]


def power_specs(seed, engine):
    """The *seed*'s :data:`SPECS_PER_SCENARIO` specs per scenario, drawn
    from :func:`spec_pool`."""
    pool = spec_pool(engine)
    chooser = random.Random(derive_seed("power", seed))
    return [spec for start in range(0, len(pool), SPEC_POOL_PER_SCENARIO)
            for spec in chooser.sample(
                pool[start:start + SPEC_POOL_PER_SCENARIO],
                SPECS_PER_SCENARIO)]


def spec_key(spec):
    """Engine-independent identity of a spec (both engines share one
    reference)."""
    return "%s/%d/%g" % (spec.scenario, spec.seed, spec.duration_us)


class PowerWorkload:
    """Long cycle-tier runs through :func:`repro.replay.execute`."""

    workers = 0
    identical_passes = True

    def __init__(self, name, seed, quick=False, references=REFERENCE_DIR):
        self.name = name
        self.engine = name.split("-", 1)[1]
        self.seed = seed
        self.specs = power_specs(seed, self.engine)[:1 if quick else None]
        self.checker = Checker(load_reference("power", references))
        self.clock = HostClock()

    def setup(self):
        """Import and first elaboration (plus compilation on the
        compiled engine): what a user pays before the first run."""
        from repro.workloads import build_scenario
        spec = self.specs[0]
        system = build_scenario(spec.scenario, seed=spec.seed)
        if self.engine == "compiled":
            from repro.compiled import compile_system
            compile_system(system)
        return system

    def warm_up(self):
        from repro.replay import execute
        execute(self.specs[0].replace(duration_us=1.0))

    def execute(self, spec):
        """Run one spec unchecked; return ``(system, outcome, seconds)``."""
        from repro.replay import execute
        started = time.perf_counter()
        system, outcome = execute(spec)
        return system, outcome, time.perf_counter() - started

    def check(self, spec, system, outcome):
        """The reason this run counts as failed, or None."""
        if outcome.outcome in BAD_OUTCOMES:
            return "outcome %s (%s)" % (outcome.outcome, outcome.detail)
        if self.engine == "compiled":
            scheduler = system.sim.scheduler
            if scheduler.runs_declined or not scheduler.runs_compiled:
                return "compiled engine declined (%s)" \
                    % scheduler.fallback_reason
        return self.checker.problem(spec_key(spec), outcome.fingerprint())

    def run_op(self, spec, result, instrument=None):
        from repro.replay import execute
        (system, outcome), seconds, ref_seconds = self.clock.measure(
            execute, spec, instrument=instrument)
        key = spec_key(spec)
        if system is None:  # elaboration itself crashed
            result.record(key, seconds, ref_seconds, 1, 0)
            result.fail(key, outcome.detail)
            return system, outcome, seconds
        result.record(key, seconds, ref_seconds, 1,
                      system.sim.now // system.clk.period)
        problem = self.check(spec, system, outcome)
        if problem:
            result.fail(key, problem)
        return system, outcome, seconds

    def run_pass(self, index):
        result = Pass()
        for spec in self.specs:
            self.run_op(spec, result)
        return result

    def reference_data(self):
        """Fingerprints of the whole pool (for ``make_references.py``)."""
        return {spec_key(spec): canonical(self.execute(spec)[1]
                                          .fingerprint())
                for spec in spec_pool(self.engine)}


# -- fuzz ------------------------------------------------------------------

class FuzzWorkload:
    """Fuzz sessions on the compiled engine with warm starts and a
    two-worker pool.  Pass *k* is one session of the
    :data:`FUZZ_POOL` sessions, taken in an order that *seed* shuffles,
    so a run averages over several sessions."""

    workers = FUZZ_JOBS
    identical_passes = False

    def __init__(self, name, seed, references=REFERENCE_DIR, scratch=None):
        self.name = name
        self.seed = seed
        self.order = random.Random(derive_seed("fuzz", seed)).sample(
            range(FUZZ_POOL), FUZZ_POOL)
        self.checker = Checker(load_reference("fuzz", references))
        self.scratch = scratch
        self.cycles_per_us = None
        self.clock = HostClock()

    def session_seed(self, index):
        """Seed of the session pass *index* runs."""
        return derive_seed("fuzz", self.order[index % FUZZ_POOL])

    def config(self, index):
        from repro.fuzz import FuzzConfig
        return FuzzConfig(budget=FUZZ_BUDGET, seed=self.session_seed(index),
                          jobs=FUZZ_JOBS, engine="compiled",
                          warm_start=True)

    def setup(self):
        import repro.fuzz  # noqa: F401  (the session's import cost)
        from repro.workloads import build_scenario
        return build_scenario(self.config(0).scenarios[0],
                              seed=self.session_seed(0))

    def warm_up(self):
        from repro.fuzz import CoverageProbe
        from repro.kernel import us
        from repro.replay import campaign_spec, execute
        spec = campaign_spec(self.config(0).scenarios[0], "none",
                             seed=self.session_seed(0), duration_us=1.0,
                             engine="compiled")
        system, _ = execute(spec, instrument=CoverageProbe().install)
        self.cycles_per_us = us(1) // system.clk.period

    def session(self, index):
        """Run session *index* in a fresh corpus directory; return
        ``(report, observed, exec_results, seconds, reference seconds)``.

        The pool keeps both cores busy during a batch, so the reference
        loop runs between batches instead, in the supervisor; its own
        time is taken out of the session's."""
        import repro.fuzz.engine as engine
        from repro.fuzz import Corpus, CoverageMap, run_fuzz_campaign
        results = []
        rates = [self.clock.sample()]
        sampling = []

        def collecting(execute_campaign):
            def wrapper(runs, config):
                report = execute_campaign(runs, config)
                results.extend(report.results.values())
                started = time.perf_counter()
                rates.append(self.clock.sample())
                sampling.append(time.perf_counter() - started)
                return report
            return wrapper

        root = tempfile.mkdtemp(prefix="fuzz-", dir=self.scratch)
        try:
            with patched(engine, "execute_campaign", collecting):
                started = time.perf_counter()
                report = run_fuzz_campaign(root, self.config(index))
                seconds = time.perf_counter() - started - sum(sampling)
            ref_seconds = seconds * sum(rates) / (len(rates) * REF_RATE)
            observed = {
                "coverage": sorted(CoverageMap.load(
                    os.path.join(root, "coverage.json")).counts),
                "corpus": list(Corpus.load(root).order),
                "failures": [failure["signature"]
                             for failure in report.failures],
            }
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return report, observed, results, seconds, ref_seconds

    def account(self, index, report, observed, results, seconds,
                ref_seconds, result):
        """Fold one session into *result*: ops are candidate executions,
        the shrinker's included."""
        ops = report.executions + report.shrink_executions
        label = "session %d" % index
        result.record(label, seconds, ref_seconds, ops,
                      int(round(report.sim_us * self.cycles_per_us)))
        for run in results:
            if run.outcome in BAD_OUTCOMES:
                result.fail(label, "execution %s" % run.outcome)
        for failure in report.unshrunk:
            result.fail(label, "unshrunk failure %s" % failure["signature"])
        if report.executions != FUZZ_BUDGET:
            result.fail(label, "%d of %d executions"
                        % (report.executions, FUZZ_BUDGET))
        problem = self.checker.problem(str(self.session_seed(index)),
                                       observed)
        if problem:
            result.fail(label, problem, ops=ops)

    def run_pass(self, index):
        result = Pass()
        self.account(index, *self.session(index), result=result)
        return result

    def reference_data(self):
        """Outputs of the whole pool (for ``make_references.py``)."""
        return {str(self.session_seed(index)): canonical(
                    self.session(index)[1])
                for index in range(FUZZ_POOL)}


# -- macromodel-fit ---------------------------------------------------------

def fit_label(kind, sizes, variant):
    return "%s-%s/%d" % (kind, "x".join(str(size) for size in sizes),
                         variant)


class MacromodelWorkload:
    """A sweep of gate-level characterisation fits (paper §5.1)."""

    workers = 0
    identical_passes = True

    def __init__(self, name, seed, quick=False, references=REFERENCE_DIR):
        self.name = name
        self.seed = seed
        chooser = random.Random(derive_seed("fit", seed))
        #: ``(kind, sizes, samples, variant)`` per fit of a pass.
        self.sweep = [fit + (chooser.randrange(FIT_VARIANTS),)
                      for fit in FIT_SWEEP][:1 if quick else None]
        self.checker = Checker(load_reference("macromodel-fit", references),
                               rel_tol=1e-9)
        self.clock = HostClock()

    @staticmethod
    def fit(kind, sizes, samples, variant):
        from repro.power import characterize
        function = getattr(characterize, "characterize_" + kind)
        return function(*sizes, samples=samples,
                        seed=derive_seed("fit", kind, variant, *sizes))

    def setup(self):
        import repro.power.characterize  # noqa: F401
        from repro.gatelevel import GateLevelSimulator, synth_one_hot_decoder
        _, sizes, _, _ = self.sweep[0]  # the sweep starts with decoders
        return GateLevelSimulator(synth_one_hot_decoder(*sizes))

    def warm_up(self):
        self.fit("decoder", (4,), 8, 0)

    @staticmethod
    def summary(fitted):
        return {"coefficients": list(fitted.model.coefficients),
                "intercept": fitted.model.intercept,
                "mean_relative_error": fitted.mean_relative_error}

    def run_pass(self, index):
        result = Pass()
        for kind, sizes, samples, variant in self.sweep:
            label = fit_label(kind, sizes, variant)
            fitted, seconds, ref_seconds = self.clock.measure(
                self.fit, kind, sizes, samples, variant)
            result.record(label, seconds, ref_seconds, 1, samples)
            problem = self.checker.problem(label, self.summary(fitted))
            if problem:
                result.fail(label, problem)
        return result

    @classmethod
    def reference_data(cls):
        """Fits of the whole pool (for ``make_references.py``)."""
        return {fit_label(kind, sizes, variant): canonical(cls.summary(
                    cls.fit(kind, sizes, samples, variant)))
                for kind, sizes, samples in FIT_SWEEP
                for variant in range(FIT_VARIANTS)}


WORKLOADS = ("power-interpreted", "power-compiled", "fuzz", "macromodel-fit")


def make_workload(name, seed, quick=False, scratch=None):
    """The workload *name* for *seed*.  *quick* keeps one input of a
    power or fit pass; a fuzz pass is one session anyway."""
    if name.startswith("power-"):
        return PowerWorkload(name, seed, quick)
    if name == "fuzz":
        return FuzzWorkload(name, seed, scratch=scratch)
    if name == "macromodel-fit":
        return MacromodelWorkload(name, seed, quick)
    raise ValueError("unknown workload %r (expected one of %s)"
                     % (name, ", ".join(WORKLOADS)))
