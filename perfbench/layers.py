"""Per-layer attribution for the traced run, measured from outside.

Nothing in ``src/`` records anything for the benchmark.  Instead this
module

* wraps public functions at each layer boundary (:data:`BOUNDARIES`)
  while a traced operation runs, recording one span per call — name,
  start, end and the enclosing span — in memory;
* attaches a public kernel observer
  (:meth:`repro.kernel.Simulator.attach_observer`) to interpreted
  runs and buckets ``on_process`` seconds by process owner; and
* on the compiled engine, where an observer would force the engine to
  decline, times ablation runs of the same spec instead (power
  analysis off, checker off, watchdog off).

Every traced operation is also run untraced first; the difference is
the tracing overhead, reported next to its base.
"""

from __future__ import annotations

import importlib
import json
import shutil
import tempfile
import time
from collections import Counter
from contextlib import ExitStack

from workloads import patched, until

#: (module, class or None, attribute, span name): the public calls a
#: span is recorded around.
BOUNDARIES = (
    ("repro.replay.trace", None, "build_scenario", "workloads.build"),
    ("repro.compiled", None, "compile_system", "compiled.compile"),
    ("repro.workloads.testbench", "AhbSystem", "run", "kernel.run"),
    ("repro.replay.trace", "RunOutcome", "of", "replay.outcome"),
    ("repro.fuzz.engine", None, "execute_campaign", "exec.batch"),
    ("repro.fuzz.engine", None, "shrink", "replay.shrink"),
    ("repro.fuzz.engine", None, "mutate", "fuzz.mutate"),
    ("repro.power.characterize", None, "synth_one_hot_decoder",
     "gatelevel.synth"),
    ("repro.power.characterize", None, "synth_mux", "gatelevel.synth"),
    ("repro.power.characterize", None, "synth_priority_arbiter",
     "gatelevel.synth"),
    ("repro.power.characterize", None, "fit_linear_model", "power.fit"),
    ("repro.gatelevel.simulate", "GateLevelSimulator", "step_ints",
     "gatelevel.step"),
    ("repro.workloads.testbench", "AhbSystem", "snapshot", "state.snapshot"),
    ("repro.state.store", "CheckpointStore", "put", "state.put"),
    ("repro.state.store", "CheckpointStore", "latest", "state.latest"),
    ("repro.workloads.testbench", "AhbSystem", "restore", "state.restore"),
)

#: Kernel process-name prefix -> layer metric its seconds count toward.
OWNER_LAYERS = (
    ("ahb.", "amba.bus_s"),
    ("master", "amba.masters_s"),
    ("default_master", "amba.masters_s"),
    ("slave", "amba.slaves_s"),
    ("power_monitor", "power.monitor_s"),
    ("checker", "protocol.checker_s"),
    ("watchdog", "faults.watchdog_s"),
)

#: Every per-layer metric the traced run prints, with its unit.  A
#: layer a workload bypasses reads 0.
PER_LAYER = (
    ("workloads.build_s", "s"),
    ("compiled.compile_s", "s"),
    ("compiled.runs_declined", "count"),
    ("compiled.runs_compiled", "count"),
    ("kernel.run_s", "s"),
    ("kernel.self_s", "s"),
    ("kernel.activations", "count"),
    ("kernel.delta_steps", "count"),
    ("amba.bus_s", "s"),
    ("amba.masters_s", "s"),
    ("amba.slaves_s", "s"),
    ("power.monitor_s", "s"),
    ("power.monitor_ablation_s", "s"),
    ("protocol.checker_s", "s"),
    ("protocol.checker_ablation_s", "s"),
    ("faults.watchdog_s", "s"),
    ("faults.watchdog_ablation_s", "s"),
    ("replay.outcome_s", "s"),
    ("sim.host_us_per_cycle", "us/cycle"),
    ("sim.host_us_per_txn", "us/txn"),
    ("sim.cycles", "count"),
    ("sim.txns", "count"),
    ("exec.batch_s", "s"),
    ("exec.batches", "count"),
    ("exec.runs", "count"),
    ("exec.pool_util", "ratio"),
    ("exec.attempts_per_run", "attempts/run"),
    ("replay.shrink_s", "s"),
    ("replay.shrink_execs", "count"),
    ("fuzz.mutate_s", "s"),
    ("fuzz.supervisor_s", "s"),
    ("fuzz.executions", "count"),
    ("fuzz.admit_ratio", "ratio"),
    ("gatelevel.step_s", "s"),
    ("gatelevel.vectors", "count"),
    ("gatelevel.vectors_per_s", "1/s"),
    ("gatelevel.synth_s", "s"),
    ("power.fit_s", "s"),
    ("state.save_s", "s"),
    ("state.saves", "count"),
    ("state.restore_s", "s"),
    ("state.restores", "count"),
    ("trace.untraced_s", "s"),
    ("trace.overhead_s", "s"),
)

#: Fuzz executions replayed in-process under the observer (pool
#: workers cannot be observed from the supervisor).
FUZZ_REPLAY_SAMPLE = 6


class Spans:
    """Spans recorded in memory around :data:`BOUNDARIES` calls."""

    def __init__(self):
        #: ``[name, start, end, parent index or None]`` per call.
        self.records = []
        self._open = []

    def _wrap(self, name):
        records = self.records
        stack = self._open

        def make_wrapper(function):
            def wrapper(*args, **kwargs):
                index = len(records)
                records.append([name, time.perf_counter(), None,
                                stack[-1] if stack else None])
                stack.append(index)
                try:
                    return function(*args, **kwargs)
                finally:
                    stack.pop()
                    records[index][2] = time.perf_counter()
            return wrapper
        return make_wrapper

    def installed(self):
        """Context manager wrapping every boundary while it is open."""
        stack = ExitStack()
        for module_name, class_name, attribute, span in BOUNDARIES:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            stack.enter_context(patched(owner, attribute, self._wrap(span)))
        return stack

    def seconds(self, name, first=0):
        """Total time in spans *name*, from record *first* on."""
        return sum(end - start for span, start, end, _ in self.records[first:]
                   if span == name)

    def count(self, name, first=0):
        return sum(1 for record in self.records[first:]
                   if record[0] == name)

    def dump(self, path):
        names = sorted({record[0] for record in self.records})
        with open(path, "w") as fh:
            json.dump({"names": names, "spans": [
                [names.index(name), round(start, 7), round(end, 7), parent]
                for name, start, end, parent in self.records]}, fh)


class LayerObserver:
    """Kernel observer bucketing process seconds by owner."""

    def __init__(self):
        self.seconds = {}
        self.activations = 0
        self.delta_steps = 0
        self._layer_of = {}

    def attach(self, system):
        system.sim.attach_observer(self)

    def on_process(self, process, now, seconds):
        name = process.name
        layer = self._layer_of.get(name)
        if layer is None:
            layer = next((metric for prefix, metric in OWNER_LAYERS
                          if name.startswith(prefix)), "other")
            self._layer_of[name] = layer
        self.seconds[layer] = self.seconds.get(layer, 0.0) + seconds
        self.activations += 1

    def on_settle(self, now, deltas):
        self.delta_steps += deltas

    def fill(self, metrics, run_s):
        """Write the observed layers into *metrics*; *run_s* is the
        kernel time the observed runs took."""
        for _, metric in OWNER_LAYERS:
            metrics[metric] = self.seconds.get(metric, 0.0)
        metrics["kernel.activations"] = self.activations
        metrics["kernel.delta_steps"] = self.delta_steps
        metrics["kernel.run_s"] = run_s
        metrics["kernel.self_s"] = run_s - sum(self.seconds.values())


def run_spans(metrics, spans, first=0):
    """Metrics of the layers inside a run, from spans *first* on."""
    metrics["workloads.build_s"] = spans.seconds("workloads.build", first)
    metrics["compiled.compile_s"] = spans.seconds("compiled.compile", first)
    metrics["replay.outcome_s"] = spans.seconds("replay.outcome", first)
    # A warm start saves with snapshot + put and restores with
    # latest (load and digest check) + restore.
    metrics["state.save_s"] = spans.seconds("state.snapshot", first) \
        + spans.seconds("state.put", first)
    metrics["state.saves"] = spans.count("state.put", first)
    metrics["state.restore_s"] = spans.seconds("state.latest", first) \
        + spans.seconds("state.restore", first)
    metrics["state.restores"] = spans.count("state.restore", first)


def ablations(spec):
    """The spec with one layer switched off, per ablation metric."""
    return (
        ("power.monitor_ablation_s",
         spec.replace(scenario_kwargs={"power_analysis": False})),
        ("protocol.checker_ablation_s",
         spec.replace(scenario_kwargs={"checker": False})),
        ("faults.watchdog_ablation_s", spec.replace(watchdog=False)),
    )


def trace_power(workload, seconds, result, spans):
    metrics = dict.fromkeys(("compiled.runs_declined",
                             "compiled.runs_compiled"), 0)
    observer = LayerObserver()
    instrument = observer.attach if workload.engine == "interpreted" \
        else None
    untraced = traced = 0.0
    cycles = txns = 0
    for index in until(seconds):
        spec = workload.specs[index % len(workload.specs)]
        plain = workload.run_op(spec, result)
        with spans.installed():
            observed = workload.run_op(spec, result, instrument)
        for system, _, _ in (plain, observed):
            scheduler = system.sim.scheduler if system is not None else None
            if scheduler is not None:
                metrics["compiled.runs_declined"] += scheduler.runs_declined
                metrics["compiled.runs_compiled"] += scheduler.runs_compiled
        system, outcome, plain_s = plain
        untraced += plain_s
        traced += observed[2]
        if system is not None:
            cycles += system.sim.now // system.clk.period
        txns += outcome.completed or 0
        for metric, variant in ablations(spec):
            _, _, ablated_s = workload.execute(variant)
            metrics[metric] = metrics.get(metric, 0.0) + plain_s - ablated_s
    observer.fill(metrics, spans.seconds("kernel.run"))
    run_spans(metrics, spans)
    metrics.update({
        "sim.cycles": cycles,
        "sim.txns": txns,
        "sim.host_us_per_cycle": 1e6 * untraced / cycles,
        "sim.host_us_per_txn": 1e6 * untraced / txns if txns else 0.0,
        "trace.untraced_s": untraced,
        "trace.overhead_s": traced - untraced,
    })
    return metrics


def replay_sample(runs):
    """Up to :data:`FUZZ_REPLAY_SAMPLE` of *runs* as interpreted specs,
    those whose prefix signature a sibling shares first (in run order)."""
    from repro.fuzz.warmstart import prefix_signature
    from repro.replay import RunSpec
    specs = [RunSpec.from_dict(run.spec).replace(engine="interpreted")
             for run in runs]
    shared = Counter(prefix_signature(spec) for spec in specs)
    return sorted(specs, key=lambda spec: shared[prefix_signature(spec)]
                  < 2)[:FUZZ_REPLAY_SAMPLE]


def trace_fuzz(workload, seconds, result, spans):
    from repro.fuzz import CoverageProbe
    from repro.fuzz.warmstart import WarmStartCache
    from repro.replay import execute
    metrics = {}
    untraced = traced = 0.0
    cycles = txns = executions = admitted = shrink_execs = 0
    runs = []
    for index in until(seconds):
        plain = workload.session(index)
        workload.account(index, *plain, result=result)
        untraced += plain[3]
        with spans.installed():
            session = workload.session(index)
        workload.account(index, *session, result=result)
        report, _, results, traced_s, _ = session
        traced += traced_s
        runs.extend(results)
        cycles += int(round(report.sim_us * workload.cycles_per_us))
        txns += sum((run.fingerprint or {}).get("completed") or 0
                    for run in results)
        executions += report.executions
        admitted += report.admitted
        shrink_execs += report.shrink_executions
    batch_s = spans.seconds("exec.batch")
    shrink_s = spans.seconds("replay.shrink")
    metrics.update({
        "exec.batch_s": batch_s,
        "exec.batches": spans.count("exec.batch"),
        "exec.runs": len(runs),
        "exec.pool_util": sum(run.wall_time_s for run in runs)
        / (workload.workers * batch_s),
        "exec.attempts_per_run": sum(run.attempts for run in runs)
        / len(runs),
        "replay.shrink_s": shrink_s,
        "replay.shrink_execs": shrink_execs,
        "fuzz.mutate_s": spans.seconds("fuzz.mutate"),
        "fuzz.supervisor_s": traced - batch_s - shrink_s,
        "fuzz.executions": executions,
        "fuzz.admit_ratio": admitted / executions,
        "sim.cycles": cycles,
        "sim.txns": txns,
        "sim.host_us_per_cycle": 1e6 * untraced / cycles,
        "sim.host_us_per_txn": 1e6 * untraced / txns if txns else 0.0,
        "trace.untraced_s": untraced,
        "trace.overhead_s": traced - untraced,
    })
    # Layers inside a run: replay a sample of the session's executions
    # in-process, interpreted (the observer would make the compiled
    # engine decline anyway), with the coverage probe and the
    # warm-start checkpoints the pool workers use.  Executions that
    # share a warm-start prefix go first, so that checkpoints are
    # restored as well as written.
    observer = LayerObserver()
    first = len(spans.records)

    def instrument(system):
        CoverageProbe().install(system)
        observer.attach(system)

    cache = WarmStartCache(tempfile.mkdtemp(prefix="warm-",
                                            dir=workload.scratch))
    try:
        with spans.installed():
            for spec in replay_sample(runs):
                execute(spec, instrument=instrument,
                        warm_start=cache.plan(spec))
    finally:
        shutil.rmtree(cache.root, ignore_errors=True)
    observer.fill(metrics, spans.seconds("kernel.run", first))
    run_spans(metrics, spans, first)
    return metrics


def trace_macromodel(workload, seconds, result, spans):
    untraced = traced = 0.0
    vectors = 0
    for index in until(seconds):
        plain = workload.run_pass(index)
        with spans.installed():
            traced_pass = workload.run_pass(index)
        result.absorb(plain)
        result.absorb(traced_pass)
        untraced += plain.seconds
        traced += traced_pass.seconds
        vectors += plain.cycles
    step_s = spans.seconds("gatelevel.step")
    steps = spans.count("gatelevel.step")
    return {
        "gatelevel.step_s": step_s,
        "gatelevel.vectors": steps,
        "gatelevel.vectors_per_s": steps / step_s,
        "gatelevel.synth_s": spans.seconds("gatelevel.synth"),
        "power.fit_s": spans.seconds("power.fit"),
        "sim.cycles": vectors,
        "sim.host_us_per_cycle": 1e6 * untraced / vectors,
        "trace.untraced_s": untraced,
        "trace.overhead_s": traced - untraced,
    }


def traced_run(workload, seconds, result, spans_path):
    """Run *workload* traced for *seconds*; return the per-layer
    metrics as ``{name: {"value", "unit"}}`` in :data:`PER_LAYER` order."""
    spans = Spans()
    if workload.name.startswith("power-"):
        measured = trace_power(workload, seconds, result, spans)
    elif workload.name == "fuzz":
        measured = trace_fuzz(workload, seconds, result, spans)
    else:
        measured = trace_macromodel(workload, seconds, result, spans)
    spans.dump(spans_path)
    return {name: {"value": measured.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER}
