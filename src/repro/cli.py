"""Command-line interface.

::

    python -m repro.cli list
    python -m repro.cli run table1 --seed 3
    python -m repro.cli run fig5
    python -m repro.cli report --json results.json
    python -m repro.cli scenario wireless-modem --duration-us 50 \\
        --check-protocol raise
    python -m repro.cli faults --fault always-retry --fault hung-slave \\
        --record campaign.trace.json
    python -m repro.cli faults --jobs 4 --timeout 30 \\
        --journal campaign.jsonl
    python -m repro.cli faults --jobs 4 --timeout 30 \\
        --journal campaign.jsonl --resume
    python -m repro.cli faults --jobs 4 --journal campaign.jsonl \\
        --checkpoint-dir checkpoints/ --checkpoint-interval 500
    python -m repro.cli scenario wireless-modem --digest-interval 500 \\
        --record run.trace.json
    python -m repro.cli replay campaign.trace.json --shrink
    python -m repro.cli fuzz --corpus corpus/ --budget 1000 --seed 7 \\
        --jobs 4 --coverage-out coverage.json
    python -m repro.cli telemetry --duration-us 20 \\
        --trace-out trace.json --json metrics.json

Every command prints human-readable tables; ``--json`` additionally
writes machine-readable results.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import experiments as _experiments
from .analysis.export import results_to_json, run_summary
from .analysis.report import render_report, run_all

#: Experiment name → zero-config runner.
EXPERIMENTS = {
    "table1": lambda seed: _experiments.run_table1(seed=seed),
    "fig3": lambda seed: _experiments.run_power_figure("TOTAL",
                                                       seed=seed),
    "fig4": lambda seed: _experiments.run_power_figure("ARB", seed=seed),
    "fig5": lambda seed: _experiments.run_power_figure("M2S", seed=seed),
    "fig6": lambda seed: _experiments.run_fig6(seed=seed),
    "overhead": lambda seed: _experiments.run_overhead(seed=seed),
    "validation": lambda seed: _experiments.run_macromodel_validation(),
    "granularity": lambda seed: _experiments.run_granularity_ablation(
        seed=seed),
    "styles": lambda seed: _experiments.run_model_styles_ablation(
        seed=seed),
    "design-space": lambda seed: _experiments.run_design_space(
        seed=seed),
}


def _cmd_list(args):
    print("experiments:")
    for name in sorted(EXPERIMENTS):
        print("  %s" % name)
    from .workloads import SCENARIOS
    print("scenarios:")
    for name in sorted(SCENARIOS):
        print("  %s" % name)
    return 0


def _cmd_run(args):
    runner = EXPERIMENTS.get(args.experiment)
    if runner is None:
        print("unknown experiment %r; try 'list'" % args.experiment,
              file=sys.stderr)
        return 2
    result = runner(args.seed)
    print(result.summary())
    if args.json:
        with open(args.json, "w") as fh:
            results_to_json([result], fh)
        print("wrote %s" % args.json)
    return 0 if result.passed else 1


def _cmd_report(args):
    results = run_all(seed=args.seed, quick=args.quick)
    print(render_report(results))
    if args.json:
        with open(args.json, "w") as fh:
            results_to_json(results, fh)
        print("wrote %s" % args.json)
    return 0 if all(result.passed for result in results) else 1


def _cmd_scenario(args):
    import json as _json

    from .replay import ReplayTrace, RunSpec, execute
    spec = RunSpec(
        args.name, seed=args.seed, duration_us=args.duration_us,
        retry_limit=None, retry_backoff=0, watchdog=False,
        check_protocol=args.check_protocol, tier=args.tier,
    )
    plan = None
    if args.digest_interval:
        if args.tier == "tlm":
            print("--digest-interval is cycle-tier only; ignored for "
                  "--tier tlm", file=sys.stderr)
        else:
            from .state import CheckpointPlan
            plan = CheckpointPlan(interval_cycles=args.digest_interval)
    system, outcome = execute(spec, checkpoint=plan)
    if outcome.outcome == "crashed":
        print(outcome.detail, file=sys.stderr)
        return 1
    if args.tier == "tlm":
        # run_summary reads signal-level state; the TLM tier reports
        # its own transaction-level figures.
        summary = {
            "scenario": args.name,
            "tier": "tlm",
            "bus_cycles": system.clk.cycles,
            "transactions_completed": system.transactions_completed(),
            "transactions_failed": system.transactions_failed(),
            "handovers": system.handover_count,
            "mean_latency_cycles": system.mean_latency_cycles(),
            "total_energy_j": system.ledger.total_energy,
            "overhead_energy_j": system.ledger.overhead_energy,
        }
    else:
        system.assert_protocol_clean()
        summary = run_summary(system)
    print(_json.dumps(summary, indent=2, sort_keys=True))
    if args.record:
        trace = ReplayTrace()
        trace.append(spec, outcome)
        trace.save(args.record)
        # status note on stderr: stdout stays a single JSON document
        print("recorded 1 run to %s" % args.record, file=sys.stderr)
    return 0


def _cmd_faults(args):
    import json as _json

    from .faults import FAULT_MODES, run_fault_campaign
    from .workloads import SCENARIOS
    if args.scenario is None:
        args.scenario = ["portable-audio-player", "wireless-modem"]
    if args.fault is None:
        args.fault = ["always-retry", "hung-slave"]
    for fault in args.fault:
        if fault not in FAULT_MODES:
            print("unknown fault mode %r (available: %s)"
                  % (fault, ", ".join(sorted(FAULT_MODES))),
                  file=sys.stderr)
            return 2
    for scenario in args.scenario:
        if scenario not in SCENARIOS:
            print("unknown scenario %r (available: %s)"
                  % (scenario, ", ".join(sorted(SCENARIOS))),
                  file=sys.stderr)
            return 2
    if args.resume and not args.journal:
        print("--resume needs --journal PATH", file=sys.stderr)
        return 2
    result = run_fault_campaign(
        scenarios=tuple(args.scenario), faults=tuple(args.fault),
        seed=args.seed, duration_us=args.duration_us,
        slave_index=args.slave_index,
        trigger_after=args.trigger_after,
        retry_limit=args.retry_limit,
        retry_backoff=args.retry_backoff,
        hready_timeout=args.hready_timeout,
        retry_budget=args.retry_budget,
        recover=not args.no_recover,
        check_protocol=args.check_protocol,
        tier=args.tier,
        engine=args.engine,
        jobs=args.jobs, timeout=args.timeout,
        journal=args.journal, resume=args.resume,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_interval=args.checkpoint_interval,
    )
    print(result.summary().format())
    if args.metrics:
        metrics = result.metrics()
        print()
        print(metrics.summary_table().format())
    if result.resumed:
        print("resumed: %d run(s) restored from %s"
              % (result.resumed, args.journal), file=sys.stderr)
    if result.degraded:
        print("pool degraded: repeated worker failures; remaining "
              "runs executed in-process", file=sys.stderr)
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
        print("wrote %s" % args.json)
    if args.record:
        from .replay import ReplayTrace, RunOutcome, RunSpec
        trace = ReplayTrace()
        for run in result.runs:
            if run.spec is None or run.fingerprint is None:
                continue
            trace.append(RunSpec.from_dict(run.spec),
                         RunOutcome(**run.fingerprint))
        trace.save(args.record)
        print("recorded %d runs to %s" % (len(trace), args.record))
    if result.interrupted:
        import signal as _signal
        print("campaign INTERRUPTED: journal flushed%s"
              % ("; finish it with --resume --journal %s"
                 % args.journal if args.journal else ""),
              file=sys.stderr)
        # Conventional codes: 128 + signal number (130 for SIGINT,
        # 143 for SIGTERM).
        if result.interrupt_signal == _signal.SIGTERM:
            return 143
        return 130
    if not result.ok:
        bad = result.failures
        print("campaign FAILED: %d run(s) ended unrecovered (%s)"
              % (len(bad),
                 ", ".join("%s/%s=%s" % (run.scenario, run.fault,
                                         run.outcome)
                           for run in bad)),
              file=sys.stderr)
    return 0 if result.ok else 1


def _cmd_tlm(args):
    import json as _json

    from .tlm import (
        CalibrationTable,
        calibrate,
        load_default_table,
        validate_table,
    )
    if args.tlm_command == "calibrate":
        kwargs = {}
        if args.table_version is not None:
            kwargs["version"] = args.table_version
        if args.seed:
            kwargs["seeds"] = tuple(args.seed)
        table = calibrate(
            scenarios=args.scenario,
            duration_us=args.duration_us, **kwargs,
        )
        table.save(args.out)
        print("wrote %s" % args.out)
        print("digest: %s" % table.digest())
        print("scenarios: %s"
              % ", ".join(table.provenance["scenarios"]))
        return 0
    # validate
    table = (CalibrationTable.load(args.table) if args.table
             else load_default_table())
    bound = dict(table.error_bound)
    if args.energy_bound is not None:
        bound["energy_pct"] = args.energy_bound
    if args.latency_bound is not None:
        bound["latency_cycles"] = args.latency_bound
    report = validate_table(
        table, scenarios=args.scenario, seed=args.seed,
        duration_us=args.duration_us, bound=bound,
    )
    print(report.summary())
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print("wrote %s" % args.json, file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_fuzz(args):
    import json as _json

    from .fuzz import FuzzConfig, run_fuzz_campaign
    from .workloads import SCENARIOS
    for scenario in args.scenario or ():
        if scenario not in SCENARIOS:
            print("unknown scenario %r (available: %s)"
                  % (scenario, ", ".join(sorted(SCENARIOS))),
                  file=sys.stderr)
            return 2
    config = FuzzConfig(
        budget=args.budget, seed=args.seed, jobs=args.jobs,
        timeout=args.timeout, scenarios=args.scenario,
        duration_us=args.duration_us, batch_size=args.batch,
        shrink=not args.no_shrink,
        reproducer_dir=args.reproducers,
        coverage_out=args.coverage_out,
        max_sim_us=args.sim_budget_us,
        wall_budget_s=args.time_budget,
        resume=args.resume,
        warm_start=args.warm_start,
        engine=args.engine,
    )
    report = run_fuzz_campaign(args.corpus, config)
    print(report.summary())
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print("wrote %s" % args.json, file=sys.stderr)
    if report.interrupted:
        print("fuzz campaign INTERRUPTED: state flushed; continue "
              "with --resume", file=sys.stderr)
        return 130
    if report.unshrunk:
        print("fuzz campaign FAILED: %d failure(s) without a minimal "
              "reproducer (%s)"
              % (len(report.unshrunk),
                 ", ".join(failure["signature"]
                           for failure in report.unshrunk)),
              file=sys.stderr)
        return 1
    return 0


def _cmd_telemetry(args):
    import json as _json

    from .kernel import us
    from .telemetry import Telemetry, validate_chrome_trace
    from .workloads import SCENARIOS, build_scenario
    from .workloads.testbench import build_paper_testbench

    telemetry = Telemetry(
        trace_signals=tuple(args.trace_signal or ()),
        energy_counter_every=args.energy_every,
    )
    if args.scenario:
        if args.scenario not in SCENARIOS:
            print("unknown scenario %r (available: %s)"
                  % (args.scenario, ", ".join(sorted(SCENARIOS))),
                  file=sys.stderr)
            return 2
        system = build_scenario(args.scenario, seed=args.seed,
                                telemetry=telemetry)
        label = args.scenario
    else:
        system = build_paper_testbench(seed=args.seed,
                                       telemetry=telemetry)
        label = "paper testbench (Table 1 configuration)"
    system.run(us(args.duration_us))
    telemetry.finalize()

    print("telemetry: %s, %.1f us simulated, %d trace events%s"
          % (label, args.duration_us, len(telemetry.tracer),
             " (%d dropped)" % telemetry.tracer.dropped
             if telemetry.tracer.dropped else ""),
          file=sys.stderr)
    print(telemetry.summary().format())
    if args.trace_out:
        telemetry.tracer.write_chrome(args.trace_out,
                                      timebase=args.timebase)
        problems = validate_chrome_trace(args.trace_out)
        if problems:
            for problem in problems:
                print("trace validation: %s" % problem,
                      file=sys.stderr)
            return 1
        print("wrote %s (%s timebase; load it at "
              "https://ui.perfetto.dev)"
              % (args.trace_out, args.timebase), file=sys.stderr)
    if args.jsonl:
        telemetry.tracer.write_jsonl(args.jsonl)
        print("wrote %s" % args.jsonl, file=sys.stderr)
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(telemetry.snapshot(), fh, indent=2,
                       sort_keys=True)
        print("wrote %s" % args.json, file=sys.stderr)
    return 0


def _cmd_replay(args):
    import json as _json

    from .replay import ReplayTrace, shrink
    trace = ReplayTrace.load(args.trace)
    if not len(trace):
        print("trace %s holds no runs" % args.trace, file=sys.stderr)
        return 2
    index = args.index
    if index is None:
        # Default to the first recorded failure, else the first run.
        index = next((position
                      for position, (_, outcome) in enumerate(trace)
                      if outcome.failing), 0)
    if not 0 <= index < len(trace):
        print("index %d out of range (trace holds %d runs)"
              % (index, len(trace)), file=sys.stderr)
        return 2
    spec, recorded, actual, match = trace.replay(index)
    print("replaying run %d: %r" % (index, spec))
    print("bit-exact: %s" % ("yes" if match else "NO"))
    digest_report = None
    if recorded.digests:
        from .replay import verify_digests
        digest_report = verify_digests(spec, recorded.digests)
        print("state digests: %s" % digest_report.describe())
    if not match:
        recorded_fp = recorded.fingerprint()
        actual_fp = actual.fingerprint()
        for field in sorted(recorded_fp):
            if recorded_fp[field] != actual_fp[field]:
                print("  %s: recorded %r, replayed %r"
                      % (field, recorded_fp[field], actual_fp[field]),
                      file=sys.stderr)
    report = {
        "index": index,
        "match": match,
        "recorded": recorded.fingerprint(),
        "replayed": actual.fingerprint(),
    }
    if digest_report is not None:
        report["digests"] = {
            "match": digest_report.match,
            "entries_compared": digest_report.entries_compared,
            "first_divergence": digest_report.first_divergence,
            "detail": digest_report.detail,
        }
        match = match and digest_report.match
    shrunk = None
    if args.shrink:
        if not actual.failing:
            print("run %d is not failing; nothing to shrink" % index,
                  file=sys.stderr)
        else:
            shrunk = shrink(spec)
            print(shrunk.summary())
            report["shrink"] = {
                "executions": shrunk.executions,
                "steps": shrunk.steps,
                "minimal_spec": shrunk.spec.to_dict(),
                "minimal_outcome": shrunk.outcome.fingerprint(),
            }
            if args.out:
                minimal = ReplayTrace()
                minimal.append(shrunk.spec, shrunk.outcome)
                minimal.save(args.out)
                print("wrote minimal reproducer to %s" % args.out)
    if args.json:
        with open(args.json, "w") as fh:
            _json.dump(report, fh, indent=2, sort_keys=True)
        print("wrote %s" % args.json)
    return 0 if match else 1


def build_parser():
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="AMBA AHB system-level power analysis "
                    "(DATE 2003 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and scenarios") \
        .set_defaults(fn=_cmd_list)

    run_parser = sub.add_parser("run", help="run one experiment")
    run_parser.add_argument("experiment")
    run_parser.add_argument("--seed", type=int, default=1)
    run_parser.add_argument("--json", help="also write JSON results")
    run_parser.set_defaults(fn=_cmd_run)

    report_parser = sub.add_parser("report",
                                   help="run every experiment")
    report_parser.add_argument("--seed", type=int, default=1)
    report_parser.add_argument("--quick", action="store_true",
                               help="shortened runs for smoke testing")
    report_parser.add_argument("--json", help="also write JSON results")
    report_parser.set_defaults(fn=_cmd_report)

    scenario_parser = sub.add_parser(
        "scenario", help="simulate a named SoC scenario")
    scenario_parser.add_argument("name")
    scenario_parser.add_argument("--seed", type=int, default=1)
    scenario_parser.add_argument("--duration-us", type=float,
                                 default=50.0)
    scenario_parser.add_argument(
        "--check-protocol", choices=("record", "warn", "raise"),
        default="record",
        help="compliance-engine severity (raise dies at the first "
             "violating cycle)")
    scenario_parser.add_argument(
        "--record", metavar="PATH",
        help="write the run's replay trace (spec + outcome "
             "fingerprint) to PATH")
    scenario_parser.add_argument(
        "--digest-interval", type=int, default=0, metavar="CYCLES",
        help="record a state digest every CYCLES bus cycles into the "
             "replay trace; 'repro replay' then verifies full state "
             "equivalence at every interval (0 disables)")
    scenario_parser.add_argument(
        "--tier", choices=("cycle", "tlm"), default="cycle",
        help="execution tier: signal-accurate kernel simulation "
             "(cycle) or the calibrated transaction-level model (tlm)")
    scenario_parser.set_defaults(fn=_cmd_scenario)

    faults_parser = sub.add_parser(
        "faults",
        help="run a fault-injection campaign over named scenarios")
    faults_parser.add_argument(
        "--scenario", action="append",
        default=None, metavar="NAME",
        help="scenario to attack (repeatable; default: "
             "portable-audio-player and wireless-modem)")
    faults_parser.add_argument(
        "--fault", action="append", default=None, metavar="MODE",
        help="fault mode to inject (repeatable; default: "
             "always-retry and hung-slave)")
    faults_parser.add_argument("--seed", type=int, default=1)
    faults_parser.add_argument("--duration-us", type=float,
                               default=20.0)
    faults_parser.add_argument("--slave-index", type=int, default=0,
                               help="which slave misbehaves")
    faults_parser.add_argument("--trigger-after", type=int, default=16,
                               help="healthy transfers before the "
                                    "fault bites")
    faults_parser.add_argument("--retry-limit", type=int, default=8,
                               help="master per-transaction retry "
                                    "budget")
    faults_parser.add_argument("--retry-backoff", type=int, default=2,
                               help="idle cycles after each RETRY")
    faults_parser.add_argument("--hready-timeout", type=int,
                               default=16,
                               help="watchdog bus-stall window")
    faults_parser.add_argument("--retry-budget", type=int, default=6,
                               help="watchdog consecutive-RETRY "
                                    "budget")
    faults_parser.add_argument("--no-recover", action="store_true",
                               help="detect only, take no recovery "
                                    "action")
    faults_parser.add_argument(
        "--check-protocol", choices=("record", "warn", "raise"),
        default="record",
        help="compliance-engine severity during campaign runs")
    faults_parser.add_argument(
        "--tier", choices=("cycle", "tlm"), default="cycle",
        help="execution tier for every campaign run (seeds derive "
             "identically on both, so a tlm survey can be confirmed "
             "cycle-accurately run for run)")
    faults_parser.add_argument(
        "--engine", choices=("interpreted", "compiled"),
        default="interpreted",
        help="kernel engine for cycle-tier runs: the delta-cycle "
             "interpreter or the compiled engine "
             "(repro.compiled; bit-identical, faster)")
    faults_parser.add_argument(
        "--record", metavar="PATH",
        help="write a replay trace of every campaign run to PATH")
    faults_parser.add_argument("--json",
                               help="also write JSON results")
    faults_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the supervised executor "
             "(default 1: in-process serial execution)")
    faults_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock deadline; a run over budget is "
             "classified 'timeout' (its worker is killed if hung)")
    faults_parser.add_argument(
        "--journal", metavar="PATH",
        help="append-only JSONL journal of the campaign (crash/"
             "quarantine RunSpec artefacts are written next to it)")
    faults_parser.add_argument(
        "--resume", action="store_true",
        help="load --journal first: skip completed runs, re-dispatch "
             "in-flight ones (with --checkpoint-dir, interrupted runs "
             "resume mid-run from their newest checkpoint)")
    faults_parser.add_argument(
        "--checkpoint-dir", metavar="DIR", default=None,
        help="checkpoint every run's full simulation state under "
             "DIR/<run-id>/; killed or timed-out attempts resume from "
             "the newest checkpoint instead of restarting")
    faults_parser.add_argument(
        "--checkpoint-interval", type=int, default=1000,
        metavar="CYCLES",
        help="bus-clock cycles between checkpoints (default 1000)")
    faults_parser.add_argument(
        "--metrics", action="store_true",
        help="also print the merged campaign telemetry summary "
             "(throughput, outcome rates, energy totals)")
    faults_parser.set_defaults(fn=_cmd_faults)

    tlm_parser = sub.add_parser(
        "tlm",
        help="transaction-level tier: calibrate or cross-validate "
             "the energy/latency table")
    tlm_sub = tlm_parser.add_subparsers(dest="tlm_command",
                                        required=True)
    tlm_cal = tlm_sub.add_parser(
        "calibrate",
        help="fit a calibration table from cycle-accurate reference "
             "runs")
    tlm_cal.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to calibrate on (repeatable; default: every "
             "named scenario)")
    tlm_cal.add_argument("--seed", type=int, action="append",
                         default=None,
                         help="calibration seed (repeatable; default "
                              "1 3 4 — keep the held-out validation "
                              "seed 2 out of this set)")
    tlm_cal.add_argument("--duration-us", type=float, default=200.0)
    tlm_cal.add_argument("--out", required=True, metavar="PATH",
                         help="write the fitted table JSON to PATH "
                              "(the committed artefact lives at "
                              "src/repro/tlm/tables/default.json)")
    tlm_cal.add_argument("--table-version", type=int, default=None,
                         help="table version stamp (default: the "
                              "current TABLE_VERSION)")
    tlm_cal.set_defaults(fn=_cmd_tlm)

    tlm_val = tlm_sub.add_parser(
        "validate",
        help="replay scenarios on both tiers and gate on the table's "
             "declared error bound (exit 1 when exceeded)")
    tlm_val.add_argument(
        "--table", metavar="PATH", default=None,
        help="table to validate (default: the committed table)")
    tlm_val.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario to cross-validate (repeatable; default: the "
             "table's calibration scenarios)")
    tlm_val.add_argument("--seed", type=int, default=2,
                         help="held-out validation seed")
    tlm_val.add_argument("--duration-us", type=float, default=40.0)
    tlm_val.add_argument("--energy-bound", type=float, default=None,
                         metavar="PCT",
                         help="override the table's total-energy "
                              "error bound (percent)")
    tlm_val.add_argument("--latency-bound", type=float, default=None,
                         metavar="CYCLES",
                         help="override the table's mean-latency "
                              "error bound (bus cycles)")
    tlm_val.add_argument("--json",
                         help="write the validation report JSON")
    tlm_val.set_defaults(fn=_cmd_tlm)

    replay_parser = sub.add_parser(
        "replay",
        help="re-execute a recorded run bit-exactly; optionally "
             "shrink it to a minimal reproducer")
    replay_parser.add_argument("trace", help="replay trace JSON file")
    replay_parser.add_argument(
        "--index", type=int, default=None,
        help="which recorded run to replay (default: the first "
             "failing one)")
    replay_parser.add_argument(
        "--shrink", action="store_true",
        help="delta-debug the fault schedule and trim the stimulus "
             "to a minimal reproducer")
    replay_parser.add_argument(
        "--out", metavar="PATH",
        help="with --shrink: write the minimal reproducer trace")
    replay_parser.add_argument("--json",
                               help="also write a JSON report")
    replay_parser.set_defaults(fn=_cmd_replay)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="run a coverage-guided protocol fuzz campaign: mutate "
             "traffic/fault genomes, steer by novel coverage, shrink "
             "every new failure into a reproducer")
    fuzz_parser.add_argument(
        "--corpus", required=True, metavar="DIR",
        help="corpus directory (created if missing; holds genomes, "
             "coverage.json and the resumable state.json)")
    fuzz_parser.add_argument(
        "--budget", type=int, default=100, metavar="N",
        help="total candidate executions (cumulative across --resume)")
    fuzz_parser.add_argument("--seed", type=int, default=1,
                             help="base seed — the campaign's only "
                                  "entropy source")
    fuzz_parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="supervised-executor worker processes (corpus evolution "
             "is bit-identical for any value)")
    fuzz_parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-run wall-clock budget for candidate executions")
    fuzz_parser.add_argument(
        "--scenario", action="append", default=None, metavar="NAME",
        help="scenario seeding an empty corpus (repeatable; default: "
             "every registered scenario)")
    fuzz_parser.add_argument("--duration-us", type=float, default=20.0,
                             help="simulated window of seed genomes")
    fuzz_parser.add_argument("--batch", type=int, default=8,
                             metavar="N",
                             help="candidates generated per executor "
                                  "batch")
    fuzz_parser.add_argument(
        "--resume", action="store_true",
        help="restore the corpus state.json and continue the campaign")
    fuzz_parser.add_argument(
        "--warm-start", action="store_true",
        help="warm-start mutated candidates from shared scenario-"
             "prefix checkpoints (CORPUS/warmstart); corpus evolution "
             "stays bit-identical to a cold campaign")
    fuzz_parser.add_argument(
        "--engine", choices=("interpreted", "compiled"),
        default="interpreted",
        help="kernel engine stamped into seed genomes (mutation "
             "preserves it); outcomes and corpus evolution are "
             "engine-independent")
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true",
        help="record failures without ddmin-minimising them "
             "(every failure then gates the exit code)")
    fuzz_parser.add_argument(
        "--reproducers", metavar="DIR",
        help="where shrunk reproducer traces + generated regression "
             "tests go (default: CORPUS/reproducers)")
    fuzz_parser.add_argument(
        "--coverage-out", metavar="PATH",
        help="also write the final coverage map to PATH")
    fuzz_parser.add_argument(
        "--sim-budget-us", type=float, default=None, metavar="US",
        help="stop once this much simulated time has been spent")
    fuzz_parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop starting new batches after this many host seconds "
             "(CI smoke-test bound; makes the corpus host-dependent)")
    fuzz_parser.add_argument("--json",
                             help="also write the campaign report "
                                  "as JSON")
    fuzz_parser.set_defaults(fn=_cmd_fuzz)

    telemetry_parser = sub.add_parser(
        "telemetry",
        help="run one instrumented simulation and export metrics "
             "plus a Perfetto-loadable trace")
    telemetry_parser.add_argument(
        "--scenario", metavar="NAME", default=None,
        help="named SoC scenario (default: the paper's Table 1 "
             "testbench)")
    telemetry_parser.add_argument("--seed", type=int, default=1)
    telemetry_parser.add_argument("--duration-us", type=float,
                                  default=20.0)
    telemetry_parser.add_argument(
        "--trace-out", metavar="PATH",
        help="write Chrome trace-event JSON (open in "
             "ui.perfetto.dev or chrome://tracing)")
    telemetry_parser.add_argument(
        "--timebase", choices=("sim", "wall"), default="sim",
        help="trace timestamps: simulated time (bus/power timeline) "
             "or host wall-clock (CPU profile)")
    telemetry_parser.add_argument(
        "--jsonl", metavar="PATH",
        help="also write the compact JSONL event stream")
    telemetry_parser.add_argument(
        "--json", metavar="PATH",
        help="also write the metrics registry snapshot as JSON")
    telemetry_parser.add_argument(
        "--trace-signal", action="append", metavar="NAME",
        help="bus signal to trace at commit granularity "
             "(repeatable, e.g. htrans; expensive)")
    telemetry_parser.add_argument(
        "--energy-every", type=int, default=1, metavar="N",
        help="emit per-block energy counter samples every N power "
             "cycles (0 disables)")
    telemetry_parser.set_defaults(fn=_cmd_telemetry)
    return parser


def main(argv=None):
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
