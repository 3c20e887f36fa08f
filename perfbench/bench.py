"""Measuring process of the benchmark (started by ``run.py``).

Runs one workload for ``--seconds`` after a warm-up, then prints one
JSON line: the result (``correct``/``attempted``/``failed``/
``metrics``), the sample count behind each metric, a host stamp and the
first failure reasons.  ``run.py`` adds ``setup_s`` and prints the
final line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys

import layers
from workloads import REF_RATE, WORKLOADS, Pass, make_workload, until

def host_stamp():
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": os.getloadavg()[0]}


def clock_stamp(rates):
    """Spread of the reference-loop rates sampled during the run."""
    quartiles = statistics.quantiles(rates, n=4) if len(rates) > 1 \
        else rates * 3
    return {"ref_samples": len(rates), "ref_rate_q1": quartiles[0],
            "ref_rate_median": quartiles[1], "ref_rate_q3": quartiles[2],
            "ref_rate_nominal": REF_RATE}


def peak_rss_mb(workers):
    """Peak RSS of this process plus, for a worker pool, the largest
    worker's peak once per concurrent worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers * worker) / 1024.0


def rates(passes, identical):
    """``(cycles, ops)`` per reference second.

    When every pass repeats the same operations, each operation's time
    is the median over passes and the rates divide the work of one pass
    by the sum of those medians.  Otherwise (fuzz sessions) the rates
    divide the work of all passes by their summed time: with six or so
    sessions in a run, that spread 8 % between runs where the median of
    the session rates spread 10 %.
    """
    if identical:
        times = {}
        work = {}
        for done in passes:
            for key, seconds, ops, cycles in done.timings:
                times.setdefault(key, []).append(seconds)
                work[key] = (ops, cycles)
        total = sum(statistics.median(samples) for samples in times.values())
        return (sum(cycles for _, cycles in work.values()) / total,
                sum(ops for ops, _ in work.values()) / total)
    total = sum(done.ref_seconds for done in passes)
    return (sum(done.cycles for done in passes) / total,
            sum(done.ops for done in passes) / total)


#: The workflow's own name for its rate, and whether it counts
#: operations or simulated cycles (printed next to ``ops_per_ref_s``).
NAMED_RATES = {
    "power-interpreted": ("cycles", "cycles"),
    "power-compiled": ("cycles", "cycles"),
    "fuzz": ("execs", "ops"),
    "macromodel-fit": ("fits", "ops"),
}


def timed_run(workload, seconds):
    passes = [workload.run_pass(index) for index in until(seconds)]
    cycles_rate, ops_rate = rates(passes, workload.identical_passes)
    metrics = {
        "ops_per_ref_s": {"value": ops_rate, "unit": "1/s"},
        "peak_rss_mb": {"value": peak_rss_mb(workload.workers),
                        "unit": "MB"},
    }
    if workload.identical_passes:
        basis = "median time per operation over %d passes" % len(passes)
    else:
        basis = "all operations over the summed time of %d sessions" \
            % len(passes)
    name, work = NAMED_RATES[workload.name]
    wall = sum(getattr(done, work) for done in passes) \
        / sum(done.seconds for done in passes)
    samples = {"ops_per_ref_s": basis, "peak_rss_mb": "1 process",
               "named": [name + "_per_ref_s",
                         cycles_rate if work == "cycles" else ops_rate, basis],
               "wall": [name + "_per_s", wall]}
    return metrics, samples, passes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", required=True,
                        help="directory for spans and fuzz corpora")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, quick=args.quick,
                             scratch=args.out)
    context = host_stamp()
    workload.warm_up()
    if args.trace:
        total = Pass()
        spans_path = os.path.join(args.out, "spans-%s-seed%d.json"
                                  % (args.workload, args.seed))
        metrics = layers.traced_run(workload, args.seconds, total,
                                    spans_path)
        samples = {"all": "sums over %d traced operations (spans in %s)"
                   % (total.ops, os.path.relpath(spans_path))}
    else:
        metrics, samples, passes = timed_run(workload, args.seconds)
        total = Pass()
        for done in passes:
            total.absorb(done)
    context.update(clock_stamp(workload.clock.rates))
    print(json.dumps({
        "result": {"correct": total.failed == 0 and total.ops > 0,
                   "attempted": total.ops, "failed": total.failed,
                   "metrics": metrics},
        "samples": samples,
        "context": context,
        "problems": total.problems[:20],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
