"""Benchmark command: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout (it imports ``src/repro``).
Workloads: ``power-interpreted``, ``power-compiled``, ``fuzz`` and
``macromodel-fit`` (see ``perfbench/README.md``).

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1``
the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give each metric with its unit and
sample count, a host stamp and the reason for any failed operation.

This launcher pins the BLAS thread pools to one thread, times nine
fresh interpreters for ``setup_s`` (median, in reference seconds: see
``HostClock`` in ``workloads.py`` and ``setup_probe.py``) and runs the
measurement in a child process (``bench.py``), whose peak memory is
then its own.  ``--quick`` runs one input of one pass (self-test).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import REF_RATE, WORKLOADS  # noqa: E402

#: NumPy's OpenBLAS would otherwise start one thread per core for
#: every least-squares fit and contend with the simulator.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

#: Wall-clock limit of the whole command; the measuring child and its
#: pool are killed when it runs out.
TOTAL_LIMIT_S = 170.0

#: Fresh interpreters timed for ``setup_s`` (one in quick mode).
SETUP_REPEATS = 9

#: Scratch directory (spans, fuzz corpora) under the checkout root.
OUT_DIR = ".perfbench"


def child_env(root):
    env = dict(os.environ)
    env.update(THREAD_PINS)
    source = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [source] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(command, env, deadline):
    """Run *command* in its own process group; kill the whole group
    (pool workers included) if it outlives *deadline*."""
    process = subprocess.Popen(command, env=env, stdout=subprocess.PIPE,
                               text=True, start_new_session=True)
    try:
        out, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise
    return process.returncode, out


def setup_seconds(workload, seed, env, repeats, deadline):
    """Median wall seconds of *repeats* fresh-interpreter set-ups, and
    the median of the same in reference seconds, each scaled by the
    reference-loop rates its own process sampled (see
    ``setup_probe.py``).  One untimed run goes first so that bytecode
    caches exist, as they do for any later user."""
    command = [sys.executable, os.path.join(HERE, "setup_probe.py"),
               workload, str(seed)]
    walls = []
    refs = []
    for index in range(repeats + 1):
        started = time.perf_counter()
        code, out = run_child(command, env, deadline)
        seconds = time.perf_counter() - started
        if code != 0:
            raise RuntimeError("set-up probe exited with %d" % code)
        before, after, loops = (float(field) for field in out.split())
        if index:
            walls.append(seconds - loops)
            refs.append(walls[-1] * (before + after) / (2 * REF_RATE))
    return statistics.median(walls), statistics.median(refs)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="perfbench: the repository benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true",
                        help="one input of one pass (self-test)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TOTAL_LIMIT_S

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "__init__.py")):
        print("perfbench: run from a source checkout (no src/repro under %s)"
              % root, file=sys.stderr)
        return 2
    env = child_env(root)
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)

    if not args.trace:
        repeats = 1 if args.quick else SETUP_REPEATS
        setup_wall, setup_ref = setup_seconds(args.workload, args.seed, env,
                                              repeats, deadline)
    command = [sys.executable, os.path.join(HERE, "bench.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(0 if args.quick else args.seconds),
               "--trace", str(args.trace), "--out", out_dir] \
        + (["--quick"] if args.quick else [])
    code, out = run_child(command, env, deadline)
    if code != 0:
        print("perfbench: measurement exited with %d" % code,
              file=sys.stderr)
        return code or 1
    report = json.loads(out.strip().splitlines()[-1])
    result = report["result"]
    samples = report["samples"]
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_ref, "unit": "s"}
        samples["setup_s"] = (
            "reference s, median of %d fresh interpreters (wall %.4g s)"
            % (repeats, setup_wall))

    print("perfbench %s seed=%d trace=%d" % (args.workload, args.seed,
                                             args.trace))
    print("host %s" % json.dumps(report["context"], sort_keys=True))
    if "all" in samples:
        print("  (%s)" % samples["all"])
    for name, metric in result["metrics"].items():
        print(("  %-28s %14.6g %-12s %s" % (
            name, metric["value"], metric["unit"],
            samples.get(name, ""))).rstrip())
    if "named" in samples:
        print("  (as %s: %.6g 1/s, %s)" % tuple(samples["named"]))
        print("  (wall clock, all passes: %s %.6g 1/s)"
              % tuple(samples["wall"]))
    print("  operations: %d attempted, %d failed"
          % (result["attempted"], result["failed"]))
    for problem in report["problems"]:
        print("  FAILED %s" % problem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
