"""Worker-process side of the supervised campaign executor.

A worker is a plain loop around the replay layer's
:func:`repro.replay.execute`: receive one serialized
:class:`~repro.replay.RunSpec` payload, execute it, post the condensed
result dict back.  Everything stateful — deadlines, retries,
quarantine, the journal — lives in the supervisor; a worker can be
killed at any instant without losing more than its current run.

Liveness is reported out-of-band: a daemon thread stamps a shared
``multiprocessing.Value`` with ``time.monotonic()`` every
``heartbeat_interval`` seconds, so the supervisor can tell a worker
that is *slow* (heart still beating — leave it to the deadline) from
one that is *frozen* at the C level (heart stopped — kill it).

The environment variable ``REPRO_EXEC_WORKER`` is set to ``1`` inside
every worker process, giving test hooks (and crash handlers) a way to
behave differently in a disposable worker than in the supervisor.
"""

from __future__ import annotations

import importlib
import os
import signal
import threading
import time
import traceback

#: Set to "1" in every worker process.
WORKER_ENV_FLAG = "REPRO_EXEC_WORKER"


def execute_payload(payload, wall_clock_budget=None):
    """Execute one serialized campaign run; return the result dict.

    This is the single execution path shared by the serial executor,
    the degraded fallback and the worker pool, which is what makes
    serial and parallel campaigns bit-identical per run: the payload's
    ``RunSpec`` fully determines the simulation, and this function adds
    only host-side bookkeeping (wall time) on top.

    Each result carries a per-run telemetry snapshot (see
    :func:`repro.telemetry.metrics_for_result`) recorded from the
    run's deterministic quantities only, so the snapshot — like the
    rest of the result — is a pure function of the ``RunSpec`` and the
    supervisor can merge worker snapshots reproducibly.
    """
    from ..faults.campaign import result_from_execution
    from ..replay import RunSpec, close_system, execute
    from ..telemetry import metrics_for_result

    probe = None
    if payload.get("coverage"):
        from ..fuzz.coverage import CoverageProbe
        probe = CoverageProbe()
    plan = None
    if payload.get("checkpoint"):
        from ..state import CheckpointPlan, CheckpointStore
        checkpoint = payload["checkpoint"]
        plan = CheckpointPlan(
            interval_cycles=checkpoint.get("interval_cycles", 1000),
            store=CheckpointStore(checkpoint["dir"],
                                  keep=checkpoint.get("keep")),
        )
    spec = RunSpec.from_dict(payload["spec"])
    start = time.monotonic()
    # resume=True is always safe: an empty store simply starts the run
    # from cycle 0, while a re-dispatched attempt picks up from the
    # newest checkpoint its predecessor persisted.
    system, outcome = execute(
        spec, wall_clock_budget=wall_clock_budget,
        instrument=probe.install if probe is not None else None,
        checkpoint=plan, resume=plan is not None,
        warm_start=payload.get("warm_start") if plan is None else None)
    result = result_from_execution(
        payload["scenario"], payload["fault"], system, outcome,
        spec=spec, wall_time_s=time.monotonic() - start,
    )
    result.metrics = metrics_for_result(result)
    if probe is not None:
        result.coverage = probe.coverage_keys(system, outcome)
    close_system(system)
    return result.to_dict()


def preload(specs, coverage=False):
    """Import every module :func:`execute_payload` needs to run *specs*
    (with the coverage probe if *coverage*), so that a worker forked
    afterwards inherits them instead of importing them on its first
    run."""
    from .. import _load_batch_kinds

    _load_batch_kinds()
    modules = ["..faults.campaign", "..replay", "..telemetry"]
    if coverage:
        modules.append("..fuzz.coverage")
    if any(spec.tier == "tlm" for spec in specs):
        modules.append("..tlm")
    if any(spec.tier == "cycle" and spec.engine == "compiled"
           for spec in specs):
        modules.append("..compiled.engine")
    for name in modules:
        importlib.import_module(name, __package__)


def worker_main(worker_id, task_queue, result_queue, heartbeat,
                timeout, heartbeat_interval):
    """Process entry point: serve tasks until the ``None`` sentinel.

    Messages posted on *result_queue* (all tuples tagged by kind):

    * ``("pickup", worker_id, run_id)`` — run accepted, clock started;
    * ``("done", worker_id, run_id, result_dict)`` — run finished
      (including contained ``crashed``/``timeout`` outcomes);
    * ``("error", worker_id, run_id, traceback_text)`` — the execution
      machinery itself raised (infrastructure failure, not a simulated
      one);
    * ``("exit", worker_id, None)`` — clean shutdown after sentinel.
    """
    os.environ[WORKER_ENV_FLAG] = "1"
    # The supervisor owns interrupt policy; a worker must survive the
    # terminal's process-group SIGINT so it can be drained gracefully.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except ValueError:  # pragma: no cover - non-main-thread embedding
        pass

    stop = threading.Event()

    def beat():
        while not stop.is_set():
            heartbeat.value = time.monotonic()
            stop.wait(heartbeat_interval)

    pacemaker = threading.Thread(target=beat, name="heartbeat",
                                 daemon=True)
    pacemaker.start()
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            run_id, payload = task
            result_queue.put(("pickup", worker_id, run_id))
            try:
                result = execute_payload(payload,
                                         wall_clock_budget=timeout)
            except BaseException:
                result_queue.put(("error", worker_id, run_id,
                                  traceback.format_exc()))
            else:
                result_queue.put(("done", worker_id, run_id, result))
    finally:
        stop.set()
        try:
            result_queue.put(("exit", worker_id, None))
        except Exception:  # pragma: no cover - queue already torn down
            pass
