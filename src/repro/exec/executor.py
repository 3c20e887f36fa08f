"""Supervised campaign executor.

Dispatches each enumerated campaign run (a
:class:`~repro.faults.CampaignRun` wrapping a self-contained
:class:`~repro.replay.RunSpec`) to a pool of worker processes, so a run
that hard-hangs the interpreter, leaks memory or segfaults costs the
campaign *one worker*, not the whole batch:

* **deadlines** — each run gets a wall-clock budget, enforced twice:
  cooperatively inside the worker (the kernel's ``wall_clock_budget``,
  which classifies a slow-but-alive run as ``timeout`` cheaply) and by
  the supervisor, which kills a worker that blew through the budget
  plus a grace window and classifies the run ``timeout``;
* **liveness** — workers stamp a shared heartbeat; a worker whose heart
  stops (frozen at the C level) is killed like a deadline miss;
* **bounded retries & quarantine** — a run whose worker dies
  unexpectedly is re-dispatched once; a run that kills its worker
  ``max_attempts`` times is *quarantined*: its shrink-ready ``RunSpec``
  is written to disk as a single-run replay trace and the campaign
  moves on;
* **graceful degradation** — after ``max_worker_restarts`` unexpected
  worker deaths the pool is abandoned and untried runs execute
  in-process serially (still honouring deadlines cooperatively) rather
  than aborting the campaign;
* **journal & resume** — every state change is appended to a JSONL
  journal (:mod:`repro.exec.journal`); a resumed campaign skips
  completed runs and re-dispatches in-flight ones;
* **graceful SIGINT/SIGTERM** — the first Ctrl-C (or a supervisor
  ``SIGTERM``, e.g. from a CI runner tearing the job down) stops
  dispatching and drains in-flight workers before flushing and
  returning; the second force-kills the pool.  The report records
  which signal interrupted the campaign so the CLI can exit 130
  (SIGINT) or 143 (SIGTERM) accordingly;
* **intra-run checkpointing** — with ``checkpoint_dir`` set, every
  worker checkpoints its run's full simulation state at a fixed cycle
  cadence (:mod:`repro.state`); a run whose attempt dies (deadline
  kill, worker crash) is re-dispatched and *resumes from its newest
  checkpoint* instead of starting over, so even a run that repeatedly
  times out converges.  Journal records reference each run's
  checkpoint directory.

Because every run's behaviour is fully determined by its ``RunSpec``
(per-run derived seeds included), serial and parallel execution produce
bit-identical per-run results regardless of dispatch order.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time

from ..faults.campaign import FaultRunResult
from .journal import CampaignJournal, JournalError, load_journal
from .worker import execute_payload, preload, worker_main


def _unfinished_result(run, outcome, detail, attempts, wall_time_s,
                       traceback=None):
    """The result the supervisor records for a run no worker finished
    (worker error, deadline kill, quarantine, dead worker)."""
    return FaultRunResult(run.scenario, run.fault, outcome, detail=detail,
                          traceback=traceback, spec=run.spec.to_dict(),
                          attempts=attempts, wall_time_s=wall_time_s)


def _normalize_spec(spec_dict):
    """Round-trip a journalled spec dict through
    :class:`~repro.replay.RunSpec` so additive schema fields (e.g.
    ``tier``) take their defaults — a journal written before such a
    field existed still resumes the same campaign."""
    from ..replay import RunSpec  # deferred: replay imports faults
    return RunSpec.from_dict(spec_dict).to_dict()


class ExecutorConfig:
    """Knobs of the supervised executor.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` executes in-process serially (still
        honouring ``timeout`` via the kernel's cooperative budget).
    timeout:
        Per-run wall-clock deadline in host seconds (None = no limit).
    journal, resume:
        JSONL journal path, and whether to load it first and skip the
        runs it records as complete.
    max_attempts:
        Dispatches a run may burn before it is quarantined (a deadline
        miss is final immediately; only unexpected worker deaths are
        retried).
    quarantine:
        When False, a run out of attempts is classified
        ``worker-crashed`` instead and no artefact is written.
    max_worker_restarts:
        Unexpected worker deaths tolerated before the pool is abandoned
        and the executor degrades to in-process serial execution.
    deadline_grace:
        Seconds past ``timeout`` the supervisor waits before killing a
        worker, giving the in-worker cooperative budget first shot at a
        clean ``timeout`` classification.
    heartbeat_interval, heartbeat_timeout:
        Worker heartbeat stamp period, and how stale a live worker's
        heartbeat may go before it is treated as frozen and killed.
    artefact_dir:
        Where quarantine/crash ``RunSpec`` artefacts are written
        (default: the journal's directory, else the working directory).
    start_method:
        ``multiprocessing`` start method (default: ``fork`` when
        available — it is faster and lets test monkeypatches reach the
        workers — else the platform default).
    poll_interval:
        Supervisor result-pump granularity in seconds.
    collect_coverage:
        Ask every worker to instrument its run with the fuzz coverage
        probe (:mod:`repro.fuzz.coverage`) and attach the sorted
        coverage keys to the run result.  Observe-only: per-run
        fingerprints are unchanged.
    checkpoint_dir, checkpoint_interval, checkpoint_keep:
        With ``checkpoint_dir`` set, each run checkpoints its full
        simulation state every ``checkpoint_interval`` bus cycles into
        ``checkpoint_dir/<run-id>/`` (a
        :class:`~repro.state.CheckpointStore` keeping the newest
        ``checkpoint_keep`` snapshot files plus the complete digest
        stream).  A failed attempt — deadline kill, worker death, even
        a cooperative in-worker timeout — is then re-dispatched to
        *resume from the newest checkpoint* (bounded by
        ``max_attempts``) instead of being classified terminally,
        and the final state is provably identical to an uninterrupted
        run (same digest stream).
    warm_start_dir:
        Directory of shared scenario-prefix checkpoints
        (:class:`~repro.fuzz.warmstart.WarmStartCache`).  Each run
        whose spec admits a safe prefix (no signal-fault window opens
        immediately) restores the prefix checkpoint left by an earlier
        sibling — or cold-starts and leaves one behind.  Bit-exactness
        per run is unchanged (the fuzz engine's determinism tests hold
        with warm-starting on); mutually exclusive with
        ``checkpoint_dir``, which owns the run loop when set.
    """

    def __init__(self, jobs=1, timeout=None, journal=None, resume=False,
                 max_attempts=2, quarantine=True, max_worker_restarts=3,
                 deadline_grace=1.0, heartbeat_interval=0.1,
                 heartbeat_timeout=30.0, artefact_dir=None,
                 start_method=None, poll_interval=0.05,
                 collect_coverage=False, checkpoint_dir=None,
                 checkpoint_interval=1000, checkpoint_keep=2,
                 warm_start_dir=None):
        self.jobs = max(1, int(jobs))
        self.timeout = timeout
        self.journal = journal
        self.resume = resume
        self.max_attempts = max(1, int(max_attempts))
        self.quarantine = quarantine
        self.max_worker_restarts = max(0, int(max_worker_restarts))
        self.deadline_grace = deadline_grace
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.artefact_dir = artefact_dir
        self.start_method = start_method
        self.poll_interval = poll_interval
        self.collect_coverage = collect_coverage
        self.checkpoint_dir = checkpoint_dir
        self.checkpoint_interval = max(0, int(checkpoint_interval))
        self.checkpoint_keep = (max(1, int(checkpoint_keep))
                                if checkpoint_keep is not None else None)
        self.warm_start_dir = warm_start_dir

    @property
    def hard_deadline(self):
        """Supervisor kill threshold per run (None = never kill)."""
        if self.timeout is None:
            return None
        return self.timeout + max(self.deadline_grace,
                                  0.25 * self.timeout)

    def resolve_artefact_dir(self):
        if self.artefact_dir is not None:
            return self.artefact_dir
        if self.journal:
            return os.path.dirname(os.path.abspath(self.journal))
        return os.getcwd()

    def run_checkpoint_dir(self, run_id):
        """Per-run checkpoint store directory (None when disabled)."""
        if not self.checkpoint_dir:
            return None
        return os.path.join(self.checkpoint_dir,
                            run_id.replace("/", "--"))


class ExecutionReport:
    """What :func:`execute_campaign` hands back to the campaign."""

    def __init__(self):
        #: run id -> :class:`FaultRunResult` (executed or restored).
        self.results = {}
        #: run id -> quarantine artefact path.
        self.quarantined = {}
        self.wall_time_s = 0.0
        self.interrupted = False
        #: The signal number that interrupted the campaign
        #: (``signal.SIGINT`` / ``signal.SIGTERM``), or None.
        self.interrupt_signal = None
        self.resumed = 0
        self.degraded = False


class _WorkerHandle:
    """Supervisor-side state of one pool worker."""

    __slots__ = ("worker_id", "process", "task_queue", "heartbeat",
                 "run", "attempt", "dispatch_time")

    def __init__(self, worker_id, process, task_queue, heartbeat):
        self.worker_id = worker_id
        self.process = process
        self.task_queue = task_queue
        self.heartbeat = heartbeat
        self.run = None
        self.attempt = 0
        self.dispatch_time = None

    @property
    def busy(self):
        return self.run is not None


class CampaignExecutor:
    """Executes a list of :class:`~repro.faults.CampaignRun` under the
    supervision policy of an :class:`ExecutorConfig`."""

    def __init__(self, runs, config=None):
        self.runs = list(runs)
        self.config = config or ExecutorConfig()
        self.report = ExecutionReport()
        self.interrupts = 0
        self._journal = None
        self._attempts = {}
        self._pending = []
        self._workers = {}
        self._retired = set()
        self._result_queue = None
        self._ctx = None
        self._next_worker_id = 0
        self._restarts = 0
        self._prev_handlers = {}
        self._phase = "setup"

    # -- public entry ---------------------------------------------------

    def execute(self):
        """Run the campaign; always returns an :class:`ExecutionReport`
        (interruption and per-run failures are states, not
        exceptions)."""
        started = time.monotonic()
        self._prepare()
        self._install_sigint()
        try:
            if self._pending:
                if self.config.jobs > 1:
                    self._run_pool()
                    if self.report.degraded:
                        self._run_serial(degraded=True)
                else:
                    self._run_serial()
        finally:
            self._restore_sigint()
            if self.interrupts:
                self.report.interrupted = True
                record = {
                    "event": "interrupted",
                    "phase": "abort" if self.interrupts > 1 else "drain",
                }
                if self.report.interrupt_signal is not None:
                    record["signal"] = signal.Signals(
                        self.report.interrupt_signal).name
                self._append_journal(record)
            if self._journal is not None:
                self._journal.close()
            self.report.wall_time_s = time.monotonic() - started
        return self.report

    # -- setup / resume -------------------------------------------------

    def _prepare(self):
        config = self.config
        restored = {}
        if config.resume and config.journal \
                and os.path.exists(config.journal):
            state = load_journal(config.journal)
            by_id = {run.run_id: run for run in self.runs}
            for run_id, result in state.results.items():
                run = by_id.get(run_id)
                if run is None:
                    continue
                recorded_spec = result.get("spec")
                if recorded_spec is not None \
                        and _normalize_spec(recorded_spec) \
                        != run.spec.to_dict():
                    raise JournalError(
                        "journal %s records run %s with a different "
                        "RunSpec; refusing to resume a different "
                        "campaign" % (config.journal, run_id))
                restored[run_id] = FaultRunResult.from_dict(result)
            self._attempts.update(state.attempts)
            self.report.quarantined.update(state.quarantined)
            self.report.resumed = len(restored)
        self.report.results.update(restored)
        self._pending = [run for run in self.runs
                         if run.run_id not in restored]
        if config.journal:
            self._journal = CampaignJournal(config.journal)
            fresh = not (config.resume
                         and os.path.exists(config.journal))
            self._journal.open(
                header={
                    "config": {
                        "jobs": config.jobs,
                        "timeout": config.timeout,
                        "max_attempts": config.max_attempts,
                    },
                    "runs": [run.run_id for run in self.runs],
                },
                resume=not fresh,
            )
            if not fresh:
                self._journal.append({
                    "event": "resume",
                    "completed": len(restored),
                    "pending": [run.run_id for run in self._pending],
                })

    def _append_journal(self, record):
        if self._journal is not None:
            self._journal.append(record)

    # -- SIGINT / SIGTERM -----------------------------------------------

    def _install_sigint(self):
        if threading.current_thread() is not threading.main_thread():
            return
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                self._prev_handlers[signum] = signal.signal(
                    signum, self._on_sigint)
            except (ValueError, OSError):  # pragma: no cover - embedded
                pass

    def _restore_sigint(self):
        for signum, handler in self._prev_handlers.items():
            signal.signal(signum, handler)
        self._prev_handlers = {}

    def _on_sigint(self, signum=None, frame=None):
        """First Ctrl-C or SIGTERM: drain in-flight work, then flush
        and stop.  Second: force-kill."""
        self.interrupts += 1
        if signum is not None and self.report.interrupt_signal is None:
            self.report.interrupt_signal = signum
        if self.interrupts >= 2 and self._phase == "serial":
            # Serial execution blocks the main thread inside the
            # kernel; only an exception can force-stop it.
            raise KeyboardInterrupt

    # -- serial path ----------------------------------------------------

    def _run_serial(self, degraded=False):
        """In-process execution: the jobs=1 path and the degraded
        fallback.  Deadlines are honoured via the kernel's cooperative
        wall-clock budget."""
        self._phase = "serial"
        pending, self._pending = self._pending, []
        for index, run in enumerate(pending):
            if self.interrupts:
                self._pending = pending[index:]
                return
            attempts = self._attempts.get(run.run_id, 0)
            if degraded and attempts > 0:
                # This run already killed a worker; re-running it in
                # the supervisor would risk the whole campaign.
                self._finalize_out_of_attempts(run)
                continue
            while True:
                attempts += 1
                self._append_journal(self._dispatch_record(
                    run, attempts, None))
                started = time.monotonic()
                try:
                    result_dict = execute_payload(
                        self._payload(run),
                        wall_clock_budget=self.config.timeout)
                except KeyboardInterrupt:
                    self.interrupts = max(self.interrupts, 1)
                    self._pending = pending[index:]
                    return
                result = FaultRunResult.from_dict(result_dict)
                result.attempts = attempts
                result.wall_time_s = time.monotonic() - started
                if not self._retry_timeout(run, result, attempts) \
                        or self.interrupts:
                    break
            self._record_result(run, result)

    # -- pool path ------------------------------------------------------

    def _run_pool(self):
        self._phase = "pool"
        config = self.config
        methods = multiprocessing.get_all_start_methods()
        method = config.start_method or (
            "fork" if "fork" in methods else None)
        self._ctx = multiprocessing.get_context(method)
        if self._ctx.get_start_method() == "fork":
            preload([run.spec for run in self._pending],
                    coverage=config.collect_coverage)
        self._result_queue = self._ctx.Queue()
        for _ in range(min(config.jobs, len(self._pending))):
            self._spawn_worker()
        try:
            while self._pending or self._any_busy():
                if self.interrupts >= 2:
                    self._abort_pool()
                    return
                if self.report.degraded:
                    return
                if not self.interrupts:
                    self._dispatch_idle()
                self._pump_results()
                self._police_workers()
        finally:
            self._shutdown_pool()

    def _spawn_worker(self):
        config = self.config
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        task_queue = self._ctx.Queue()
        heartbeat = self._ctx.Value("d", time.monotonic())
        process = self._ctx.Process(
            target=worker_main,
            args=(worker_id, task_queue, self._result_queue, heartbeat,
                  config.timeout, config.heartbeat_interval),
            name="repro-exec-worker-%d" % worker_id,
            daemon=True,
        )
        process.start()
        self._workers[worker_id] = _WorkerHandle(
            worker_id, process, task_queue, heartbeat)

    def _any_busy(self):
        return any(handle.busy for handle in self._workers.values())

    def _dispatch_idle(self):
        for handle in list(self._workers.values()):
            if not self._pending:
                break
            if handle.busy or not handle.process.is_alive():
                continue
            run = self._pending.pop(0)
            handle.run = run
            handle.attempt = self._attempts.get(run.run_id, 0) + 1
            handle.dispatch_time = time.monotonic()
            self._append_journal(self._dispatch_record(
                run, handle.attempt, handle.process.pid))
            handle.task_queue.put((run.run_id, self._payload(run)))

    def _pump_results(self):
        import queue as _queue
        try:
            message = self._result_queue.get(
                timeout=self.config.poll_interval)
        except _queue.Empty:
            return
        while True:
            self._handle_message(message)
            try:
                message = self._result_queue.get_nowait()
            except _queue.Empty:
                return

    def _handle_message(self, message):
        kind, worker_id, run_id = message[0], message[1], message[2]
        handle = self._workers.get(worker_id)
        if handle is None or worker_id in self._retired:
            return  # stale message from a worker we already killed
        if kind == "pickup":
            return  # dispatch time already recorded
        if kind == "exit":
            return
        if handle.run is None or handle.run.run_id != run_id:
            return  # stale: run already finalized elsewhere
        run, attempt = handle.run, handle.attempt
        started = handle.dispatch_time
        handle.run = None
        handle.dispatch_time = None
        if kind == "done":
            result = FaultRunResult.from_dict(message[3])
            result.attempts = attempt
            if self._retry_timeout(run, result, attempt):
                self._pending.insert(0, run)
            else:
                self._record_result(run, result)
        elif kind == "error":
            # The execution machinery itself raised inside the worker;
            # the simulator layer would have contained a model crash.
            self._record_result(run, _unfinished_result(
                run, "crashed", "worker execution error (see traceback)",
                attempt, time.monotonic() - started,
                traceback=message[3]))

    def _police_workers(self):
        """Deadline, liveness and death checks on every busy worker."""
        now = time.monotonic()
        hard_deadline = self.config.hard_deadline
        for handle in list(self._workers.values()):
            if not handle.busy:
                if not handle.process.is_alive() \
                        and handle.worker_id not in self._retired:
                    # An idle worker died (startup failure / external
                    # kill): replace it quietly, bounded by restarts.
                    self._retire(handle)
                    self._note_pool_failure()
                    if not self.report.degraded and self._pending:
                        self._spawn_worker()
                continue
            elapsed = now - handle.dispatch_time
            if not handle.process.is_alive():
                self._attempt_failed(handle, "worker-crashed",
                                     "worker pid %s died (exit code "
                                     "%s) while executing the run"
                                     % (handle.process.pid,
                                        handle.process.exitcode))
            elif hard_deadline is not None and elapsed > hard_deadline:
                self._kill(handle)
                self._attempt_failed(handle, "timeout",
                                     "deadline %.2f s exceeded "
                                     "(%.2f s elapsed); worker killed"
                                     % (self.config.timeout, elapsed))
            elif elapsed > self.config.heartbeat_timeout \
                    and now - handle.heartbeat.value \
                    > self.config.heartbeat_timeout:
                self._kill(handle)
                self._attempt_failed(handle, "timeout",
                                     "heartbeat silent for %.1f s; "
                                     "worker frozen and killed"
                                     % (now - handle.heartbeat.value))

    def _kill(self, handle):
        process = handle.process
        if process.is_alive():
            process.terminate()
            process.join(1.0)
            if process.is_alive():  # pragma: no cover - stuck in D state
                process.kill()
                process.join(1.0)

    def _retire(self, handle):
        self._retired.add(handle.worker_id)
        self._workers.pop(handle.worker_id, None)
        handle.task_queue.close()

    def _note_pool_failure(self):
        self._restarts += 1
        if self._restarts > self.config.max_worker_restarts:
            self.report.degraded = True

    def _attempt_failed(self, handle, reason, detail):
        """One dispatch of *run* died (deadline kill or worker death)."""
        run, attempt = handle.run, handle.attempt
        elapsed = time.monotonic() - handle.dispatch_time
        handle.run = None
        handle.dispatch_time = None
        self._retire(handle)
        self._attempts[run.run_id] = attempt
        record = {"event": "attempt-failed",
                  "run": run.run_id, "attempt": attempt,
                  "reason": reason, "detail": detail}
        checkpoint_dir = self.config.run_checkpoint_dir(run.run_id)
        if checkpoint_dir:
            record["checkpoint"] = checkpoint_dir
        self._append_journal(record)
        if reason == "timeout":
            if checkpoint_dir and attempt < self.config.max_attempts:
                # The run's checkpoint store holds its progress up to
                # the kill; re-dispatching resumes from there instead
                # of burning the whole budget again.
                self._pending.insert(0, run)
            else:
                # Without checkpoints a re-run would just repeat the
                # deadline miss; classify it terminally.
                self._record_result(run, _unfinished_result(
                    run, "timeout", detail, attempt, elapsed))
        else:
            self._note_pool_failure()
            if attempt >= self.config.max_attempts:
                self._finalize_out_of_attempts(run, detail=detail,
                                               wall_time_s=elapsed)
            else:
                self._pending.insert(0, run)
        if not self.report.degraded \
                and (self._pending or self._any_busy()) \
                and len(self._workers) < self.config.jobs:
            self._spawn_worker()

    def _finalize_out_of_attempts(self, run, detail="", wall_time_s=0.0):
        """A run has burned every dispatch attempt: quarantine it (the
        default) or classify it ``worker-crashed``."""
        attempts = self._attempts.get(run.run_id,
                                      self.config.max_attempts)
        if self.config.quarantine:
            artefact = self._write_artefact(run, "quarantine")
            self.report.quarantined[run.run_id] = artefact
            record = {"event": "quarantine", "run": run.run_id,
                      "artefact": artefact}
            checkpoint_dir = self.config.run_checkpoint_dir(run.run_id)
            if checkpoint_dir:
                record["checkpoint"] = checkpoint_dir
            self._append_journal(record)
            outcome = "quarantined"
            detail = ("killed its worker %d time(s); RunSpec written "
                      "to %s%s" % (attempts, artefact,
                                   " — " + detail if detail else ""))
        else:
            outcome = "worker-crashed"
            detail = detail or ("worker died %d time(s); retries "
                                "exhausted" % attempts)
        self._record_result(run, _unfinished_result(
            run, outcome, detail, attempts, wall_time_s))

    def _reclaim(self, handle):
        """Return a handle's in-flight run to the pending list (its
        worker is being torn down through no fault of the run)."""
        if handle.run is not None:
            self._pending.append(handle.run)
            handle.run = None
            handle.dispatch_time = None

    def _abort_pool(self):
        """Second Ctrl-C: kill everything now.  In-flight runs stay
        unrecorded so a later ``--resume`` re-dispatches them."""
        for handle in list(self._workers.values()):
            self._reclaim(handle)
            self._kill(handle)
            self._retire(handle)

    def _shutdown_pool(self):
        for handle in list(self._workers.values()):
            try:
                handle.task_queue.put(None)
            except Exception:  # pragma: no cover - queue torn down
                pass
        for handle in list(self._workers.values()):
            if handle.run is None:
                handle.process.join(2.0)
            self._reclaim(handle)
            if handle.process.is_alive():
                self._kill(handle)
            self._retire(handle)
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue = None

    # -- shared bookkeeping ---------------------------------------------

    def _payload(self, run):
        payload = {"run": run.run_id, "scenario": run.scenario,
                   "fault": run.fault, "spec": run.spec.to_dict()}
        if self.config.collect_coverage:
            payload["coverage"] = True
        checkpoint_dir = self.config.run_checkpoint_dir(run.run_id)
        if checkpoint_dir:
            payload["checkpoint"] = {
                "dir": checkpoint_dir,
                "interval_cycles": self.config.checkpoint_interval,
                "keep": self.config.checkpoint_keep,
            }
        elif self.config.warm_start_dir:
            # Lazy import: exec must stay importable without the fuzz
            # package loaded (fuzz imports exec, never the reverse at
            # module scope).
            from ..fuzz.warmstart import WarmStartCache
            warm = WarmStartCache(self.config.warm_start_dir).plan(
                run.spec)
            if warm is not None:
                payload["warm_start"] = warm
        return payload

    def _dispatch_record(self, run, attempt, worker_pid):
        record = {"event": "dispatch", "run": run.run_id,
                  "attempt": attempt, "worker": worker_pid}
        checkpoint_dir = self.config.run_checkpoint_dir(run.run_id)
        if checkpoint_dir:
            record["checkpoint"] = checkpoint_dir
        return record

    def _retry_timeout(self, run, result, attempt):
        """A *cooperative* in-worker timeout landed as a normal result.
        With checkpointing on, the run's store holds real progress —
        burn another attempt to resume it rather than recording the
        timeout terminally (bounded by ``max_attempts``)."""
        if result.outcome != "timeout":
            return False
        checkpoint_dir = self.config.run_checkpoint_dir(run.run_id)
        if not checkpoint_dir or attempt >= self.config.max_attempts:
            return False
        self._attempts[run.run_id] = attempt
        self._append_journal({
            "event": "attempt-failed", "run": run.run_id,
            "attempt": attempt, "reason": "timeout",
            "detail": "cooperative deadline hit; will resume from "
                      "the newest checkpoint",
            "checkpoint": checkpoint_dir,
        })
        return True

    def _record_result(self, run, result):
        # The artefact path joins the detail before the journal write,
        # so a resumed campaign restores the same record.
        if result.outcome == "crashed" and result.spec is not None:
            artefact = self._write_artefact(run, "crash",
                                            fingerprint=result.fingerprint)
            if artefact:
                result.detail = "; ".join(filter(None, (
                    result.detail, "RunSpec written to %s" % artefact)))
        self.report.results[run.run_id] = result
        self._append_journal({"event": "result", "run": run.run_id,
                              "result": result.to_dict()})

    def _write_artefact(self, run, label, fingerprint=None):
        """Dump a single-run replay trace so the failure is one
        ``repro replay --shrink`` away from a minimal reproducer."""
        from ..replay import ReplayTrace, RunOutcome

        outcome = (RunOutcome(**fingerprint) if fingerprint else
                   RunOutcome(outcome="quarantined",
                              detail="no outcome: the run never "
                                     "finished in any worker"))
        safe_id = run.run_id.replace("/", "--")
        path = os.path.join(
            self.config.resolve_artefact_dir(),
            "%s.%s.runspec.json" % (label, safe_id))
        trace = ReplayTrace()
        trace.append(run.spec, outcome)
        try:
            trace.save(path)
        except OSError:  # pragma: no cover - unwritable artefact dir
            return None
        return path


def execute_campaign(runs, config=None):
    """Execute *runs* under *config*; return an
    :class:`ExecutionReport`."""
    return CampaignExecutor(runs, config).execute()
