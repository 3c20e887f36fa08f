"""The campaign run record, pinned.

``FaultRunResult.to_dict()`` is both the journal row and the run entry
of ``faults --json``, so its layout is a file format.  These tests pin
the exact record of three results — an executed completed run, a run
that crashes on an invalid HRESP code and a run the supervisor killed
at its deadline — plus a journal row and a ``faults --json`` run entry,
all recorded before the record derived its counters and energies from
the run's ``RunOutcome`` fingerprint.

Host-dependent parts are normalised before recording and comparing:
the wall time, the elapsed seconds a deadline kill reports, and the
traceback (only its last line, free of file paths and line numbers,
is kept).  Regenerate the pins
(``PYTHONPATH=src python tests/test_run_record.py``) only for an
intended change to the record layout.
"""

import json
import multiprocessing
import os
import re

import pytest

import repro.exec.worker as worker_mod
from repro.exec import WORKER_ENV_FLAG, ExecutorConfig, execute_campaign
from repro.faults import (
    CampaignRun,
    FaultRunResult,
    enumerate_campaign,
    run_fault_campaign,
)
from repro.replay import FaultEntry, campaign_spec
from repro.telemetry import campaign_metrics

PINS = os.path.join(os.path.dirname(__file__), "run_record_pins.json")
SCENARIO = "portable-audio-player"

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the hostile worker is patched in through fork inheritance")

COMPLETED = enumerate_campaign((SCENARIO,), (), seed=1,
                               duration_us=2.0)[0]

#: The hresp glitch of ``test_compiled_identity.TestInvalidCycleIdentity``:
#: the power monitor raises on the invalid code at ledger cycle 101.
GLITCH = CampaignRun(
    SCENARIO + "/hresp-glitch", SCENARIO, "hresp-glitch",
    campaign_spec(SCENARIO, seed=3, duration_us=3.0).replace(
        scenario_kwargs={"checker": False}, watchdog=False,
        faults=[FaultEntry.signal_fault("glitch", "hresp", value=7,
                                        cycles=1, start_ps=1_000_000)]))


def _normalised(record):
    record = dict(record, wall_time_s=0.0)
    if record["traceback"]:
        record["traceback"] = record["traceback"].strip().splitlines()[-1]
    record["detail"] = re.sub(r"\(\d+\.\d+ s elapsed\)", "(N s elapsed)",
                              record["detail"])
    return record


def _payload(run):
    return {"run": run.run_id, "scenario": run.scenario,
            "fault": run.fault, "spec": run.spec.to_dict()}


def _with_hostile_worker(action, fn):
    """Call *fn* while every pool worker runs *action* instead of its
    payload (the supervisor itself is never patched)."""
    real = worker_mod.execute_payload

    def hostile(payload, wall_clock_budget=None):
        if os.environ.get(WORKER_ENV_FLAG):
            action()
        return real(payload, wall_clock_budget=wall_clock_budget)

    worker_mod.execute_payload = hostile
    try:
        return fn()
    finally:
        worker_mod.execute_payload = real


def _hang():
    while True:
        pass


def _raise():
    raise RuntimeError("forced worker execution error")


def observe(name, tmp_dir):
    """The record pinned as *name*."""
    if name == "completed":
        return _normalised(worker_mod.execute_payload(_payload(COMPLETED)))
    if name == "crashed":
        return _normalised(worker_mod.execute_payload(_payload(GLITCH)))
    if name == "timeout":
        config = ExecutorConfig(jobs=2, timeout=0.3, deadline_grace=0.2,
                                artefact_dir=tmp_dir)
        report = _with_hostile_worker(
            _hang, lambda: execute_campaign([COMPLETED], config))
        return _normalised(report.results[COMPLETED.run_id].to_dict())
    if name in ("journal_row", "json_run"):
        journal = os.path.join(tmp_dir, "campaign.jsonl")
        campaign = run_fault_campaign(
            scenarios=(SCENARIO,), faults=("always-retry",), seed=1,
            duration_us=5.0, journal=journal)
        if name == "json_run":
            return json.loads(json.dumps(campaign.to_dict()["runs"][1]))
        with open(journal) as fh:
            rows = [json.loads(line) for line in fh]
        return [row["result"] for row in rows
                if row.get("event") == "result"
                and row["run"] == SCENARIO + "/always-retry"][0]
    raise KeyError(name)


def _pins():
    with open(PINS) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", [
    "completed", "crashed",
    pytest.param("timeout", marks=needs_fork),
])
def test_record_layout_exact(name, tmp_path):
    record = observe(name, str(tmp_path))
    assert json.dumps(record) == json.dumps(_pins()[name])
    assert FaultRunResult.from_dict(record).to_dict() == record


@pytest.mark.parametrize("name", ["journal_row", "json_run"])
def test_recorded_rows_round_trip_unchanged(name):
    """Rows as the journal writes them (keys sorted) rebuild to the
    same record."""
    row = _pins()[name]
    assert json.dumps(FaultRunResult.from_dict(row).to_dict(),
                      sort_keys=True) == json.dumps(row, sort_keys=True)


@needs_fork
def test_supervisor_results_take_tier_and_engine_from_spec(tmp_path):
    """A run the supervisor finalises keeps its spec's tier and engine,
    and the tier counter reports it."""
    run = CampaignRun(SCENARIO + "/none", SCENARIO, "none",
                      campaign_spec(SCENARIO, duration_us=2.0,
                                    tier="tlm", engine="compiled"))
    config = ExecutorConfig(jobs=2, timeout=30,
                            artefact_dir=str(tmp_path))
    report = _with_hostile_worker(
        _raise, lambda: execute_campaign([run], config))
    result = report.results[run.run_id]
    assert result.outcome == "crashed"
    assert result.spec["tier"] == "tlm"
    assert (result.tier, result.engine) == ("tlm", "compiled")
    assert result.to_dict()["tier"] == "tlm"
    series = campaign_metrics([result]).merged["counters"][
        "campaign_tier_runs_total"]["series"]
    assert series == {"scenario=%s,fault=none,tier=tlm" % SCENARIO: 1.0}


def test_crashed_run_resumes_to_identical_record(tmp_path):
    """The crash artefact path is part of the journalled detail, so a
    resumed campaign reports the same record as the fresh one."""
    config = dict(journal=str(tmp_path / "campaign.jsonl"),
                  artefact_dir=str(tmp_path))
    fresh = execute_campaign([GLITCH], ExecutorConfig(**config))
    resumed = execute_campaign([GLITCH],
                               ExecutorConfig(resume=True, **config))
    assert resumed.resumed == 1
    record = fresh.results[GLITCH.run_id].to_dict()
    assert record["outcome"] == "crashed"
    assert "RunSpec written to" in record["detail"]
    assert resumed.results[GLITCH.run_id].to_dict() == record


if __name__ == "__main__":
    import tempfile

    pins = {}
    for name in ("completed", "crashed", "timeout", "journal_row",
                 "json_run"):
        with tempfile.TemporaryDirectory() as tmp_dir:
            pins[name] = observe(name, tmp_dir)
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    print("wrote %s" % PINS)
