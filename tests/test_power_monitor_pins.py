"""Exact outputs of every power-monitor style, pinned.

The comparisons in ``test_power_monitors.py`` and
``test_power_offline.py`` hold the styles to each other only within
tolerances, which a reordered float sum would pass.  These tests pin
each style's results on one fixed 10 µs paper-testbench run, and the
offline analyzer's ledger for one recorded VCD, to the exact values in
``monitor_pins.json``: every float must match to the last bit.

The pinned values were recorded before the three monitor styles and
the offline analyzer shared their per-cycle code.  Regenerate them
(``PYTHONPATH=src python tests/test_power_monitor_pins.py``) only for
an intended change to the power model.
"""

import json
import os

import pytest

from repro.amba.transactions import reset_txn_ids
from repro.kernel import us
from repro.power import OfflinePowerAnalyzer, trace_bus
from repro.workloads import build_paper_testbench

PINS = os.path.join(os.path.dirname(__file__), "monitor_pins.json")
SEED = 5
DURATION_US = 10

COUNTERS = ("decode_hd_total", "decode_change_count", "dsel_hd_total",
            "handover_total", "transfer_cycles", "write_cycles")


def _json(obj):
    """The value as it reads back from JSON (tuples become lists)."""
    return json.loads(json.dumps(obj))


def _run(style, **kwargs):
    reset_txn_ids()
    tb = build_paper_testbench(seed=SEED, checker=False,
                               monitor_style=style, **kwargs)
    tb.run(us(DURATION_US))
    return tb


def _instruction_table():
    """The local style's table: per-instruction averages of the
    global monitor over the same run."""
    ledger = _run("global").ledger
    return {name: stats.average_energy
            for name, stats in sorted(ledger.instructions.items())}


def observe(style, tmp_dir=None):
    """Everything pinned for *style* (``global``, ``local``,
    ``private`` or ``offline``)."""
    if style == "offline":
        reset_txn_ids()
        tb = build_paper_testbench(seed=SEED, checker=False,
                                   power_analysis=False)
        path = os.path.join(tmp_dir, "bus.vcd")
        tracer = trace_bus(tb.sim, tb.bus, path)
        tb.run(us(DURATION_US))
        tracer.close()
        ledger = OfflinePowerAnalyzer(tb.config).analyze_file(
            path, 10_000, 5_000)
        return _json({"ledger": ledger.state_dict()})
    if style == "local":
        monitor = _run("local",
                       instruction_energies=_instruction_table()).monitor
    else:
        monitor = _run(style).monitor
    observed = {"ledger": monitor.ledger.state_dict(),
                "fsm": monitor.fsm.state_dict(),
                "prev_owner": monitor._prev_owner}
    if style == "global":
        observed["master_energy"] = monitor.master_energy
        observed["activity"] = monitor.activity_summary()
        observed["counters"] = {name: getattr(monitor, name)
                                for name in COUNTERS}
    if style == "private":
        observed["pending"] = dict(sorted(monitor._pending.items()))
    return _json(observed)


def _pinned(style):
    with open(PINS) as fh:
        return json.load(fh)[style]


@pytest.mark.parametrize("style", ["global", "local", "private"])
def test_monitor_outputs_exact(style):
    observed = observe(style)
    pinned = _pinned(style)
    assert sorted(observed) == sorted(pinned)
    for key in pinned:
        assert observed[key] == pinned[key], key


def test_offline_ledger_exact(tmp_path):
    assert observe("offline", str(tmp_path)) == _pinned("offline")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        pins = {style: observe(style, scratch)
                for style in ("global", "local", "private", "offline")}
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
