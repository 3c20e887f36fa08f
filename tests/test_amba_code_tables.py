"""The per-cycle AHB model bodies: code tables and idle paths.

The bodies look bus codes up in the tables of :mod:`repro.amba.types`
instead of calling the enum constructors, and idle slaves and the
default master take a short path.  Neither may change what a run does:
out-of-range codes (a stuck-at fault drives them) still raise the
constructor's ``ValueError`` from the same process, an armed injection
hook still sees every commit of an idle output, and a static scan keeps
constructor calls and ``.value`` property reads out of the bodies.
"""

import ast
import pathlib
from types import SimpleNamespace

import pytest

from repro.amba import MemorySlave, SlavePort
from repro.amba.mux import SlaveToMasterMux
from repro.amba.types import (
    ACTIVE_BY_CODE,
    HBURST,
    HBURST_BY_CODE,
    HRESP,
    HRESP_BY_CODE,
    HTRANS,
    HTRANS_BY_CODE,
    hburst_of,
    hresp_of,
    htrans_of,
    is_active,
    is_active_code,
)
from repro.kernel import Clock, FaultInjector, ProcessError, Signal, Simulator
from repro.kernel.time import MHz, ns
from repro.replay import FaultEntry, campaign_spec, execute

ENGINES = ("interpreted", "compiled")
AMBA = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro" / "amba"


class TestCodeTables:
    @pytest.mark.parametrize("enum, table, lookup", (
        (HTRANS, HTRANS_BY_CODE, htrans_of),
        (HRESP, HRESP_BY_CODE, hresp_of),
        (HBURST, HBURST_BY_CODE, hburst_of),
    ))
    def test_members_by_code(self, enum, table, lookup):
        assert table == {int(member): member for member in enum}
        for member in enum:
            assert lookup(int(member)) is member
            assert lookup(member) is member
        for code in (-1, len(enum), 99, "2", None):
            with pytest.raises(ValueError) as expected:
                enum(code)
            with pytest.raises(ValueError) as raised:
                lookup(code)
            assert str(raised.value) == str(expected.value)

    def test_active_flag_by_code(self):
        assert ACTIVE_BY_CODE == {int(member): is_active(member)
                                  for member in HTRANS}
        for code in range(4):
            assert is_active_code(code) is is_active(HTRANS(code))
        with pytest.raises(ValueError, match="4 is not a valid HTRANS"):
            is_active_code(4)


#: Fingerprints of the stuck-at runs below, as the code that called
#: the enum constructors in the model bodies produced them.
_CRASHED = {
    "outcome": "crashed", "completed": 26, "failed": 0, "aborted": 0,
    "watchdog_events": 0, "recoveries": 0, "violations": 0,
    "first_violation_rule": None, "first_violation_cycle": None,
    "rules_tripped": [], "recovery_compliant": True,
    "total_energy_j": 9.52161705e-10, "overhead_energy_j": 0,
}


class TestOutOfRangeCodes:
    """Bit 2 of HTRANS or HRESP stuck at 1 drives codes 4..7, which no
    table holds.  Each case names the process that meets one first."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("signal, kwargs, detail, energy", (
        # the arbiter's burst tracking samples HTRANS before any slave
        ("htrans", {},
         "ProcessError: process 'ahb.arbiter.update_owner' raised "
         "ValueError: 4 is not a valid HTRANS", None),
        ("hresp", {},
         "ProcessError: process 'checker.check' raised ValueError: "
         "4 is not a valid HRESP", None),
        ("hresp", {"checker": False},
         "ProcessError: process 'power_monitor.monitor' raised "
         "ValueError: 4 is not a valid HRESP", None),
        # alone on the bus, the master's response handling
        ("hresp", {"checker": False, "power_analysis": False},
         "ProcessError: process 'master0.fsm' raised ValueError: "
         "4 is not a valid HRESP", 0.0),
    ))
    def test_stuck_at_run(self, engine, signal, kwargs, detail, energy):
        spec = campaign_spec("portable-audio-player", "none", seed=3,
                             duration_us=3.0).replace(
            scenario_kwargs=kwargs, engine=engine)
        spec.faults = [FaultEntry.signal_fault(
            "stuck-at", signal, bit=2, value=1, start_ps=1_000_000,
            end_ps=1_500_000, probability=0.5)]
        _, outcome = execute(spec)
        expected = dict(_CRASHED, detail=detail)
        if energy is not None:
            expected.update(total_energy_j=energy, overhead_energy_j=energy)
        assert outcome.outcome == "crashed"
        assert outcome.detail == detail
        assert outcome.fingerprint() == expected

    @staticmethod
    def _bench():
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        bus = SimpleNamespace(**{
            name: Signal(sim, name.upper(), init=init, width=32)
            for name, init in (("htrans", int(HTRANS.NONSEQ)),
                               ("haddr", 0), ("hwrite", 0), ("hsize", 2),
                               ("hburst", 0), ("hwdata", 0),
                               ("hready", 1), ("hresp", 0),
                               ("hrdata", 0))})
        injector = FaultInjector(sim, clk, seed=1)
        injector.stuck_at(bus.htrans, 2, 1, start=ns(20))
        return sim, clk, bus

    def test_slave_sample(self):
        sim, clk, bus = self._bench()
        port = SlavePort(sim, "S0")
        port.hsel.force(1)
        slave = MemorySlave(sim, "s0", clk, port, bus)
        with pytest.raises(ProcessError) as raised:
            sim.run(until=ns(100))
        assert str(raised.value) == (
            "process 's0.fsm' raised ValueError: 6 is not a valid HTRANS")
        # the transfers before the fault were sampled
        assert slave.transfers_accepted > 0

    def test_mux_data_phase(self):
        sim, clk, bus = self._bench()
        selected = Signal(sim, "selected", init=0, width=8)
        SlaveToMasterMux(sim, "s2m", clk, [SlavePort(sim, "S0")],
                         SlavePort(sim, "SDEF"), selected, bus)
        with pytest.raises(ProcessError) as raised:
            sim.run(until=ns(100))
        assert str(raised.value) == (
            "process 's2m.advance_data_phase' raised ValueError: "
            "6 is not a valid HTRANS")


class TestIdlePathsUnderInjection:
    """The default slave (never addressed here) and the default master
    drive their idle outputs from the short paths; a hook armed on them
    must still see one commit per cycle."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_counting_hooks(self, engine):
        spec = campaign_spec("portable-audio-player", "none", seed=3,
                             duration_us=3.0).replace(engine=engine)
        calls = {}

        def instrument(system):
            slave = system.bus.default_slave_port
            master = system.default_master.port
            for name, signal in (("hready_out", slave.hready_out),
                                 ("hresp", slave.hresp),
                                 ("htrans", master.htrans),
                                 ("hbusreq", master.hbusreq)):
                calls[name] = 0

                def hook(value, name=name):
                    calls[name] += 1
                    return value
                signal.set_injection(hook)

        system, outcome = execute(spec, instrument=instrument)
        assert system.bus.default_slave.transfers_accepted == 0
        assert system.clk.cycles == 300
        # one commit per cycle, plus the restage set_injection makes
        assert calls == dict.fromkeys(
            ("hready_out", "hresp", "htrans", "hbusreq"), 301)
        assert outcome.fingerprint() == {
            "outcome": "completed", "completed": 87, "failed": 0,
            "aborted": 0, "watchdog_events": 0, "recoveries": 0,
            "violations": 0, "first_violation_rule": None,
            "first_violation_cycle": None, "rules_tripped": [],
            "recovery_compliant": True,
            "total_energy_j": 3.0570408000000015e-09,
            "overhead_energy_j": 0, "detail": "",
        }


def _per_cycle_functions(tree):
    """Every method a registered process of *tree* can reach through
    ``self.name(...)`` calls (all same-named definitions in the file,
    since subclasses override hooks), by name."""
    methods = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    methods.setdefault(item.name, []).append(item)

    def self_attr(node):
        return (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self" and node.attr in methods)

    pending = [call.args[0].attr for call in ast.walk(tree)
               if isinstance(call, ast.Call)
               and isinstance(call.func, ast.Attribute)
               and call.func.attr == "method"
               and call.args and self_attr(call.args[0])]
    reached = {}
    while pending:
        name = pending.pop()
        if name in reached:
            continue
        reached[name] = methods[name]
        for function in methods[name]:
            pending.extend(call.func.attr for call in ast.walk(function)
                           if isinstance(call, ast.Call)
                           and self_attr(call.func))
    return reached


def _offences(function):
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("HTRANS", "HRESP", "HBURST"):
            yield "line %d: %s(...)" % (node.lineno, node.func.id)
        if isinstance(node, ast.Attribute) and node.attr == "value" \
                and isinstance(node.ctx, ast.Load):
            yield "line %d: .value" % node.lineno


class TestPerCycleBodiesStayTableDriven:
    @pytest.mark.parametrize("module, expected", (
        ("master", {"_on_clk", "_complete_data_phase",
                    "_handle_stalled_response", "_drive_request"}),
        ("slave", {"_on_clk", "_drive_outputs", "_begin_transfer",
                   "_split_timer"}),
        ("mux", {"_advance_data_phase", "_route_response"}),
        ("arbiter", {"_decide_grant", "_update_owner",
                     "_track_burst_boundary", "_track_splits"}),
        ("watchdog", {"_on_clk", "_check_stall", "_check_retries",
                      "_check_splits"}),
    ))
    def test_no_enum_constructor_or_value_property(self, module, expected):
        tree = ast.parse((AMBA / (module + ".py")).read_text())
        reached = _per_cycle_functions(tree)
        assert expected <= set(reached)
        offences = ["%s: %s" % (name, offence)
                    for name, functions in sorted(reached.items())
                    for function in functions
                    for offence in _offences(function)]
        assert offences == []

    def test_scan_flags_offences(self):
        tree = ast.parse(
            "class M:\n"
            "    def __init__(self):\n"
            "        self.method(self._on_clk, [])\n"
            "    def _on_clk(self):\n"
            "        self._helper()\n"
            "    def _helper(self):\n"
            "        return HRESP(self.bus.hresp.value)\n")
        reached = _per_cycle_functions(tree)
        assert set(reached) == {"_on_clk", "_helper"}
        assert list(_offences(reached["_helper"][0])) == [
            "line 7: HRESP(...)", "line 7: .value"]

