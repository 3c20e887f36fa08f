"""The runtime compliance engine: rule catalogue, severity handling,
advisory liveness rules, and the legacy checker facade."""

import pytest

from repro.amba import (
    AhbBus,
    AhbConfig,
    AhbMaster,
    AhbProtocolChecker,
    AhbTransaction,
    DefaultMaster,
    MemorySlave,
)
from repro.compiled import compile_simulator
from repro.compiled.checker_batch import CheckerBatch
from repro.faults import BabblingMaster
from repro.kernel import (
    Clock,
    FaultInjector,
    MHz,
    ProcessError,
    Simulator,
    ns,
    us,
)
from repro.protocol import (
    CATALOGUE,
    ComplianceEngine,
    ProtocolComplianceError,
    Rule,
    advisory_rules,
    is_mandatory,
    mandatory_rules,
    rule_info,
)
from repro.replay import campaign_spec, execute
from repro.workloads import SCENARIOS, build_scenario


def _checker_batches(sim):
    """The compliance engines' record/replay batches of *sim*."""
    return [batch for batch in sim.batches
            if isinstance(batch, CheckerBatch)]


class EngineSystem:
    """2 active masters + 2 slaves with a configurable engine."""

    def __init__(self, severity="record", master1_cls=AhbMaster,
                 wait_states=(0, 0), **engine_kwargs):
        self.sim = Simulator()
        self.clk = Clock.from_frequency(self.sim, "clk", MHz(100))
        self.config = AhbConfig.with_uniform_map(
            n_masters=3, n_slaves=2, region_size=0x1000,
            default_master=2,
        )
        self.bus = AhbBus(self.sim, "ahb", self.clk, self.config)
        self.m0 = AhbMaster(self.sim, "m0", self.clk,
                            self.bus.master_ports[0], self.bus)
        self.m1 = master1_cls(self.sim, "m1", self.clk,
                              self.bus.master_ports[1], self.bus)
        self.dm = DefaultMaster(self.sim, "dm", self.clk,
                                self.bus.master_ports[2], self.bus)
        self.slaves = [
            MemorySlave(self.sim, "s%d" % index, self.clk,
                        self.bus.slave_ports[index], self.bus,
                        base=index * 0x1000,
                        wait_states=wait_states[index])
            for index in range(2)
        ]
        self.engine = ComplianceEngine(self.sim, "engine", self.bus,
                                       severity=severity,
                                       **engine_kwargs)

    def run_us(self, micros):
        self.sim.run(until=self.sim.now + us(micros))
        return self

    def compile(self):
        """Install the compiled engine; returns it."""
        return compile_simulator(self.sim, [self.clk])

    def glitch_htrans_seq(self, at_ns=500):
        """Force an out-of-thin-air SEQ onto HTRANS for one cycle."""
        injector = FaultInjector(self.sim, self.clk, seed=3)
        injector.glitch(self.bus.htrans, value=3, cycles=1,
                        start=ns(at_ns))
        return injector


class TestCatalogue:
    def test_every_rule_has_spec_reference_and_tier(self):
        assert len(CATALOGUE) == 14
        for rule_id, info in CATALOGUE.items():
            assert info.rule_id == rule_id
            assert info.spec.startswith("§")
            assert info.summary
            assert isinstance(info.mandatory, bool)

    def test_mandatory_advisory_split(self):
        advisory = {rule_id for rule_id, info in CATALOGUE.items()
                    if not info.mandatory}
        assert advisory == {"wait-limit", "retry-livelock",
                            "split-release"}

    def test_rule_factories_cover_the_catalogue(self):
        emitted = set()
        for rule in mandatory_rules() + advisory_rules():
            assert rule.emits, rule
            emitted.update(rule.emits)
        assert emitted == set(CATALOGUE)

    def test_unknown_rule_ids_count_as_mandatory(self):
        assert is_mandatory("no-such-rule")
        assert not is_mandatory("wait-limit")
        with pytest.raises(KeyError):
            rule_info("no-such-rule")

    def test_advisory_rules_can_be_disabled_individually(self):
        assert advisory_rules(wait_limit=None, retry_limit=None,
                              split_limit=None) == []
        assert len(advisory_rules(retry_limit=None)) == 2


class TestHealthyTraffic:
    def test_clean_system_records_nothing(self):
        sys = EngineSystem()
        for index in range(6):
            sys.m0.enqueue(AhbTransaction.write_single(4 * index,
                                                       index))
        from repro.amba import HBURST
        sys.m1.enqueue(AhbTransaction(True, 0x1000,
                                      data=list(range(8)),
                                      hburst=HBURST.INCR8))
        sys.run_us(3)
        assert sys.engine.ok
        assert sys.engine.mandatory_ok
        assert sys.engine.cycles_checked > 100
        assert sys.engine.rules_tripped() == ()
        assert sys.engine.first_violation is None
        sys.engine.raise_if_violations()  # no-op when clean

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_all_scenarios_clean_in_raise_mode(self, name):
        system = build_scenario(name, seed=1, check_protocol="raise")
        system.run(us(20))
        assert system.checker.ok
        assert system.checker.cycles_checked > 1000


class TestSeverity:
    def test_record_collects_structured_violations(self):
        sys = EngineSystem(severity="record")
        sys.glitch_htrans_seq()
        sys.run_us(2)
        assert not sys.engine.ok
        assert not sys.engine.mandatory_ok
        violation = sys.engine.first_violation
        assert violation.rule in sys.engine.rules_tripped()
        assert violation.cycle >= 0
        assert violation.spec.startswith("§")
        assert violation.snapshot["HTRANS"] == 3
        data = violation.to_dict()
        assert data["mandatory"] is True
        assert data["cycle"] == violation.cycle
        assert sys.engine.rule_counts[violation.rule] >= 1

    def test_raise_dies_at_the_violating_cycle(self):
        sys = EngineSystem(severity="raise")
        sys.glitch_htrans_seq()
        with pytest.raises(ProcessError) as exc_info:
            sys.run_us(2)
        assert isinstance(exc_info.value.original,
                          ProtocolComplianceError)
        assert len(sys.engine.violations) == 1

    def test_raise_dies_at_the_violating_cycle_compiled(self):
        sys = EngineSystem(severity="raise")
        sys.glitch_htrans_seq()
        sys.compile()
        with pytest.raises(ProcessError) as exc_info:
            sys.run_us(2)
        assert isinstance(exc_info.value.original,
                          ProtocolComplianceError)
        assert len(sys.engine.violations) == 1
        assert sys.sim.now == sys.engine.violations[0].time
        assert _checker_batches(sys.sim)[0].rows_replayed == 0

    def test_warn_prints_once_per_rule(self, capsys):
        sys = EngineSystem(severity="warn")
        sys.glitch_htrans_seq()
        sys.run_us(2)
        err = capsys.readouterr().err
        assert "ProtocolViolation" in err
        rule = sys.engine.first_violation.rule
        assert err.count(rule) >= 1

    def test_per_rule_severity_override(self):
        sys = EngineSystem(
            severity="record",
            severity_overrides={"seq-without-nonseq": "raise"},
        )
        sys.glitch_htrans_seq()
        with pytest.raises(ProcessError):
            sys.run_us(2)

    def test_unknown_severity_rejected(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        config = AhbConfig.with_uniform_map(n_masters=2, n_slaves=1,
                                            default_master=1)
        bus = AhbBus(sim, "ahb", clk, config)
        with pytest.raises(ValueError):
            ComplianceEngine(sim, "e", bus, severity="explode")
        with pytest.raises(ValueError):
            ComplianceEngine(sim, "e2", bus,
                             severity_overrides={"alignment": "nope"})

    def test_raise_if_violations_summarises(self):
        sys = EngineSystem(severity="record")
        sys.glitch_htrans_seq()
        sys.run_us(2)
        with pytest.raises(AssertionError, match="protocol violations"):
            sys.engine.raise_if_violations()


class TestAdvisoryRules:
    def test_wait_limit_flags_slow_slave_without_breaking_mandatory(self):
        sys = EngineSystem(wait_states=(6, 0), wait_limit=3)
        sys.m0.enqueue(AhbTransaction.write_single(0x10, 1))
        sys.run_us(2)
        assert "wait-limit" in sys.engine.rules_tripped()
        assert not sys.engine.ok
        assert sys.engine.mandatory_ok  # advisory only

    def test_advisory_off_ignores_slow_slave(self):
        sys = EngineSystem(wait_states=(6, 0), advisory=False)
        sys.m0.enqueue(AhbTransaction.write_single(0x10, 1))
        sys.run_us(2)
        assert sys.engine.ok

    def test_wait_limit_flags_once_per_episode(self):
        sys = EngineSystem(wait_states=(6, 0), wait_limit=3)
        sys.m0.enqueue(AhbTransaction.write_single(0x10, 1))
        sys.m0.enqueue(AhbTransaction.write_single(0x14, 2))
        sys.run_us(2)
        waits = [v for v in sys.engine.violations
                 if v.rule == "wait-limit"]
        assert len(waits) == 2  # one per slow transfer, not per cycle


class TestFaultModesTripRules:
    """Acceptance: every PR 1 behavioural fault mode trips at least
    one compliance rule."""

    @pytest.mark.parametrize("fault,expected_rule", [
        ("always-retry", "retry-livelock"),
        ("hung-slave", "wait-limit"),
        ("unreleased-split", "split-release"),
    ])
    def test_slave_fault_modes(self, fault, expected_rule):
        spec = campaign_spec("portable-audio-player", fault=fault,
                             duration_us=8.0)
        _, outcome = execute(spec)
        assert expected_rule in outcome.rules_tripped
        assert outcome.violations >= 1

    def test_babbling_master_trips_mandatory_rules(self):
        sys = EngineSystem(master1_cls=BabblingMaster)
        sys.m0.enqueue(AhbTransaction.write_single(0x10, 1))
        sys.run_us(2)
        tripped = set(sys.engine.rules_tripped())
        assert tripped & {"stall-stability", "seq-without-nonseq",
                          "burst-address", "alignment",
                          "busy-outside-burst"}
        assert not sys.engine.mandatory_ok


class TestLegacyFacade:
    def test_checker_is_an_engine_with_advisory_off(self):
        sys = EngineSystem()
        checker = AhbProtocolChecker(sys.sim, "chk", sys.bus)
        assert isinstance(checker, ComplianceEngine)
        assert all(is_mandatory(rule_id)
                   for rule in checker.rules for rule_id in rule.emits)

    def test_strict_property_maps_to_severity(self):
        sys = EngineSystem()
        checker = AhbProtocolChecker(sys.sim, "chk", sys.bus,
                                     strict=True)
        assert checker.strict and checker.severity == "raise"
        checker.strict = False
        assert checker.severity == "record"
        checker.strict = True
        assert checker.severity == "raise"


class _Silent(Rule):
    """A custom rule: its presence keeps the engine per-cycle."""

    emits = ("custom",)

    def check(self, prev, view):
        return ()


class TestCompiledLivePath:
    """On the compiled engine, configurations whose violations must act
    at their own cycle keep the live per-cycle method, decided afresh
    at every run; results equal the interpreted engine's."""

    @staticmethod
    def _system(engine, **engine_kwargs):
        sys = EngineSystem(**engine_kwargs)
        sys.glitch_htrans_seq(at_ns=1500)
        sys.compiled = sys.compile() if engine == "compiled" else None
        return sys

    @pytest.mark.parametrize("kwargs", [
        {"severity_overrides": {"burst-control": "raise"}},
        {"severity": "warn"},
        {"rules": mandatory_rules() + [_Silent()]},
    ], ids=["override-raise", "warn", "custom-rules"])
    def test_configurations_that_stay_live(self, kwargs, capsys):
        def run(engine):
            sys = self._system(engine, **kwargs)
            sys.run_us(2)
            if sys.compiled is not None:
                (batch,) = _checker_batches(sys.sim)
                assert batch.rows_replayed == 0
            return sys.engine.state_dict(), capsys.readouterr().err

        interpreted = run("interpreted")
        assert interpreted[0]["violations"]
        assert run("compiled") == interpreted

    def test_strict_toggled_between_runs(self):
        def run(engine):
            sys = self._system("interpreted")
            facade = AhbProtocolChecker(sys.sim, "facade", sys.bus)
            sys.compiled = sys.compile() if engine == "compiled" \
                else None
            sys.run_us(1)
            replayed = None
            if sys.compiled is not None:
                (batch,) = [batch for batch
                            in _checker_batches(sys.sim)
                            if batch.owner is facade]
                replayed = batch.rows_replayed
                assert replayed == facade.cycles_checked > 0
            facade.strict = True
            with pytest.raises(ProcessError) as exc_info:
                sys.run_us(1)
            assert isinstance(exc_info.value.original,
                              ProtocolComplianceError)
            assert sys.sim.now == facade.violations[-1].time
            if sys.compiled is not None:
                assert batch.rows_replayed == replayed
            return str(exc_info.value), sys.sim.now, facade.state_dict()

        assert run("compiled") == run("interpreted")
