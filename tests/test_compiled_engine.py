"""Unit tests for the static compiler (repro.compiled).

Covers graph extraction and its loud rejections (dynamic sensitivity,
undeclared write sets, mixed sensitivity, clock-writing combinational
processes, more than one clock), the kernel delta loop both engines
share (combinational loops that settle or trip the delta-cycle limit,
writes staged outside any process), and the engine's run-time
decline / fall-back paths — every one of which must leave results
bit-identical to the interpreted kernel.
"""

import pytest

from repro.compiled import CompileError, compile_simulator, extract_graph
from repro.kernel import (
    Clock,
    DeltaCycleLimitError,
    MHz,
    Signal,
    Simulator,
    ns,
    us,
)


def _counter_design():
    """A clocked counter plus a combinational decode stage."""
    sim = Simulator()
    clk = Clock.from_frequency(sim, "clk", MHz(100))
    count = Signal(sim, "count", width=32)
    decoded = Signal(sim, "decoded", width=1)
    sim.add_method(lambda: count.write(count.value + 1),
                   [clk.posedge], name="tick", initialize=False)
    sim.add_method(lambda: decoded.write(1 if count.value % 5 == 0
                                         else 0),
                   [count], name="decode", writes=[decoded])
    return sim, clk, count, decoded


class TestGraphExtraction:
    def test_classifies_seq_and_comb(self):
        sim, clk, count, decoded = _counter_design()
        graph = extract_graph(sim, [clk])
        domain = graph.domain
        assert domain.clock is clk
        assert [info.name for info in domain.seq_pos] == ["tick"]
        assert [info.name for info in graph.comb] == ["decode"]
        assert graph.comb[0].reads == (count,)
        assert graph.comb[0].writes == (decoded,)

    def test_rejects_dynamic_sensitivity_thread(self):
        sim, clk, count, decoded = _counter_design()

        def roamer():
            yield count.changed     # dynamic wait — not compilable

        sim.add_thread(roamer, name="roamer")
        with pytest.raises(CompileError) as excinfo:
            extract_graph(sim, [clk])
        assert "dynamic sensitivity" in str(excinfo.value)
        assert excinfo.value.process_names == ("roamer",)

    def test_rejects_undeclared_comb_writes(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        a = Signal(sim, "a")
        b = Signal(sim, "b")
        sim.add_method(lambda: b.write(a.value), [a], name="anon")
        with pytest.raises(CompileError, match="write set"):
            extract_graph(sim, [clk])

    def test_rejects_mixed_sensitivity(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        a = Signal(sim, "a")
        b = Signal(sim, "b")
        sim.add_method(lambda: b.write(a.value), [clk.posedge, a],
                       name="mixed", writes=[b])
        with pytest.raises(CompileError, match="mixes"):
            extract_graph(sim, [clk])

    def test_rejects_edge_on_non_clock_signal(self):
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        a = Signal(sim, "a")
        sim.add_method(lambda: None, [a.posedge], name="edgy")
        with pytest.raises(CompileError, match="not a .* clock"):
            extract_graph(sim, [clk])

    def test_rejects_comb_clock_writer(self):
        # Compile-time, not run-time: a combinational process that
        # drives the clock wire would corrupt the engine's edge
        # arithmetic.
        sim = Simulator()
        clk = Clock.from_frequency(sim, "clk", MHz(100))
        a = Signal(sim, "a")
        sim.add_method(lambda: clk.signal.write(0), [a],
                       name="gater", writes=[clk.signal])
        with pytest.raises(CompileError, match="writes clock signal"):
            compile_simulator(sim, [clk], install=False)


def _run_both(build, until, before=None):
    """Run the design *build* returns on each engine; returns
    ``{engine: (sim, design, engine_or_None, error)}``.  *before*
    runs on each design ahead of the compared ``run`` call."""
    runs = {}
    for name in ("interpreted", "compiled"):
        design = build()
        sim = design[0]
        engine = (compile_simulator(sim, [design[1]])
                  if name == "compiled" else None)
        if before is not None:
            before(design)
        error = None
        try:
            sim.run(until=until)
        except DeltaCycleLimitError as exc:
            error = exc
        runs[name] = (sim, design, engine, error)
    return runs


def _settling_loop():
    """Two combinational processes that feed each other: ``a`` climbs
    one step per delta pair until it reaches a cap set by the counter,
    so every cycle settles after several rounds."""
    sim, clk, count, decoded = _counter_design()
    a = Signal(sim, "a", width=8)
    b = Signal(sim, "b", width=8)
    evaluations = []

    def fwd():
        evaluations.append(sim.now)
        a.write(min(b.value + 1, count.value % 4))
    sim.add_method(fwd, [count, b], name="fwd", writes=[a])
    sim.add_method(lambda: b.write(a.value), [a], name="back",
                   writes=[b])
    return sim, clk, a, b, evaluations


def _oscillator():
    """A combinational inverter loop a clocked enable switches on at
    cycle 7; it never settles."""
    sim = Simulator(max_delta_cycles=50)
    clk = Clock.from_frequency(sim, "clk", MHz(100))
    enable = Signal(sim, "enable")
    a = Signal(sim, "a")
    sim.add_method(lambda: enable.write(1 if clk.cycles >= 7 else 0),
                   [clk.posedge], name="arm", initialize=False)
    sim.add_method(lambda: a.write(1 - a.value if enable.value else 0),
                   [enable, a], name="osc", writes=[a])
    return sim, clk, a


class TestSharedDeltaLoop:
    """Both engines settle in the kernel's one delta loop, so a design
    the interpreted kernel runs compiles and runs the same."""

    def test_unsettled_loop_raises_the_same_error(self):
        runs = _run_both(_oscillator, us(1))
        errors = {name: run[3] for name, run in runs.items()}
        assert all(errors.values())
        interpreted, compiled = errors["interpreted"], errors["compiled"]
        assert str(compiled) == str(interpreted)
        assert "exceeded 50 delta cycles" in str(compiled)
        assert compiled.process_names == interpreted.process_names \
            == ("osc",)
        sims = {name: run[0] for name, run in runs.items()}
        assert sims["compiled"].delta_count \
            == sims["interpreted"].delta_count
        assert sims["compiled"].now == sims["interpreted"].now == ns(65)
        assert runs["compiled"][2].runs_compiled == 1

    def test_settling_loop_runs_identically(self):
        runs = _run_both(_settling_loop, us(2))
        engine = runs["compiled"][2]
        assert engine.runs_compiled == 1, engine.fallback_reason
        observed = {}
        for name, (sim, design, _, error) in runs.items():
            assert error is None
            _, clk, a, b, evaluations = design
            observed[name] = (sim.delta_count, sim.now, clk.cycles,
                              a.value, b.value, evaluations)
        assert observed["compiled"] == observed["interpreted"]
        # the loop took several rounds on most cycles
        cycles = observed["compiled"][2]
        assert len(observed["compiled"][5]) > 2 * cycles

    def test_write_staged_outside_a_process_takes_a_delta(self):
        settles = []

        def before(design):
            sim, _, count, _ = design
            sim.run(until=ns(55))
            count.write(40)      # staged between runs, by no process
            start = sim.delta_count
            sim.run(until=sim.now)
            # one delta commits the write, one runs the decode it wakes
            settles.append(sim.delta_count - start)
            count.write(7)       # and one more, left for the next run

        runs = _run_both(_counter_design, us(1), before)
        assert settles == [2, 2]
        assert runs["compiled"][2].runs_compiled == 3
        observed = {}
        for name, (sim, design, _, _) in runs.items():
            _, clk, count, decoded = design
            observed[name] = (sim.delta_count, sim.now, clk.cycles,
                              count.value, decoded.value)
        assert observed["compiled"] == observed["interpreted"]

    def test_two_clocks_raise_compile_error(self):
        sim = Simulator()
        clk_a = Clock(sim, "clk_a", period=ns(10))
        clk_b = Clock(sim, "clk_b", period=ns(27))
        count = Signal(sim, "count", width=32)
        sim.add_method(lambda: count.write(count.value + 1),
                       [clk_b.posedge], name="tick_b",
                       initialize=False)
        with pytest.raises(CompileError,
                           match="exactly one clock.*clk_a, clk_b"):
            compile_simulator(sim, [clk_a, clk_b])
        # naming one clock leaves the other clock's thread uncompilable
        with pytest.raises(CompileError, match="clk_b"):
            compile_simulator(sim, [clk_a])
        assert sim.scheduler is None
        sim.run(until=us(1))          # the interpreted kernel runs it
        assert count.value == clk_b.cycles > 0


class TestEngineFallback:
    def test_observer_declines_to_interpreter(self):
        sim, clk, count, decoded = _counter_design()
        engine = compile_simulator(sim, [clk])

        class Observer:
            def on_process(self, process, now, seconds):
                pass

            def on_settle(self, now, deltas):
                pass

        sim.attach_observer(Observer())
        sim.run(until=us(1))
        assert engine.runs_compiled == 0
        assert engine.runs_declined == 1
        assert "observer" in engine.fallback_reason
        assert count.value == 100     # still ran, interpreted

    def test_late_process_registration_declines(self):
        sim, clk, count, decoded = _counter_design()
        engine = compile_simulator(sim, [clk])
        other = Signal(sim, "other")
        sim.add_method(lambda: other.write(count.value), [count],
                       name="late", writes=[other])
        sim.run(until=us(1))
        assert engine.runs_declined == 1
        assert "registered since compile" in engine.fallback_reason
        assert count.value == 100

    def test_seq_clock_writer_bails_mid_run(self):
        # A sequential process that drives the clock wire low is only
        # detectable at run time; the engine must materialize its
        # state and hand the rest of the run to the interpreter,
        # producing the interpreted trajectory.
        def build():
            sim = Simulator()
            clk = Clock(sim, "clk", period=ns(10))
            count = Signal(sim, "count", width=32)

            def tick():
                count.write(count.value + 1)
                if count.value == 49:
                    clk.signal.write(0)    # kill the clock mid-run
            sim.add_method(tick, [clk.posedge], name="tick",
                           initialize=False)
            return sim, clk, count

        ref_sim, _, ref_count = build()
        ref_sim.run(until=us(2))

        sim, clk, count = build()
        engine = compile_simulator(sim, [clk])
        sim.run(until=us(2))
        assert count.value == ref_count.value
        assert sim.now == ref_sim.now
        assert sim.delta_count == ref_sim.delta_count

    def test_uninstall_restores_interpreter(self):
        sim, clk, count, decoded = _counter_design()
        engine = compile_simulator(sim, [clk])
        sim.run(until=us(1))
        assert engine.runs_compiled == 1
        engine.uninstall()
        sim.run(until=us(2))
        assert engine.runs_compiled == 1    # second leg interpreted
        assert count.value == 200

    def test_partial_until_time_matches(self):
        # `until` falling between edges: the engine must stop the
        # clock plan exactly where the interpreted heap would.
        ref_sim, ref_clk, ref_count, _ = _counter_design()
        ref_sim.run(until=ns(10_015))

        sim, clk, count, _ = _counter_design()
        compile_simulator(sim, [clk])
        sim.run(until=ns(10_015))
        assert count.value == ref_count.value
        assert sim.now == ref_sim.now == ns(10_015)
        # and the next leg resumes cleanly, compiled again
        ref_sim.run(until=ns(20_000))
        sim.run(until=ns(20_000))
        assert count.value == ref_count.value
        assert sim.delta_count == ref_sim.delta_count
