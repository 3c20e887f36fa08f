"""Offline (VCD replay) power analysis tests."""

import io

import pytest

from repro.kernel import load_vcd, read_vcd, us
from repro.kernel.vcd_reader import VcdParseError
from repro.power import (
    OfflinePowerAnalyzer,
    PAPER_TECHNOLOGY,
    trace_bus,
)
from repro.workloads import build_paper_testbench


def record_run(tmp_path, seed=1, duration_us=20, with_monitor=True):
    tb = build_paper_testbench(seed=seed, checker=False,
                               power_analysis=with_monitor)
    path = tmp_path / "bus.vcd"
    tracer = trace_bus(tb.sim, tb.bus, str(path))
    tb.run(us(duration_us))
    tracer.close()
    return tb, path


class TestVcdReader:
    def test_roundtrip_signal_count(self, tmp_path):
        tb, path = record_run(tmp_path, duration_us=2)
        vcd = load_vcd(str(path))
        assert "HADDR" in vcd
        assert "HWDATA" in vcd
        assert "HBUSREQ0" in vcd
        assert vcd["HADDR"].width == 32

    def test_value_at_semantics(self):
        text = """$timescale 1ps $end
$scope module top $end
$var wire 4 ! data $end
$upscope $end
$enddefinitions $end
$dumpvars
b0 !
$end
#100
b101 !
#200
b11 !
#300
"""
        vcd = read_vcd(io.StringIO(text))
        signal = vcd["data"]
        assert signal.value_at(50) == 0
        assert signal.value_at(100) == 0b101
        assert signal.value_at(150) == 0b101
        assert signal.value_at(250) == 0b011
        assert vcd.end_time == 300

    def test_timescale_scaling(self):
        text = """$timescale 1ns $end
$var wire 1 ! clk $end
$enddefinitions $end
#5
1!
"""
        vcd = read_vcd(io.StringIO(text))
        assert vcd["clk"].changes == [(5000, 1)]

    def test_x_and_z_read_as_zero(self):
        text = """$timescale 1ps $end
$var wire 4 ! d $end
$var wire 1 " w $end
$enddefinitions $end
#1
bx1z1 !
x"
"""
        vcd = read_vcd(io.StringIO(text))
        assert vcd["d"].value_at(1) == 0b0101
        assert vcd["w"].value_at(1) == 0

    def test_unknown_identifier_rejected(self):
        text = """$timescale 1ps $end
$var wire 1 ! a $end
$enddefinitions $end
#1
1?
"""
        with pytest.raises(VcdParseError):
            read_vcd(io.StringIO(text))

    def test_sample_times(self):
        text = """$timescale 1ps $end
$var wire 1 ! a $end
$enddefinitions $end
#100000
1!
"""
        vcd = read_vcd(io.StringIO(text))
        times = vcd.sample_times(10_000, 5_000)
        assert times[0] == 14_999
        assert times[-1] <= 100_000
        assert all(b - a == 10_000 for a, b in zip(times, times[1:]))


class TestOfflineReplay:
    def test_offline_matches_live_monitor(self, tmp_path):
        tb, path = record_run(tmp_path, duration_us=20)
        analyzer = OfflinePowerAnalyzer(tb.config)
        ledger = analyzer.analyze_file(str(path), 10_000, 5_000)
        live = tb.ledger
        assert ledger.cycles == pytest.approx(live.cycles, abs=2)
        assert ledger.total_energy == pytest.approx(
            live.total_energy, rel=0.02)
        for block in ("M2S", "S2M", "DEC"):
            assert ledger.block_energy[block] == pytest.approx(
                live.block_energy[block], rel=0.03)

    def test_parameter_what_if_without_resimulation(self, tmp_path):
        tb, path = record_run(tmp_path, duration_us=10,
                              with_monitor=False)
        vcd = load_vcd(str(path))
        base = OfflinePowerAnalyzer(tb.config).analyze(
            vcd, 10_000, 5_000)
        low_vdd = OfflinePowerAnalyzer(
            tb.config,
            params=PAPER_TECHNOLOGY.scaled(vdd=PAPER_TECHNOLOGY.vdd / 2),
        ).analyze(vcd, 10_000, 5_000)
        # dynamic energy scales with VDD^2
        assert low_vdd.total_energy == pytest.approx(
            base.total_energy / 4, rel=1e-6)

    def test_missing_signals_rejected(self, tmp_path):
        text = """$timescale 1ps $end
$var wire 2 ! HTRANS $end
$enddefinitions $end
#1000
"""
        tb, _ = record_run(tmp_path, duration_us=1,
                           with_monitor=False)
        analyzer = OfflinePowerAnalyzer(tb.config)
        with pytest.raises(ValueError):
            analyzer.analyze(read_vcd(io.StringIO(text)), 10_000, 5_000)

    @pytest.mark.parametrize("period_ps", (0, -10_000))
    def test_non_positive_clock_period_rejected(self, tmp_path,
                                                period_ps):
        # A period that never advances the sampling edge is refused
        # before any sample time is collected.
        tb, path = record_run(tmp_path, duration_us=1,
                              with_monitor=False)
        with pytest.raises(ValueError, match="clock period"):
            OfflinePowerAnalyzer(tb.config).analyze(
                load_vcd(str(path)), period_ps, 5_000)

    def test_instruction_split_close_to_live(self, tmp_path):
        """Offline classification lacks only the (unobservable)
        pending-grant flag; the class split stays close."""
        from repro.power import is_data_transfer
        tb, path = record_run(tmp_path, duration_us=20)
        offline = OfflinePowerAnalyzer(tb.config).analyze_file(
            str(path), 10_000, 5_000)
        live_share = tb.ledger.class_share(is_data_transfer)
        offline_share = offline.class_share(is_data_transfer)
        assert offline_share == pytest.approx(live_share, abs=0.05)
