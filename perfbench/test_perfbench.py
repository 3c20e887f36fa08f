"""Self-tests of the benchmark: ``python3 -m pytest -q perfbench``.

They check that the printed metrics match ``BENCHMARK.json``, that
every seed's inputs have committed references, and that the
correctness gates fire: a corrupted or missing reference and a forced
compiled-engine decline must each count as failed operations.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from workloads import (REFERENCE_DIR, WORKLOADS,  # noqa: E402
                       FuzzWorkload, MacromodelWorkload, Pass,
                       PowerWorkload, fit_label, power_specs, spec_key)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def run_bench(*args, cwd=ROOT):
    """Run the benchmark command; return ``(exit code, stdout)``."""
    process = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return process.returncode, process.stdout


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_the_declared_metrics(workload, trace):
    code, out = run_bench("--workload", workload, "--seed", "1",
                          "--seconds", "1", "--trace", str(trace), "--quick")
    assert code == 0, out
    result = last_json(out)
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in declared}
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_every_seed_is_checked_against_a_reference():
    """No seed runs an input that has no committed reference."""
    for seed in range(1, 101):
        for engine in ("interpreted", "compiled"):
            power = PowerWorkload("power-" + engine, seed)
            assert all(spec_key(spec) in power.checker.reference
                       for spec in power.specs)
        fuzz = FuzzWorkload("fuzz", seed)
        assert all(str(fuzz.session_seed(index)) in fuzz.checker.reference
                   for index in range(20))
        fits = MacromodelWorkload("macromodel-fit", seed)
        assert all(fit_label(kind, sizes, variant) in fits.checker.reference
                   for kind, sizes, _, variant in fits.sweep)


def test_input_without_a_reference_fails():
    workload = PowerWorkload("power-interpreted", 1)
    spec = workload.specs[0].replace(duration_us=2.0)
    result = Pass()
    workload.run_op(spec, result)
    assert result.failed == 1
    assert result.problems == ["%s: no committed reference" % spec_key(spec)]


def test_corrupted_fit_reference_fails_the_fit(tmp_path):
    references = tmp_path / "references"
    shutil.copytree(REFERENCE_DIR, references)
    kind, sizes, _, variant = MacromodelWorkload(
        "macromodel-fit", 1, quick=True).sweep[0]
    label = fit_label(kind, sizes, variant)
    path = references / "macromodel-fit.json"
    fits = json.loads(path.read_text())
    fits[label]["coefficients"][0] *= 1.001
    path.write_text(json.dumps(fits))
    result = MacromodelWorkload("macromodel-fit", 1, quick=True,
                                references=str(references)).run_pass(0)
    assert result.failed == 1
    assert result.problems == ["%s: differs from reference" % label]


def test_corrupted_power_reference_fails_the_spec(tmp_path):
    references = tmp_path / "references"
    shutil.copytree(REFERENCE_DIR, references)
    path = references / "power.json"
    fingerprints = json.loads(path.read_text())
    key = spec_key(power_specs(1, "interpreted")[0])
    fingerprints[key]["total_energy_j"] *= 1 + 1e-12
    path.write_text(json.dumps(fingerprints))
    workload = PowerWorkload("power-interpreted", 1,
                             references=str(references))
    result = Pass()
    workload.run_op(workload.specs[0], result)
    assert result.failed == 1
    assert result.problems == ["%s: differs from reference" % key]


class _Observer:
    def on_process(self, process, now, seconds):
        pass

    def on_settle(self, now, deltas):
        pass


def test_forced_decline_on_the_compiled_engine_fails():
    workload = PowerWorkload("power-compiled", 1)
    spec = workload.specs[0]
    result = Pass()
    workload.run_op(spec, result)
    assert result.failed == 0
    workload.run_op(spec, result, instrument=lambda system:
                    system.sim.attach_observer(_Observer()))
    assert result.failed == 1
    assert "compiled engine declined (kernel observer attached)" \
        in result.problems[0]


def test_refuses_to_run_outside_a_source_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    process = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert process.returncode != 0
    assert process.stdout == ""
