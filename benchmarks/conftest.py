"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artefact (table or figure),
asserts its reproduction shape checks and prints the formatted result
so ``pytest benchmarks/ --benchmark-only -s`` shows the same rows and
series the paper reports.

Machine-readable figures: the :func:`bench_json` fixture writes each
module's headline numbers to ``benchmarks/fresh/BENCH_<stem>.json``
(``test_bench_throughput.py`` → ``BENCH_throughput.json``), an
untracked directory, so a run never rewrites the committed
``benchmarks/BENCH_<stem>.json`` reference figures.  To move the
perf trajectory forward, copy a fresh file over its committed
counterpart; ``check_regression.py`` compares the two.

The harness runs with or without ``pytest-benchmark``: when the plugin
is absent, a minimal fallback ``benchmark`` fixture times a single
call, which is all these deterministic seconds-long simulations need.
"""

import json
import os
import time

import pytest

try:  # pragma: no cover - depends on the environment
    import pytest_benchmark  # noqa: F401
    HAVE_PYTEST_BENCHMARK = True
except ImportError:
    HAVE_PYTEST_BENCHMARK = False


def report(result):
    """Print an experiment summary and assert its shape checks."""
    print()
    print(result.summary())
    assert result.passed, "shape checks failed:\n%s" % result.summary()
    return result


#: Directory of the committed BENCH_*.json reference figures.
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: Untracked directory a benchmark run writes its BENCH_*.json into.
FRESH_DIR = os.path.join(BENCH_DIR, "fresh")


def bench_path(module_name):
    """Fresh ``BENCH_<stem>.json`` path for a benchmark module name."""
    stem = module_name.rsplit(".", 1)[-1]
    if stem.startswith("test_bench_"):
        stem = stem[len("test_bench_"):]
    elif stem.startswith("test_"):
        stem = stem[len("test_"):]
    return os.path.join(FRESH_DIR, "BENCH_%s.json" % stem)


def bench_seconds(benchmark, elapsed):
    """Best available per-run seconds for *benchmark*.

    Prefers pytest-benchmark's measured mean when the plugin drove the
    run; otherwise uses the caller's wall-clock *elapsed* (exact for
    the single-shot fallback fixture).
    """
    stats = getattr(benchmark, "stats", None)
    mean = getattr(getattr(stats, "stats", None), "mean", None)
    if mean:
        return mean
    return elapsed


@pytest.fixture
def bench_json(request):
    """Record headline figures into the module's fresh
    ``BENCH_*.json``.

    Returns ``record(key, **fields)``; entries merge into the existing
    file so every test of a module lands in one document.
    """
    path = bench_path(request.module.__name__)
    os.makedirs(FRESH_DIR, exist_ok=True)

    def record(key, **fields):
        data = {}
        if os.path.exists(path):
            try:
                with open(path) as fh:
                    data = json.load(fh)
            except ValueError:
                data = {}
        data[key] = fields
        with open(path, "w") as fh:
            json.dump(data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return fields

    return record


if not HAVE_PYTEST_BENCHMARK:

    class _FallbackBenchmark:
        """Single-shot stand-in for the pytest-benchmark fixture."""

        def __init__(self):
            self.last_seconds = None

        def __call__(self, fn, *args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            self.last_seconds = time.perf_counter() - start
            return result

        def pedantic(self, fn, args=(), kwargs=None, rounds=1,
                     iterations=1):
            return self(fn, *args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _FallbackBenchmark()


@pytest.fixture
def run_once(benchmark):
    """Run *fn* exactly once under the benchmark clock.

    The experiments are deterministic, seconds-long simulations;
    statistical repetition would only slow the harness down.
    """
    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1)
    return runner
