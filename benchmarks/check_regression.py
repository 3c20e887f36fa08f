#!/usr/bin/env python
"""Throughput regression guard.

Compares a freshly measured ``BENCH_throughput.json`` (the benchmark
run writes it under ``benchmarks/fresh/``) against a baseline (by
default the committed ``benchmarks/BENCH_throughput.json``) and exits
non-zero when any benchmark's rate dropped by more than the threshold.

A *rate* is any field ending in ``_per_s``.  A benchmark present in
the baseline but missing from the current run fails the guard (a
silently dropped benchmark is itself a regression); benchmarks new in
the current run are reported and pass.

Usage (mirrors the CI ``bench-guard`` step)::

    pytest benchmarks/test_bench_throughput.py -q
    python benchmarks/check_regression.py

The default threshold (30 %) absorbs host-speed noise between CI
runners while still catching real slowdowns; tighten it with
``--threshold`` when comparing runs on one machine.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BASELINE = os.path.join(HERE, "BENCH_throughput.json")
DEFAULT_CURRENT = os.path.join(HERE, "fresh", "BENCH_throughput.json")


def rates_of(entry):
    """The ``{field: value}`` rate figures of one benchmark entry."""
    return {field: value for field, value in entry.items()
            if field.endswith("_per_s") and isinstance(value, (int, float))}


def check(baseline, current, threshold):
    """Compare rate fields; return (rows, failures) for reporting."""
    rows = []
    failures = []
    for name in sorted(baseline):
        base_rates = rates_of(baseline[name])
        if not base_rates:
            continue
        if name not in current:
            failures.append("%s: missing from current results" % name)
            continue
        cur_rates = rates_of(current[name])
        for field in sorted(base_rates):
            base = base_rates[field]
            cur = cur_rates.get(field)
            if cur is None:
                failures.append("%s.%s: missing from current results"
                                % (name, field))
                continue
            ratio = cur / base if base else float("inf")
            verdict = "ok"
            if ratio < 1.0 - threshold:
                verdict = "REGRESSION"
                failures.append(
                    "%s.%s: %.1f -> %.1f (%.0f%% of baseline, "
                    "floor %.0f%%)" % (name, field, base, cur,
                                       ratio * 100,
                                       (1.0 - threshold) * 100))
            rows.append((name, field, base, cur, ratio, verdict))
    for name in sorted(set(current) - set(baseline)):
        if rates_of(current[name]):
            rows.append((name, "", None, None, None, "new"))
    return rows, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline BENCH_throughput.json "
                             "(default: %(default)s)")
    parser.add_argument("--current", default=DEFAULT_CURRENT,
                        help="freshly measured results "
                             "(default: %(default)s)")
    parser.add_argument("--threshold", type=float, default=0.30,
                        help="maximum tolerated fractional rate drop "
                             "(default: %(default)s)")
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.current) as fh:
        current = json.load(fh)

    rows, failures = check(baseline, current, args.threshold)
    for name, field, base, cur, ratio, verdict in rows:
        if verdict == "new":
            print("%-42s %-18s (new benchmark)" % (name, field))
        else:
            print("%-42s %-18s %12.1f -> %12.1f  %6.1f%%  %s"
                  % (name, field, base, cur, ratio * 100, verdict))
    if failures:
        print()
        for failure in failures:
            print("FAIL: %s" % failure, file=sys.stderr)
        return 1
    print()
    print("throughput guard passed (threshold: %.0f%% drop)"
          % (args.threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
