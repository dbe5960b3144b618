#!/usr/bin/env python3
"""Benchmark-regression gate over Google Benchmark JSON files.

Compares a current run (e.g. a CI smoke pass) against a committed baseline
(BENCH_*.json) benchmark-by-benchmark and fails when any common benchmark
got slower than ``tolerance`` times its baseline. Stdlib only, so CI can
run it with any python3.

Representative time per benchmark (by ``run_name``): the aggregate median
when present, else the aggregate mean, else the median over raw iteration
entries. Times are normalized through ``time_unit`` before comparison, so
a baseline recorded in ms compares correctly against a run emitted in ns.

A current leg that errored (``error_occurred``) or reports a ``real_time``
of zero or less measured nothing, so the gate fails on it instead of
scoring it as infinitely fast.

Exit codes: 0 ok, 1 regression (suppressed by --warn-only), 2 usage,
no-overlap or failed-leg errors (never suppressed: comparing disjoint files
means the gate is miswired, and a failed leg means nothing was measured,
not that performance is fine).
"""

import argparse
import json
import statistics
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def _entry_time_ns(entry):
    """real_time of one benchmarks[] entry, normalized to nanoseconds."""
    unit = entry.get("time_unit", "ns")
    if unit not in _UNIT_NS:
        raise ValueError(f"unknown time_unit {unit!r} in {entry.get('name')}")
    return float(entry["real_time"]) * _UNIT_NS[unit]


def representative_times(doc):
    """Maps run_name -> representative time in ns for one benchmark JSON."""
    aggregates = {}  # run_name -> {aggregate_name: ns}
    iterations = {}  # run_name -> [ns, ...]
    for entry in doc.get("benchmarks", []):
        name = entry.get("run_name", entry.get("name"))
        if name is None or "real_time" not in entry:
            continue
        if entry.get("run_type") == "aggregate":
            # Skip relative aggregates like cv: they are ratios, not times.
            if entry.get("aggregate_time", "time") != "time":
                continue
            aggregates.setdefault(name, {})[entry.get("aggregate_name")] = (
                _entry_time_ns(entry)
            )
        else:
            iterations.setdefault(name, []).append(_entry_time_ns(entry))

    times = {}
    for name, aggs in aggregates.items():
        if "median" in aggs:
            times[name] = aggs["median"]
        elif "mean" in aggs:
            times[name] = aggs["mean"]
    for name, samples in iterations.items():
        if name not in times:
            times[name] = statistics.median(samples)
    return times


def failed_legs(doc):
    """Names of the time entries in one benchmark JSON that measured
    nothing: an ``error_occurred`` flag, or a missing or non-positive
    ``real_time``. Ratio aggregates (cv) are not times and are skipped."""
    failed = []
    for entry in doc.get("benchmarks", []):
        if entry.get("run_type") == "aggregate" and (
            entry.get("aggregate_unit", "time") != "time"
            or entry.get("aggregate_time", "time") != "time"
        ):
            continue
        name = entry.get("name", entry.get("run_name"))
        if entry.get("error_occurred") or not (
            float(entry.get("real_time", 0.0)) > 0.0
        ):
            failed.append(name)
    return failed


def compare(baseline, current, tolerance):
    """Returns (regressions, improvements, common) over two run_name maps.

    A regression is current > tolerance * baseline; an improvement (reported
    informationally) is current < baseline / tolerance.
    """
    regressions = []
    improvements = []
    common = sorted(set(baseline) & set(current))
    for name in common:
        ratio = current[name] / baseline[name] if baseline[name] > 0 else 0.0
        if ratio > tolerance:
            regressions.append((name, ratio))
        elif ratio != 0.0 and ratio < 1.0 / tolerance:
            improvements.append((name, ratio))
    return regressions, improvements, common


def run_gate(baseline_path, current_path, tolerance, warn_only):
    try:
        with open(baseline_path) as f:
            baseline = representative_times(json.load(f))
        with open(current_path) as f:
            current_doc = json.load(f)
        current = representative_times(current_doc)
        failed = failed_legs(current_doc)
    except (OSError, ValueError, KeyError) as err:
        print(f"check_bench: cannot load inputs: {err}", file=sys.stderr)
        return 2

    if failed:
        for name in failed:
            print(
                f"check_bench: FAILED LEG {name} in {current_path}: it "
                f"errored or reports no positive real_time",
                file=sys.stderr,
            )
        return 2

    regressions, improvements, common = compare(baseline, current, tolerance)
    if not common:
        print(
            f"check_bench: no common benchmarks between {baseline_path} and "
            f"{current_path} — the gate is comparing the wrong files",
            file=sys.stderr,
        )
        return 2

    print(
        f"check_bench: {len(common)} benchmark(s) compared against "
        f"{baseline_path} (tolerance {tolerance:g}x)"
    )
    for name, ratio in improvements:
        print(f"  improved   {name}: {ratio:.2f}x of baseline")
    for name, ratio in regressions:
        print(
            f"  REGRESSION {name}: {ratio:.2f}x of baseline "
            f"(current {current[name]:.0f} ns vs baseline "
            f"{baseline[name]:.0f} ns)"
        )
    if regressions:
        if warn_only:
            print("check_bench: regressions found (warn-only, not failing)")
            return 0
        return 1
    print("check_bench: ok")
    return 0


def _synthetic(named_ns):
    """A minimal Google-Benchmark-shaped doc from {run_name: (ns, unit)}."""
    benchmarks = []
    for name, (value, unit) in named_ns.items():
        benchmarks.append(
            {
                "name": f"{name}_median",
                "run_name": name,
                "run_type": "aggregate",
                "aggregate_name": "median",
                "real_time": value,
                "time_unit": unit,
            }
        )
    return {"context": {}, "benchmarks": benchmarks}


def self_test():
    """Exercises the gate logic on synthetic documents; exits nonzero on
    any behavioral break so the suite can run it as a ctest."""
    # Unit normalization: 2 ms baseline == 2e6 ns current.
    base = representative_times(_synthetic({"BM_a": (2.0, "ms")}))
    cur = representative_times(_synthetic({"BM_a": (2.0e6, "ns")}))
    regs, _, common = compare(base, cur, 1.5)
    assert common == ["BM_a"] and not regs, "unit normalization broke"

    # Regression detection at the tolerance edge.
    cur_slow = representative_times(_synthetic({"BM_a": (3.1, "ms")}))
    regs, _, _ = compare(base, cur_slow, 1.5)
    assert [n for n, _ in regs] == ["BM_a"], "regression not detected"
    regs, _, _ = compare(base, cur_slow, 2.0)
    assert not regs, "tolerance not honored"

    # Improvement is informational, never a failure.
    cur_fast = representative_times(_synthetic({"BM_a": (0.5, "ms")}))
    regs, improvements, _ = compare(base, cur_fast, 1.5)
    assert not regs and [n for n, _ in improvements] == ["BM_a"]

    # Median preferred over mean; iterations used when no aggregates.
    doc = {
        "benchmarks": [
            {
                "run_name": "BM_b",
                "run_type": "aggregate",
                "aggregate_name": "mean",
                "real_time": 100.0,
                "time_unit": "ns",
            },
            {
                "run_name": "BM_b",
                "run_type": "aggregate",
                "aggregate_name": "median",
                "real_time": 90.0,
                "time_unit": "ns",
            },
            {
                "run_name": "BM_c",
                "run_type": "iteration",
                "real_time": 7.0,
                "time_unit": "ns",
            },
            {
                "run_name": "BM_c",
                "run_type": "iteration",
                "real_time": 9.0,
                "time_unit": "ns",
            },
            {
                "run_name": "BM_c",
                "run_type": "iteration",
                "real_time": 8.0,
                "time_unit": "ns",
            },
        ]
    }
    times = representative_times(doc)
    assert times["BM_b"] == 90.0, "median not preferred over mean"
    assert times["BM_c"] == 8.0, "iteration median wrong"

    # Disjoint files are a wiring error, not a pass.
    regs, _, common = compare(
        representative_times(_synthetic({"BM_x": (1.0, "ns")})),
        representative_times(_synthetic({"BM_y": (1.0, "ns")})),
        1.5,
    )
    assert not common, "disjoint inputs must have no common benchmarks"

    # A leg that errored, or timed nothing, fails the gate: it must not
    # score as ratio 0 (infinitely fast) and print ok.
    import os
    import tempfile

    errored = _synthetic({"BM_a": (2.0, "ms")})
    errored["benchmarks"][0].update(
        {"real_time": 0.0, "error_occurred": True, "error_message": "boom"}
    )
    assert failed_legs(errored) == ["BM_a_median"], "errored leg not found"
    zero = _synthetic({"BM_a": (0.0, "ms")})
    assert failed_legs(zero) == ["BM_a_median"], "zero real_time not found"
    assert not failed_legs(_synthetic({"BM_a": (2.0, "ms")}))
    cv = _synthetic({"BM_a": (0.0, "ns")})
    cv["benchmarks"][0].update(
        {"aggregate_name": "cv", "aggregate_unit": "percentage"}
    )
    assert not failed_legs(cv), "a zero cv is not a failed leg"
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        cur_path = os.path.join(tmp, "cur.json")
        with open(base_path, "w") as f:
            json.dump(_synthetic({"BM_a": (2.0, "ms")}), f)
        with open(cur_path, "w") as f:
            json.dump(errored, f)
        assert run_gate(base_path, cur_path, 1.5, False) == 2, (
            "errored leg passed the gate"
        )
        assert run_gate(base_path, cur_path, 1.5, True) == 2, (
            "--warn-only suppressed a failed leg"
        )
        with open(cur_path, "w") as f:
            json.dump(_synthetic({"BM_a": (2.0e6, "ns")}), f)
        assert run_gate(base_path, cur_path, 1.5, False) == 0

    print("check_bench: self-test ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", nargs="?", help="committed BENCH_*.json")
    parser.add_argument("current", nargs="?", help="fresh benchmark JSON")
    parser.add_argument(
        "--tolerance",
        type=float,
        default=1.5,
        help="fail when current > tolerance * baseline (default 1.5)",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions but exit 0 (wiring/usage errors still fail)",
    )
    parser.add_argument(
        "--self-test", action="store_true", help="run the built-in checks"
    )
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.tolerance <= 1.0:
        print("check_bench: --tolerance must be > 1.0", file=sys.stderr)
        return 2
    return run_gate(args.baseline, args.current, args.tolerance,
                    args.warn_only)


if __name__ == "__main__":
    sys.exit(main())
