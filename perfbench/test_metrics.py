#!/usr/bin/env python3
"""Self-test of the benchmark's own arithmetic (perfbench/metrics.py):
nearest-rank percentiles with sample counts, ratios with their base, span
self time on a hand-built span tree, and agreement with BENCHMARK.json.

    python3 perfbench/test_metrics.py
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402


def span(op, name, parent, start, end, cpu=0):
    return [op, name, parent, start, end, cpu]


def doc(samples=None, spans=None, attempted=10, failed=0):
    return {"samples": samples or {}, "spans": spans or [],
            "attempted": attempted, "failed": failed, "peak_rss_mb": 64.5}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = [35, 20, 50, 15, 40]
        self.assertEqual(metrics.percentile(values, 0), 15)
        self.assertEqual(metrics.percentile(values, 30), 20)
        self.assertEqual(metrics.percentile(values, 40), 20)
        self.assertEqual(metrics.percentile(values, 50), 35)
        self.assertEqual(metrics.percentile(values, 100), 50)

    def test_p95_of_200_leaves_ten_beyond(self):
        values = list(range(1, 201))
        p95 = metrics.percentile(values, 95)
        self.assertEqual(p95, 190)
        self.assertEqual(sum(v > p95 for v in values), 10)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            metrics.percentile([], 50)


class RatioTest(unittest.TestCase):
    def test_value_and_base(self):
        r = metrics.ratio(3, 4, "ratio", ("cpu s ", "wall s "))
        self.assertEqual(r.value, 0.75)
        self.assertEqual(r.base, "base cpu s 3 / wall s 4")

    def test_empty_base_is_zero(self):
        self.assertEqual(metrics.ratio(5, 0).value, 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_hand_built_tree(self):
        spans = [
            span(0, "op", -1, 0, 100),        # 0: root
            span(0, "a", 0, 10, 40),          # 1
            span(0, "b", 0, 30, 60),          # 2: overlaps a by 10
            span(0, "c", 1, 15, 20),          # 3: grandchild under a
            span(0, "d", 0, 90, 120),         # 4: runs past the root
            span(1, "op", -1, 200, 250),      # 5: another op, no children
        ]
        # root: children cover [10, 60) and [90, 100) -> 60 of 100.
        self.assertEqual(metrics.self_times(spans), [40, 25, 30, 5, 30, 50])


class EndToEndTest(unittest.TestCase):
    def test_closed_loop(self):
        ms = [float(v) for v in range(1, 201)]
        out = metrics.end_to_end(doc({"op_ms": ms, "setup_s": [0.5, 0.2, 0.3]},
                                     attempted=203, failed=1))
        self.assertEqual(out["op_p50_ms"].value, 100)
        self.assertEqual(out["op_p95_ms"].value, 190)
        self.assertEqual(out["op_p95_ms"].n, 200)
        self.assertAlmostEqual(out["throughput_per_s"].value,
                               200 / (sum(ms) / 1000))
        self.assertEqual(out["setup_s"].value, 0.3)
        self.assertEqual(out["peak_rss_mb"].value, 64.5)
        self.assertAlmostEqual(out["failed_frac"].value, 1 / 203)

    def test_serve_summaries(self):
        out = metrics.end_to_end(doc({
            "op_p50_ms": [2.0, 1.0, 3.0], "op_p95_ms": [5.0, 4.0, 9.0],
            "op_p50_n": [100, 100, 100], "op_p95_n": [50, 50, 50],
            "throughput_per_s": [10, 30, 20],
            "setup_s": [1.0]}))
        self.assertEqual(out["op_p50_ms"].value, 2.0)
        self.assertEqual(out["op_p95_ms"].value, 5.0)
        self.assertEqual(out["op_p50_ms"].n, 300)
        self.assertEqual(out["op_p95_ms"].n, 150)
        self.assertEqual(out["throughput_per_s"].value, 20)


class PerLayerTest(unittest.TestCase):
    def test_spans_and_counts(self):
        spans = [
            span(0, "op", -1, 0, 100_000_000),
            span(0, "core.carve_disk", 0, 0, 20_000_000, 60_000_000),
            span(0, "detective.analyze", 0, 30_000_000, 90_000_000),
            span(1, "op", -1, 200_000_000, 300_000_000),
            span(1, "core.carve_disk", 3, 200_000_000, 240_000_000,
                 100_000_000),
        ]
        samples = {"op_ms": [110.0, 90.0], "op_ms_traced": [100.0, 100.0],
                   "core.pages_carved": [7, 7]}
        out = metrics.per_layer(doc(samples, spans), 1.5)
        self.assertEqual(set(out), {name for name, _ in metrics.PER_LAYER})
        self.assertEqual(out["core.carve_disk_ms"].value, 20.0)
        self.assertEqual(out["core.carve_disk_ms"].n, 2)
        self.assertAlmostEqual(out["core.carve_cpu_ratio"].value, 160 / 60)
        self.assertEqual(out["core.pages_carved"].value, 7)
        self.assertEqual(out["detective.analyze_ms"].value, 60.0)
        self.assertEqual(out["snapshot.ingest_ms_p50"].value, 0)
        self.assertEqual(out["loadgen.generate_s"].value, 1.5)
        # traced p50 100 vs untraced p50 90 (nearest rank of [90, 110]).
        self.assertAlmostEqual(out["trace.overhead_pct"].value,
                               (100 / 90 - 1) * 100)
        # Root self times: 100 - 80 = 20 ms and 100 - 40 = 60 ms.
        self.assertAlmostEqual(out["trace.root_self_ms"].value, 20.0)


class DeclarationTest(unittest.TestCase):
    def test_matches_benchmark_json(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        declared = json.loads(path.read_text())
        def names(kind):
            return [(m["name"], m["unit"]) for m in declared[kind]]
        self.assertEqual(names("end_to_end"), list(metrics.END_TO_END))
        self.assertEqual(names("per_layer"), list(metrics.PER_LAYER))
        self.assertEqual([w["name"] for w in declared["workloads"]],
                         list(metrics.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
