"""Arithmetic of the pipeline benchmark.

Turns one run document written by `pipeline_bench run` into the metrics
BENCHMARK.json declares. All percentiles, ratios and span self times are
computed here, and perfbench/test_metrics.py checks them on hand-built
inputs.
"""

import math
import statistics

WORKLOADS = ("investigate", "snapshot_series", "serve_fleet", "metaquery")

TEMPLATES = ("q_deleted", "q_point", "q_like", "q_fresh_updates",
             "q_join_agg", "q_topk")

# End-to-end metrics, measured with tracing off. Every workload reports all
# of them.
END_TO_END = (
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Per-layer metrics, measured in a traced run. A workload that never calls a
# layer reports 0 for that layer's metrics.
PER_LAYER = (
    ("core.carve_disk_ms", "ms"),
    ("core.carve_ram_ms", "ms"),
    ("core.carve_cpu_ratio", "ratio"),
    ("core.pages_carved", "count"),
    ("core.records_carved", "count"),
    ("detective.analyze_ms", "ms"),
    ("detective.records_checked", "count"),
    ("detective.findings", "count"),
    ("snapshot.ingest_ms_p50", "ms"),
    ("snapshot.ingest_ms_p95", "ms"),
    ("snapshot.ingest_cpu_ratio", "ratio"),
    ("snapshot.detect_incremental_ms", "ms"),
    ("snapshot.page_reuse_ratio", "ratio"),
    ("snapshot.artifact_reuse_ratio", "ratio"),
    ("snapshot.records_rematched", "count"),
    ("snapshot.bytes_written_per_op", "bytes"),
    ("repo_bytes_per_image_byte", "ratio"),
    ("serve.submit_us_p50", "us"),
    ("serve.submit_us_p95", "us"),
    ("serve.drain_ms", "ms"),
    ("serve.cpu_ratio", "ratio"),
    ("serve.phase_a_p50_ms", "ms"),
    ("serve.phase_b_p95_ms", "ms"),
    ("serve.queue_high_water", "count"),
    ("serve.rejected", "count"),
    ("sql.parse_us", "us"),
) + tuple((f"metaquery.{t}_ms", "ms") for t in TEMPLATES) + tuple(
    (f"metaquery.{t}_rows", "count") for t in TEMPLATES) + (
    ("metaquery.cpu_ratio", "ratio"),
    ("metaquery.register_ms", "ms"),
    ("loadgen.late_p95_ms", "ms"),
    ("loadgen.generate_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.root_self_ms", "ms"),
)


class Metric:
    """One reported number with its unit, its sample count and, for a
    ratio, the base it was computed from."""

    def __init__(self, value, unit, n=None, base=None):
        self.value = float(value)
        self.unit = unit
        self.n = n
        self.base = base

    def describe(self):
        parts = []
        if self.n is not None:
            parts.append(f"n={self.n}")
        if self.base is not None:
            parts.append(self.base)
        return " ".join(parts)


def percentile(values, p):
    """Nearest-rank percentile: the smallest sample such that at least p% of
    the samples are at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def ratio(numerator, denominator, unit="ratio", what=("", "")):
    """numerator / denominator, reported with its base; 0 over an empty
    base."""
    value = numerator / denominator if denominator else 0.0
    base = f"base {what[0]}{numerator:.6g} / {what[1]}{denominator:.6g}"
    return Metric(value, unit, base=base)


def self_times(spans):
    """Self time of every span: its duration minus the part of it that its
    children's intervals cover (overlapping children count once).

    `spans` are [op, name, parent, start_ns, end_ns, cpu_ns] rows; parent is
    the index of the parent span or -1 for a root. Returns a list of self
    times in nanoseconds, indexed like `spans`.
    """
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[2] >= 0:
            children[span[2]].append(i)
    result = []
    for i, (_, _, _, start, end, _) in enumerate(spans):
        covered = 0
        cursor = start
        intervals = sorted((max(spans[c][3], start), min(spans[c][4], end))
                           for c in children[i])
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result.append(end - start - covered)
    return result


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(doc):
    """The END_TO_END metrics of an untraced run document, plus the
    figures only printed: failed_frac, serve_captures_per_s and
    repo_bytes_per_image_byte."""
    samples = doc["samples"]
    out = {}
    if "op_p50_ms" in samples:
        # serve_fleet: per cycle, the phase-B median and the phase-A p95 of
        # the daemons' ServeStats latency summaries.
        for name in ("op_p50_ms", "op_p95_ms"):
            n = int(sum(samples.get(name[:-3] + "_n", [])))
            out[name] = Metric(_median(samples[name]), "ms", n)
    else:
        ms = samples.get("op_ms", [])
        out["op_p50_ms"] = Metric(percentile(ms, 50), "ms", len(ms))
        out["op_p95_ms"] = Metric(percentile(ms, 95), "ms", len(ms))
    if "throughput_per_s" in samples:
        # serve_fleet: phase-A captures per second, one value per cycle.
        rates = samples["throughput_per_s"]
        out["throughput_per_s"] = Metric(_median(rates), "1/s", len(rates))
        out["serve_captures_per_s"] = out["throughput_per_s"]
    else:
        ms = samples["op_ms"]
        out["throughput_per_s"] = ratio(len(ms), sum(ms) / 1000.0, "1/s",
                                        ("ops ", "busy s "))
    setup = samples.get("setup_s", [])
    out["setup_s"] = Metric(_median(setup), "s", len(setup))
    out["peak_rss_mb"] = Metric(doc["peak_rss_mb"], "MB")
    out["failed_frac"] = ratio(doc["failed"], doc["attempted"], "ratio",
                               ("failed ", "attempted "))
    repo = samples.get("repo_bytes_per_image_byte")
    if repo:
        out["repo_bytes_per_image_byte"] = Metric(_median(repo), "ratio",
                                                  len(repo))
    return out


def per_layer(doc, generate_s):
    """The PER_LAYER metrics of a traced run document."""
    samples = doc["samples"]
    spans = doc["spans"]
    names = [s[1] for s in spans]
    root_of = []
    for s in spans:
        root_of.append(len(root_of) if s[2] < 0 else root_of[s[2]])

    def select(name, root_name=None):
        return [s for i, s in enumerate(spans) if names[i] == name and (
            root_name is None or names[root_of[i]] == root_name)]

    def dur_ms(rows, scale=1e-6):
        return [(s[4] - s[3]) * scale for s in rows]

    def span_pct(name, p, unit="ms", root_name=None):
        rows = select(name, root_name)
        if not rows:
            return Metric(0, unit, 0)
        scale = 1e-3 if unit == "us" else 1e-6
        return Metric(percentile(dur_ms(rows, scale), p), unit, len(rows))

    def cpu_ratio(name, root_name=None):
        rows = select(name, root_name)
        return ratio(sum(s[5] for s in rows) / 1e9,
                     sum(s[4] - s[3] for s in rows) / 1e9, "ratio",
                     ("cpu s ", "wall s "))

    def sample_median(name, unit):
        values = samples.get(name, [])
        return Metric(_median(values), unit, len(values))

    def sample_sum(name):
        return sum(samples.get(name, []))

    out = {
        "core.carve_disk_ms": span_pct("core.carve_disk", 50),
        "core.carve_ram_ms": span_pct("core.carve_ram", 50),
        "core.carve_cpu_ratio": cpu_ratio("core.carve_disk"),
        "core.pages_carved": sample_median("core.pages_carved", "count"),
        "core.records_carved": sample_median("core.records_carved", "count"),
        "detective.analyze_ms": span_pct("detective.analyze", 50),
        "detective.records_checked": sample_median(
            "detective.records_checked", "count"),
        "detective.findings": sample_median("detective.findings", "count"),
        "snapshot.ingest_ms_p50": span_pct("snapshot.ingest", 50),
        "snapshot.ingest_ms_p95": span_pct("snapshot.ingest", 95),
        "snapshot.ingest_cpu_ratio": cpu_ratio("snapshot.ingest"),
        "snapshot.detect_incremental_ms": span_pct(
            "snapshot.detect_incremental", 50),
        "snapshot.page_reuse_ratio": ratio(
            sample_sum("snapshot.pages_reused"),
            sample_sum("snapshot.pages_total"), "ratio",
            ("reused ", "pages ")),
        "snapshot.artifact_reuse_ratio": ratio(
            sample_sum("snapshot.artifacts_reused"),
            sample_sum("snapshot.artifacts_reused") +
            sample_sum("snapshot.artifacts_carved"), "ratio",
            ("reused ", "reused+carved ")),
        "snapshot.records_rematched": sample_median(
            "snapshot.records_rematched", "count"),
        "snapshot.bytes_written_per_op": ratio(
            sample_sum("snapshot.bytes_written"),
            len(samples.get("snapshot.bytes_written", [])), "bytes",
            ("bytes ", "ops ")),
        "repo_bytes_per_image_byte": sample_median(
            "repo_bytes_per_image_byte", "ratio"),
        "serve.submit_us_p50": span_pct("serve.submit", 50, "us",
                                        "op.phase_a"),
        "serve.submit_us_p95": span_pct("serve.submit", 95, "us",
                                        "op.phase_a"),
        "serve.drain_ms": span_pct("serve.drain", 50),
        "serve.cpu_ratio": cpu_ratio("op.phase_a"),
        "serve.phase_a_p50_ms": sample_median("serve.phase_a_p50_ms", "ms"),
        "serve.phase_b_p95_ms": sample_median("serve.phase_b_p95_ms", "ms"),
        "serve.queue_high_water": sample_median("serve.queue_high_water",
                                                "count"),
        "serve.rejected": Metric(sample_sum("serve.rejected"), "count",
                                 len(samples.get("serve.rejected", []))),
        "sql.parse_us": span_pct("sql.parse", 50, "us"),
    }
    for t in TEMPLATES:
        out[f"metaquery.{t}_ms"] = span_pct("metaquery.execute", 50, "ms",
                                            f"op.{t}")
        out[f"metaquery.{t}_rows"] = sample_median(f"metaquery.rows.{t}",
                                                   "count")
    out["metaquery.cpu_ratio"] = cpu_ratio("metaquery.execute")
    out["metaquery.register_ms"] = span_pct("metaquery.register", 50)
    late = samples.get("loadgen.late_ms", [])
    out["loadgen.late_p95_ms"] = Metric(percentile(late, 95) if late else 0,
                                        "ms", len(late))
    out["loadgen.generate_s"] = Metric(generate_s, "s")
    out["trace.overhead_pct"] = trace_overhead(samples)
    own = self_times(spans)
    roots = [own[i] * 1e-6 for i, s in enumerate(spans)
             if s[2] < 0 and s[1].startswith("op")]
    out["trace.root_self_ms"] = Metric(percentile(roots, 50) if roots else 0,
                                       "ms", len(roots))
    return out


def trace_overhead(samples):
    """Traced vs untraced op p50 of the same run, in percent."""
    key = "op_p50_ms" if "op_p50_ms" in samples else "op_ms"
    plain = samples.get(key, [])
    traced = samples.get(key + "_traced", [])
    if not plain or not traced:
        return Metric(0, "%", 0)
    if key == "op_ms":
        base, with_trace = percentile(plain, 50), percentile(traced, 50)
    else:
        base, with_trace = _median(plain), _median(traced)
    value = (with_trace / base - 1.0) * 100.0 if base else 0.0
    base_text = f"base traced p50 {with_trace:.6g} / untraced p50 {base:.6g}"
    return Metric(value, "%", len(plain) + len(traced), base_text)
