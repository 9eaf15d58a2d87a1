#!/usr/bin/env python3
"""Metrics-smoke gate: validate a Prometheus text-exposition scrape written
by the observability substrate (`service_driver --prom ...` or the periodic
dumper) and fail if it is malformed or missing the series the SLO
controller depends on.

Usage:
    check_metrics_text.py METRICS.prom [--json METRICS.json]
        [--require-migration] [--min-publish-count 1]

Checks, in order:
  * every line is a comment (# HELP / # TYPE) or a well-formed sample
    (`name{labels} value`), with exactly one HELP and one TYPE per family
    and the TYPE preceding that family's samples;
  * histogram families obey the exposition grammar: `_bucket` samples with
    cumulatively non-decreasing counts per label set, a final `le="+Inf"`
    bucket equal to `_count`, and a `_sum` sample;
  * the writer / queue / batch / publish-latency / merge-cache series the
    controller reads, the cover-size / incidence gauges and the
    scan-skip counter, are all present, `fdrms_publish_latency_us_count` is
    at least --min-publish-count, and `fdrms_ops_applied_total` is nonzero;
  * with --require-migration, all four migration-phase histograms
    (freeze / drain / replay / cutover) carry at least one observation and
    `fdrms_migrations_total` is nonzero;
  * with --json, the matching JSON dump parses and contains a "metrics"
    array naming the same publish-latency series.

The gate is deliberately strict about grammar and loose about values: it
proves a real scrape of a live instrumented run round-trips through a
Prometheus-compatible parser, not that the run was fast.
"""

import argparse
import json
import re
import sys
from collections import defaultdict

SAMPLE_RE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'       # metric name
    r'(?:\{(.*)\})?'                     # optional label body
    r' (-?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|\+Inf|-Inf|NaN))$')
LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')

# Series the SLO controller scrapes; every fdrms_* run must expose these.
REQUIRED_SERIES = [
    "fdrms_ops_submitted_total",
    "fdrms_ops_applied_total",
    "fdrms_batches_total",
    "fdrms_publications_total",
    "fdrms_queue_depth",
    "fdrms_queue_depth_pow2_bucket",
    "fdrms_batch_size_pow2_bucket",
    "fdrms_batch_bound",
    "fdrms_publish_latency_us_bucket",
    "fdrms_publish_latency_us_count",
    "fdrms_writer_drain_us_count",
    "fdrms_writer_apply_us_count",
    "fdrms_writer_publish_us_count",
    "fdrms_reads_total",
    "fdrms_merge_cache_hits_total",
    "fdrms_merge_cache_misses_total",
    # Fault-domain gauge: every live shard exports its health bit. (The
    # fault *counters* — deaths, restarts, degraded reads — are zero in a
    # healthy run and so are only asserted by check_fault_smoke.py.)
    "fdrms_shard_healthy",
    # Algorithm-health series set per batch: |Q_t|, the set system's
    # membership count, and the inserts that skipped the utility scan.
    "fdrms_cover_size",
    "fdrms_incidence_entries",
    "fdrms_insert_scan_skips_total",
    # Process-level series every registry snapshot synthesizes.
    "process_uptime_seconds",
    "obs_registry_series",
]

MIGRATION_SERIES = [
    "fdrms_migrations_total",
    "fdrms_migration_freeze_us_count",
    "fdrms_migration_drain_us_count",
    "fdrms_migration_replay_us_count",
    "fdrms_migration_cutover_us_count",
]


def parse_value(text):
    if text == "+Inf":
        return float("inf")
    if text == "-Inf":
        return float("-inf")
    return float(text)


def parse_exposition(path, errors):
    """Parse the text format into {name: [(labels_dict, value)]}, appending
    grammar violations to `errors`."""
    samples = defaultdict(list)
    helps, types = {}, {}
    families_seen = []  # order of first sample per family
    with open(path) as f:
        lines = f.read().splitlines()
    for lineno, line in enumerate(lines, 1):
        if not line:
            continue
        if line.startswith("#"):
            m = re.match(r'^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) (.*)$',
                         line)
            if not m:
                errors.append(f"line {lineno}: malformed comment: {line!r}")
                continue
            kind, family, rest = m.groups()
            table = helps if kind == "HELP" else types
            if family in table:
                errors.append(
                    f"line {lineno}: duplicate # {kind} for {family}")
            table[family] = rest
            continue
        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: malformed sample: {line!r}")
            continue
        name, label_body, value = m.groups()
        labels = {}
        if label_body:
            consumed = 0
            for lm in LABEL_RE.finditer(label_body):
                labels[lm.group(1)] = lm.group(2)
                consumed += len(lm.group(0)) + 1  # +1 for separator comma
            if consumed < len(label_body):
                errors.append(
                    f"line {lineno}: malformed label body: {label_body!r}")
        family = re.sub(r'_(bucket|sum|count)$', '', name)
        if family not in types and name in types:
            family = name
        if family not in families_seen:
            families_seen.append(family)
            if family not in types:
                errors.append(
                    f"line {lineno}: sample for {name} precedes its # TYPE")
        samples[name].append((labels, parse_value(value)))
    for family in types:
        if family not in helps:
            errors.append(f"family {family}: # TYPE without # HELP")
    for family in helps:
        if family not in types:
            errors.append(f"family {family}: # HELP without # TYPE")
    return samples, types


def check_histograms(samples, types, errors):
    for family, kind in types.items():
        if kind != "histogram":
            continue
        buckets = samples.get(family + "_bucket", [])
        by_series = defaultdict(list)
        for labels, value in buckets:
            key = tuple(sorted((k, v) for k, v in labels.items()
                               if k != "le"))
            try:
                le = parse_value(labels.get("le", "+Inf"))
            except ValueError:
                errors.append(f"histogram {family}: unparseable le label "
                              f"{labels.get('le')!r}")
                continue
            by_series[key].append((le, value))
        counts = {tuple(sorted(l.items())): v
                  for l, v in samples.get(family + "_count", [])}
        sums = {tuple(sorted(l.items())): v
                for l, v in samples.get(family + "_sum", [])}
        if not by_series:
            errors.append(f"histogram {family}: no _bucket samples")
        for key, series in by_series.items():
            les = [le for le, _ in series]
            vals = [v for _, v in series]
            if les != sorted(les):
                errors.append(f"histogram {family}{dict(key)}: "
                              "le bounds out of order")
            if any(b > a for a, b in zip(vals[1:], vals)):
                errors.append(f"histogram {family}{dict(key)}: "
                              "bucket counts not cumulative")
            if not les or les[-1] != float("inf"):
                errors.append(f"histogram {family}{dict(key)}: "
                              'missing le="+Inf" bucket')
            elif key in counts and vals[-1] != counts[key]:
                errors.append(f"histogram {family}{dict(key)}: "
                              f"+Inf bucket {vals[-1]} != _count "
                              f"{counts[key]}")
            if key not in counts:
                errors.append(f"histogram {family}{dict(key)}: no _count")
            if key not in sums:
                errors.append(f"histogram {family}{dict(key)}: no _sum")


def series_total(samples, name):
    return sum(v for _, v in samples.get(name, []))


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("prom", help="Prometheus text-exposition file")
    parser.add_argument("--json", dest="json_path",
                        help="matching JSON dump to cross-check")
    parser.add_argument("--require-migration", action="store_true",
                        help="require migration-phase series with samples")
    parser.add_argument("--min-publish-count", type=int, default=1)
    args = parser.parse_args()

    errors = []
    samples, types = parse_exposition(args.prom, errors)
    check_histograms(samples, types, errors)

    required = list(REQUIRED_SERIES)
    if args.require_migration:
        required += MIGRATION_SERIES
    for name in required:
        if name not in samples:
            errors.append(f"required series missing: {name}")
    for name in required:
        if name.endswith(("_count", "_total")) and name in samples:
            if series_total(samples, name) <= 0 and (
                    args.require_migration or not name.startswith(
                        "fdrms_migration")):
                errors.append(f"required series has zero mass: {name}")

    publish = series_total(samples, "fdrms_publish_latency_us_count")
    if publish < args.min_publish_count:
        errors.append(f"fdrms_publish_latency_us_count = {publish:g} "
                      f"< --min-publish-count {args.min_publish_count}")

    if args.json_path:
        try:
            with open(args.json_path) as f:
                doc = json.load(f)
            names = {m.get("name") for m in doc.get("metrics", [])}
            if "fdrms_publish_latency_us" not in names:
                errors.append("JSON dump missing fdrms_publish_latency_us")
            if "uptime_seconds" not in doc:
                errors.append("JSON dump missing uptime_seconds")
        except (OSError, json.JSONDecodeError) as exc:
            errors.append(f"JSON dump unreadable: {exc}")

    print(f"metrics-smoke: {len(samples)} sample names, "
          f"{len(types)} families, publish_count={publish:g}")
    if errors:
        print("\nmetrics-smoke FAILED:", file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        return 1
    print("metrics-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
