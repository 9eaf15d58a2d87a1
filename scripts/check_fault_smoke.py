#!/usr/bin/env python3
"""Fault-smoke gate: assert the kill-a-shard-writer drill actually bit.

Usage:
    check_fault_smoke.py METRICS.json [--min-deaths 1] [--min-restarts 1]
        [--max-p99-us 0]

Run `service_driver --scenario ... --fault-kill-at F` first; the driver
already exits nonzero unless the final merge is consistent and the revive
healed the fleet. This gate reads the final registry JSON dump and checks
the outage left the durable marks a *real* drill must leave:

  * a shard writer actually died mid-run
    (fdrms_shard_deaths_total >= --min-deaths),
  * it was revived into a fresh writer incarnation
    (fdrms_shard_writer_restarts_total >= --min-restarts),
  * readers were served *through* the outage, not around it
    (fdrms_degraded_reads_total > 0 — merged reads that carried a dead
    shard's frozen snapshot),
  * the fleet ended healed: fdrms_shards_unhealthy == 0 and every
    per-shard fdrms_shard_healthy gauge is back to 1,
  * with --max-p99-us > 0, the whole-run publish p99 stayed under the
    bound (a post-recovery latency sanity check, not an SLO claim),
  * the kill and the revive are in the dump's trace as "shard.unhealthy"
    and "shard.revive" events. They live in the registry's lifecycle ring,
    which per-batch events cannot evict, so a miss fails the gate.
"""

import argparse
import json
import sys
from collections import defaultdict


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path", help="registry JSON dump from the run")
    parser.add_argument("--min-deaths", type=int, default=1,
                        help="minimum fdrms_shard_deaths_total")
    parser.add_argument("--min-restarts", type=int, default=1,
                        help="minimum fdrms_shard_writer_restarts_total")
    parser.add_argument("--max-p99-us", type=float, default=0.0,
                        help="bound on whole-run publish p99 (0 = skip)")
    args = parser.parse_args()

    try:
        with open(args.json_path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"fault-smoke FAILED: JSON dump unreadable: {exc}",
              file=sys.stderr)
        return 1

    # Sum across label sets: the constellation counters are single series,
    # but per-shard gauges (fdrms_shard_healthy) appear once per shard.
    totals = defaultdict(float)
    series = defaultdict(list)
    publish_p99 = None
    for metric in doc.get("metrics", []):
        name = metric.get("name")
        if "value" in metric:
            totals[name] += metric["value"]
            series[name].append((metric.get("labels", {}), metric["value"]))
        if name == "fdrms_publish_latency_us" and "p99" in metric:
            publish_p99 = metric["p99"]

    errors = []
    deaths = totals["fdrms_shard_deaths_total"]
    if deaths < args.min_deaths:
        errors.append(f"fdrms_shard_deaths_total = {deaths:g} < "
                      f"{args.min_deaths} (no shard writer actually died)")
    restarts = totals["fdrms_shard_writer_restarts_total"]
    if restarts < args.min_restarts:
        errors.append(f"fdrms_shard_writer_restarts_total = {restarts:g} < "
                      f"{args.min_restarts} (dead shard was never revived)")
    degraded = totals["fdrms_degraded_reads_total"]
    if degraded <= 0:
        errors.append("fdrms_degraded_reads_total = 0 (no read was ever "
                      "served through the outage — kill window too short?)")
    unhealthy = totals["fdrms_shards_unhealthy"]
    if unhealthy != 0:
        errors.append(f"fdrms_shards_unhealthy = {unhealthy:g} at exit "
                      "(fleet did not heal)")
    # A revived shard's fresh writer incarnation exports its own series
    # (distinct "gen" label); the dead incarnation's gauge stays 0 forever,
    # which is honest telemetry. Per shard index, *some* incarnation must
    # be healthy at exit.
    healthy = series["fdrms_shard_healthy"]
    if not healthy:
        errors.append("fdrms_shard_healthy series missing from dump")
    best = defaultdict(float)
    for labels, value in healthy:
        shard = labels.get("shard", "?")
        best[shard] = max(best[shard], value)
    for shard in sorted(best):
        if best[shard] != 1:
            errors.append(f"fdrms_shard_healthy{{shard={shard}}} = "
                          f"{best[shard]:g} across all incarnations "
                          "(shard not healthy at exit)")
    if args.max_p99_us > 0:
        if publish_p99 is None:
            errors.append("fdrms_publish_latency_us p99 missing from dump")
        elif publish_p99 > args.max_p99_us:
            errors.append(f"publish p99 {publish_p99:g}us over the "
                          f"--max-p99-us {args.max_p99_us:g}us bound")

    trace_names = {event.get("name") for event in doc.get("trace", [])}
    for name in ("shard.unhealthy", "shard.revive"):
        if name not in trace_names:
            errors.append(f"{name} missing from the dump's trace (the "
                          "lifecycle ring must keep every death and revive)")

    print(f"fault-smoke: deaths={deaths:g} restarts={restarts:g} "
          f"degraded_reads={degraded:g} unhealthy_at_exit={unhealthy:g} "
          f"healthy_gauges={len(healthy)} "
          f"publish_p99_us={publish_p99 if publish_p99 is not None else -1:g}")
    if errors:
        print("\nfault-smoke FAILED:", file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        return 1
    print("fault-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
