#!/usr/bin/env python3
"""SLO-smoke gate: assert the closed control loop actually closed.

Usage:
    check_slo_smoke.py METRICS.json [--slo-p99-us 20000]
        [--min-scale-ups 1] [--min-ticks 5]

Run `service_driver --scenario flash --slo ...` first; this gate reads the
final registry JSON dump and checks that the SLO controller

  * was alive (control_ticks_total >= --min-ticks),
  * reacted to the crowd (control_scale_ups_total >= --min-scale-ups and
    control_decisions_total >= 1),
  * never errored a topology action (control_scale_failures_total == 0),
  * and recovered: the last non-empty control window's publish p99
    (control_publish_p99_window_us) is back under the SLO. The driver stops
    the controller after the submitters drain, so that window covers the
    post-burst baseline tail — real served traffic, not silence,
  * and left a "control.scale_up" event in the dump's trace. Scale
    decisions live in the registry's lifecycle ring, which per-batch
    events cannot evict, so a missing event fails the gate.
"""

import argparse
import json
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("json_path", help="registry JSON dump from the run")
    parser.add_argument("--slo-p99-us", type=float, default=20000.0,
                        help="publish-p99 objective the run used (us)")
    parser.add_argument("--min-scale-ups", type=int, default=1)
    parser.add_argument("--min-ticks", type=int, default=5)
    args = parser.parse_args()

    try:
        with open(args.json_path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"slo-smoke FAILED: JSON dump unreadable: {exc}",
              file=sys.stderr)
        return 1

    values = {}
    for metric in doc.get("metrics", []):
        if "value" in metric:
            values[metric["name"]] = metric["value"]

    def value(name):
        return values.get(name, 0.0)

    errors = []
    ticks = value("control_ticks_total")
    if ticks < args.min_ticks:
        errors.append(f"control_ticks_total = {ticks:g} < {args.min_ticks} "
                      "(controller barely ran)")
    scale_ups = value("control_scale_ups_total")
    if scale_ups < args.min_scale_ups:
        errors.append(f"control_scale_ups_total = {scale_ups:g} < "
                      f"{args.min_scale_ups} (crowd did not trigger scale-up)")
    if value("control_decisions_total") < 1:
        errors.append("control_decisions_total = 0 (controller never acted)")
    failures = value("control_scale_failures_total")
    if failures > 0:
        errors.append(f"control_scale_failures_total = {failures:g}")
    if "control_publish_p99_window_us" not in values:
        errors.append("control_publish_p99_window_us missing from dump")
    else:
        p99 = values["control_publish_p99_window_us"]
        if p99 <= 0:
            errors.append("control_publish_p99_window_us = 0 "
                          "(no non-empty window was ever judged)")
        elif p99 > args.slo_p99_us:
            errors.append(f"post-recovery publish p99 {p99:g}us still over "
                          f"the {args.slo_p99_us:g}us SLO")

    trace_names = {event.get("name") for event in doc.get("trace", [])}
    traced = "control.scale_up" in trace_names
    if not traced:
        errors.append("control.scale_up missing from the dump's trace (the "
                      "lifecycle ring must keep every scale decision)")

    print(f"slo-smoke: ticks={ticks:g} scale_ups={scale_ups:g} "
          f"scale_downs={value('control_scale_downs_total'):g} "
          f"batch_adjustments={value('control_batch_adjustments_total'):g} "
          f"window_p99_us={value('control_publish_p99_window_us'):g} "
          f"final_shards={value('fdrms_shards'):g} traced={traced}")
    if errors:
        print("\nslo-smoke FAILED:", file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        return 1
    print("slo-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
