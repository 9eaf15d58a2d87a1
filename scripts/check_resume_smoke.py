#!/usr/bin/env python3
"""Resume-smoke gate: assert a killed constellation actually came back.

Usage:
    check_resume_smoke.py RESUME_STDOUT.log RESUME_METRICS.json
        [--min-epoch 1] [--min-shards 1]

Run the kill-and-resume pair first:

    FDRMS_FAULT=shard.cutover.committed=crash \\
        service_driver --persist store --migrate ...   # dies with exit 137
    service_driver --persist store --resume ... > resume.log

This gate reads the second run's stdout and final registry JSON dump and
checks that

  * the driver resumed from the manifest (the "resume: resumed=yes" line),
    with resume_epoch >= --min-epoch — the first run is killed *after* a
    cutover committed, so a resume that comes back at epoch 0 silently
    lost the migration the manifest recorded,
  * resume_shards >= --min-shards (the restored topology, not the
    constructor default),
  * nothing failed durably during the resumed run:
    fdrms_persist_failures_total (every shard label),
    fdrms_routing_persist_failures_total and
    fdrms_manifest_commit_failures_total are all 0,
  * the resumed run kept committing: fdrms_manifest_commits_total >= 1
    and fdrms_manifest_generation >= 1 (the generation counter survives
    the crash: it reseeds from the manifest, never restarts at 0).
"""

import argparse
import json
import re
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("log_path", help="stdout of the --resume run")
    parser.add_argument("json_path", help="registry JSON dump of that run")
    parser.add_argument("--min-epoch", type=int, default=1,
                        help="resumed routing epoch must be >= this")
    parser.add_argument("--min-shards", type=int, default=1)
    args = parser.parse_args()

    try:
        with open(args.log_path) as f:
            log = f.read()
    except OSError as exc:
        print(f"resume-smoke FAILED: log unreadable: {exc}", file=sys.stderr)
        return 1
    try:
        with open(args.json_path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"resume-smoke FAILED: JSON dump unreadable: {exc}",
              file=sys.stderr)
        return 1

    errors = []

    match = re.search(r"resume: resumed=(\w+) resume_epoch=(\d+) "
                      r"resume_shards=(\d+)", log)
    epoch = shards = 0
    if not match:
        errors.append("no 'resume: resumed=...' line in the driver output "
                      "(was the second run started with --resume?)")
    elif match.group(1) != "yes":
        errors.append("resumed=no: Start() bulk-loaded instead of restoring "
                      "from the manifest")
    else:
        epoch = int(match.group(2))
        shards = int(match.group(3))
        if epoch < args.min_epoch:
            errors.append(f"resume_epoch = {epoch} < {args.min_epoch}: the "
                          "pre-kill cutover's manifest generation was lost")
        if shards < args.min_shards:
            errors.append(f"resume_shards = {shards} < {args.min_shards}")
    if "\nOK\n" not in log and not log.endswith("OK\n"):
        errors.append("driver did not finish with OK (consistency or "
                      "resume check failed)")

    values = {}      # unlabelled series
    persist_failures = {}  # shard label -> value
    for metric in doc.get("metrics", []):
        name, value = metric.get("name"), metric.get("value")
        if value is None:
            continue
        labels = metric.get("labels") or {}
        if name == "fdrms_persist_failures_total":
            persist_failures[labels.get("shard", "?")] = value
        elif not labels:
            values[name] = value

    for shard, failures in sorted(persist_failures.items()):
        if failures > 0:
            errors.append(f"fdrms_persist_failures_total{{shard={shard}}} = "
                          f"{failures:g}")
    if not persist_failures:
        errors.append("no fdrms_persist_failures_total series in the dump "
                      "(persistence was not on?)")
    for name in ("fdrms_routing_persist_failures_total",
                 "fdrms_manifest_commit_failures_total"):
        if values.get(name, 0) > 0:
            errors.append(f"{name} = {values[name]:g}")
    commits = values.get("fdrms_manifest_commits_total", 0)
    if commits < 1:
        errors.append("fdrms_manifest_commits_total = 0 (the resumed run "
                      "never committed a manifest)")
    generation = values.get("fdrms_manifest_generation", 0)
    if generation < 1:
        errors.append(f"fdrms_manifest_generation = {generation:g}")

    print(f"resume-smoke: epoch={epoch} shards={shards} "
          f"commits={commits:g} generation={generation:g} "
          f"persist_failures={sum(persist_failures.values()):g}")
    if errors:
        print("\nresume-smoke FAILED:", file=sys.stderr)
        for e in errors:
            print(f"  - {e}", file=sys.stderr)
        return 1
    print("resume-smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
