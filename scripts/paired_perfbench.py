#!/usr/bin/env python3
"""Paired parent/change runs of perfbench, written to a committed JSON file.

Usage:
    paired_perfbench.py --workload resume-wide-phi-d4 \\
        --parent HEAD~1 --change HEAD --workdir /tmp/pairs \\
        --seeds 501,502,503,504,505,506,507,508,509,510 --seconds 40 \\
        [--trace 0] [--out BENCH_perfbench_resume-wide-phi-d4.json]

--parent and --change each name a git revision or an existing checkout
directory. A revision is exported with `git archive` into
WORKDIR/<side>-<commit>: a clean copy of exactly the committed files, which
shares no state with the repository it came from. A directory is used as it
is (its uncommitted edits included).

Each seed is one pair: both sides run `python3 perfbench/run.py` with that
seed, in alternating order (parent first on even pairs, change first on odd
ones), so slow drift of the host hits both sides alike. The output records
the seeds, every pair's metrics, and per metric the medians, the quartiles
of each side, the median of the per-pair change/parent ratios and how many
pairs the change won (by the metric's "better" direction in
BENCHMARK.json), plus each side's commit and source digest.

The script refuses a checkout whose .bench_build/perfbench/CMakeCache.txt
was configured from another directory: CMake would go on building that
other directory's sources, so the runs would measure the wrong code.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)


def git(args, cwd=REPO):
    return subprocess.run(["git"] + args, cwd=cwd, capture_output=True,
                          text=True, check=True).stdout.strip()


def source_digest(root):
    """sha256 over the files the benchmark builds: CMakeLists.txt, src/ and
    perfbench/ (paths and contents, in sorted order)."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            if "__pycache__" in f:
                continue
            digest.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def checkout(side, spec, workdir):
    """Returns (directory, commit) for a revision or an existing directory."""
    if os.path.isdir(spec):
        root = os.path.abspath(spec)
        commit = "none"
        if os.path.exists(os.path.join(root, ".git")):
            commit = git(["rev-parse", "HEAD"], cwd=root)
            if git(["status", "--porcelain", "--untracked-files=no"],
                   cwd=root):
                commit += "+uncommitted"
        return root, commit
    commit = git(["rev-parse", "--verify", spec + "^{commit}"])
    root = os.path.join(os.path.abspath(workdir), "%s-%s" % (side, commit[:12]))
    if not os.path.isdir(root):
        os.makedirs(root)
        archive = subprocess.Popen(["git", "archive", commit], cwd=REPO,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", root], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise RuntimeError("git archive %s failed" % commit)
    return root, commit


def check_build_dir(root):
    """Refuses a build directory configured from another checkout."""
    cache = os.path.join(root, ".bench_build", "perfbench", "CMakeCache.txt")
    if not os.path.exists(cache):
        return
    expected = os.path.realpath(os.path.join(root, "perfbench"))
    with open(cache) as fh:
        for line in fh:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                configured = line.split("=", 1)[1].strip()
                if os.path.realpath(configured) != expected:
                    raise RuntimeError(
                        "%s was configured from %s, not %s: it would build "
                        "and benchmark the other checkout's sources; remove "
                        "%s/.bench_build and rerun" %
                        (cache, configured, expected, root))
                return
    raise RuntimeError("%s names no CMAKE_HOME_DIRECTORY" % cache)


def run_once(root, workload, seed, seconds, trace):
    check_build_dir(root)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", trace],
        cwd=root, capture_output=True, text=True)
    check_build_dir(root)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench in %s printed nothing (exit %d):\n%s" %
                           (root, proc.returncode, proc.stderr[-2000:]))
    doc = json.loads(lines[-1])
    return {
        "exit": proc.returncode,
        "correct": doc.get("correct"),
        "attempted": doc.get("attempted"),
        "failed": doc.get("failed"),
        "metrics": {k: v["value"] for k, v in doc.get("metrics", {}).items()},
    }


def directions(root):
    """metric name -> "higher" / "lower" from the checkout's BENCHMARK.json."""
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        spec = json.load(fh)
    out = {}
    for group in ("end_to_end", "per_layer"):
        for m in spec.get(group, []):
            out[m["name"]] = m.get("better", "lower")
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def summarize(pairs, better):
    names = sorted(set(pairs[0]["parent"]["metrics"]) &
                   set(pairs[0]["change"]["metrics"]))
    summary = {}
    for name in names:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        ratios = [c / p for p, c in zip(parent, change) if p != 0]
        row = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": list(quartiles(parent)),
            "change_iqr": list(quartiles(change)),
        }
        if ratios:
            row["ratio_median"] = statistics.median(ratios)
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            row["better"] = better[name]
            row["change_wins"] = sum(
                1 for p, c in zip(parent, change) if sign * (c - p) > 0)
        summary[name] = row
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True,
                        help="git revision or checkout directory")
    parser.add_argument("--change", required=True,
                        help="git revision or checkout directory")
    parser.add_argument("--workdir", required=True,
                        help="where revisions are exported")
    parser.add_argument("--seeds", required=True,
                        help="comma-separated seeds, one pair each")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--out", help="output path (default "
                        "BENCH_perfbench_<workload>.json in the repo root)")
    args = parser.parse_args()

    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not seeds:
        parser.error("--seeds names no seed")
    sides = {}
    try:
        for side in ("parent", "change"):
            root, commit = checkout(side, getattr(args, side), args.workdir)
            check_build_dir(root)
            sides[side] = {"dir": root, "commit": commit,
                           "source_digest": source_digest(root)}
    except (OSError, RuntimeError, subprocess.CalledProcessError) as err:
        print("paired_perfbench: %s" % err, file=sys.stderr)
        return 2

    pairs = []
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "order": list(order)}
        try:
            for side in order:
                pair[side] = run_once(sides[side]["dir"], args.workload, seed,
                                      args.seconds, args.trace)
        except (OSError, RuntimeError, ValueError) as err:
            print("paired_perfbench: pair %d (seed %d): %s" % (i, seed, err),
                  file=sys.stderr)
            return 2
        pairs.append(pair)
        key = "update_ops_per_s" if args.trace == "0" else "core.op_ns_mean"
        print("pair %d seed %d: %s parent %.6g change %.6g" % (
            i, seed, key, pair["parent"]["metrics"].get(key, float("nan")),
            pair["change"]["metrics"].get(key, float("nan"))),
            file=sys.stderr)

    doc = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "seeds": seeds,
        "parent": {k: v for k, v in sides["parent"].items() if k != "dir"},
        "change": {k: v for k, v in sides["change"].items() if k != "dir"},
        "all_correct": all(p[s]["correct"] and p[s]["failed"] == 0 and
                           p[s]["exit"] == 0
                           for p in pairs for s in ("parent", "change")),
        "summary": summarize(pairs, directions(sides["change"]["dir"])),
        "pairs": pairs,
    }
    out = args.out or os.path.join(
        REPO, "BENCH_perfbench_%s.json" % args.workload)
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % out, file=sys.stderr)
    return 0 if doc["all_correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
