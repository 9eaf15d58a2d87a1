#!/usr/bin/env python3
"""Benchmark-local tests of the per-layer ledger (see README.md).

Run from the root of a checkout (builds the benchmark like run.py does):

    python3 perfbench/test_ledger.py            # about four minutes
    python3 perfbench/test_ledger.py --seconds 8 --seed 3

Checks, on traced runs:
  * the shadow's layer times sum to within 5% of core.op_ns on both
    closed-loop workloads, and its final state matched FdRms (the run's
    shadow_equal gate, so a traced run that exits 0);
  * top-k is at least 80% of core.op_ns on paper-indep-d6;
  * set cover's share of the op on resume-wide-phi-d4 is at least twice its
    share on paper-indep-d6;
  * on sharded-open-read, the writer's apply phase is a minority of the
    untraced visible_p50_us.
It also prints the tracing overhead: the service throughput a traced run
measured against an untraced run of the same seed.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ARGS = argparse.Namespace(seconds=10.0, seed=7)
_RUNS = {}


def run(workload, trace):
    """One benchmark run; returns (metrics, update_ops_per_s from the notes)."""
    key = (workload, trace)
    if key not in _RUNS:
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(ARGS.seed), "--seconds", str(ARGS.seconds),
             "--trace", "1" if trace else "0"],
            cwd=ROOT, capture_output=True, text=True)
        if out.returncode != 0:
            raise AssertionError("%s trace=%d exited %d:\n%s%s" % (
                workload, trace, out.returncode, out.stdout, out.stderr))
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0, lines[-1]
        rate = re.search(r" update_ops_per_s=([0-9.e+]+)", out.stdout)
        _RUNS[key] = ({k: v["value"] for k, v in result["metrics"].items()},
                      float(rate.group(1)) if rate else None)
    return _RUNS[key]


class LedgerTest(unittest.TestCase):
    def test_layer_sum_matches_core_op(self):
        for workload in ("paper-indep-d6", "resume-wide-phi-d4"):
            layers, _ = run(workload, True)
            ratio = layers["ledger.layer_sum_ns"] / layers["core.op_ns_mean"]
            print("%s: layer sum / core.op_ns = %.3f" % (workload, ratio))
            self.assertLessEqual(abs(ratio - 1.0), 0.05, workload)

    def test_topk_dominates_d6(self):
        layers, _ = run("paper-indep-d6", True)
        self.assertGreaterEqual(layers["topk.share_of_op"], 0.80)

    def test_setcover_weight_moves_with_phi_width(self):
        d6, _ = run("paper-indep-d6", True)
        wide, _ = run("resume-wide-phi-d4", True)
        print("setcover share: d6 %.3f, wide-phi %.3f" % (
            d6["setcover.share_of_op"], wide["setcover.share_of_op"]))
        self.assertGreaterEqual(wide["setcover.share_of_op"],
                                2.0 * d6["setcover.share_of_op"])

    def test_apply_is_minor_in_open_loop_visibility(self):
        layers, _ = run("sharded-open-read", True)
        e2e, _ = run("sharded-open-read", False)
        print("open loop: writer apply p50 %.2f us of visible p50 %.2f us" % (
            layers["serve.writer_apply_p50_us"], e2e["visible_p50_us"]))
        self.assertLess(layers["serve.writer_apply_p50_us"],
                        0.5 * e2e["visible_p50_us"])

    def test_report_tracing_overhead(self):
        for workload in ("paper-indep-d6", "resume-wide-phi-d4"):
            _, traced = run(workload, True)
            _, untraced = run(workload, False)
            self.assertIsNotNone(traced)
            print("%s: tracing overhead on update_ops_per_s %+.1f%% "
                  "(traced %.0f vs untraced %.0f)" % (
                      workload, 100.0 * (untraced - traced) / untraced,
                      traced, untraced))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=ARGS.seconds)
    parser.add_argument("--seed", type=int, default=ARGS.seed)
    ARGS, rest = parser.parse_known_args()
    unittest.main(argv=[sys.argv[0]] + rest, verbosity=2)
