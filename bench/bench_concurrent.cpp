/// Concurrent serving throughput: replays the paper's dynamic workload
/// through FdRmsService while reader threads hammer the lock-free snapshot,
/// sweeping the submitter count (1/2/4/8 — the MPSC ring's contention axis)
/// plus a reader-heavy configuration. Reported per configuration: applied
/// update ops/s, snapshot reads/s, the queue-backlog staleness readers
/// actually observed (mean and max, in operations), publication latency
/// quantiles, and the writer's batching telemetry (queue-depth p50/p99;
/// --json additionally carries the full power-of-two batch-size
/// histogram), all telemetry read from the final registry scrape.
///
/// Shapes to expect: update throughput stays within one writer's budget
/// regardless of reader count (readers are off the write path), query
/// throughput scales with reader threads until the host runs out of cores,
/// staleness stays bounded by the queue capacity, and batches fill up to
/// max_batch whenever the submitters outrun the writer.
///
/// Flags: --json (write BENCH_bench_concurrent.json), --quick (single
/// configuration, for smoke runs).
///
/// Extra env knobs: FDRMS_BENCH_N (dataset size), FDRMS_BENCH_DIM.

#include <cstring>

#include "bench_common.h"
#include "eval/service_driver.h"
#include "obs/pow2_hist.h"

using namespace fdrms;

int main(int argc, char** argv) {
  bench::JsonReporter json("bench_concurrent", argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const int n = static_cast<int>(GetEnvLong("FDRMS_BENCH_N", 4000));
  const int d = static_cast<int>(GetEnvLong("FDRMS_BENCH_DIM", 4));
  const int r = 20;
  PointSet ps = GenerateIndep(n, d, 909);
  Workload wl(&ps, 2024);
  std::cout << "Concurrent serving layer: n=" << n << " d=" << d << " r=" << r
            << " (" << wl.operations().size() << " ops per run)\n\n";

  std::vector<std::pair<int, int>> configs;  // (readers, submitters)
  if (quick) {
    configs = {{4, 2}};
  } else {
    // Submitter sweep at a fixed reader pool, then a reader-heavy case.
    configs = {{4, 1}, {4, 2}, {4, 4}, {4, 8}, {16, 4}};
  }

  TablePrinter table({"readers", "submitters", "update_ops/s", "reads/s",
                      "stale_mean", "stale_max", "pub_p50_us", "pub_p99_us",
                      "depth_p50", "depth_p99", "batches", "ok"});
  bool all_consistent = true;
  for (const auto& [readers, submitters] : configs) {
    ServiceLoadOptions lopt;
    lopt.num_readers = readers;
    lopt.num_submitters = submitters;
    lopt.service.algo = bench::TunedFdRms(1, r);
    lopt.service.queue_capacity = 4096;
    lopt.service.max_batch = 64;
    ServiceLoadResult res = RunServiceLoad(wl, lopt);
    all_consistent = all_consistent && res.consistent &&
                     res.ops_applied + res.ops_rejected == res.ops_submitted;
    table.BeginRow();
    table.AddInt(readers);
    table.AddInt(submitters);
    table.AddNumber(res.update_throughput, 1);
    table.AddNumber(res.query_throughput, 1);
    table.AddNumber(res.mean_staleness_ops, 2);
    table.AddNumber(res.max_staleness_ops, 0);
    table.AddNumber(res.publish_p50_us, 0);
    table.AddNumber(res.publish_p99_us, 0);
    table.AddNumber(res.queue_depth_p50, 0);
    table.AddNumber(res.queue_depth_p99, 0);
    table.AddInt(static_cast<int>(res.batches));
    table.AddCell(res.consistent ? "yes" : "NO");
    std::vector<std::pair<std::string, double>> metrics = {
        {"update_ops_per_s", res.update_throughput},
        {"query_reads_per_s", res.query_throughput},
        {"mean_staleness_ops", res.mean_staleness_ops},
        {"max_staleness_ops", res.max_staleness_ops},
        {"publish_p50_us", res.publish_p50_us},
        {"publish_p99_us", res.publish_p99_us},
        {"publish_p90_us", res.publish_p90_us},
        {"publish_p999_us", res.publish_p999_us},
        {"queue_depth_p50", res.queue_depth_p50},
        {"queue_depth_p99", res.queue_depth_p99},
        {"writer_busy_seconds", res.writer_busy_seconds},
        {"wall_seconds", res.wall_seconds},
        {"batches", static_cast<double>(res.batches)},
        {"ops_applied", static_cast<double>(res.ops_applied)},
        {"queries", static_cast<double>(res.queries)}};
    // Batch-size histogram: one metric per power-of-two bucket, keyed by
    // the bucket's lower bound (only non-empty buckets are emitted).
    for (size_t b = 0; b < res.batch_size_hist.size(); ++b) {
      if (res.batch_size_hist[b] == 0) continue;
      metrics.emplace_back(
          "batch_size_hist_ge_" + std::to_string(obs::Pow2HistBucketFloor(b)),
          static_cast<double>(res.batch_size_hist[b]));
    }
    json.AddCase("readers=" + std::to_string(readers) +
                     ",submitters=" + std::to_string(submitters),
                 std::move(metrics));
  }
  table.Print(std::cout);
  std::cout << "\n";
  bench::ShapeCheck(all_consistent,
                    "every reader observed only consistent snapshots and all "
                    "submitted operations were consumed");
  return json.Write() && all_consistent ? 0 : 1;
}
