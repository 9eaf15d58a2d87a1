/// Sharded serving scalability: replays the paper's dynamic workload
/// through ShardedFdRmsService, sweeping the shard count. Two throughput
/// numbers per configuration:
///
///   wall_ops/s  — applied ops / wall seconds on THIS host. All shard
///                 writers share the host's cores, so on a small machine
///                 this cannot scale with S.
///   cap_ops/s   — applied ops / the slowest shard's measured writer busy
///                 seconds: the rate a deployment with one core per writer
///                 sustains, since the critical path is the busiest shard.
///                 This is the scalability claim of the shard layer —
///                 routing balance and per-shard work both show up in it.
///
/// Shapes to expect: cap_ops/s grows near-linearly with S (hash routing
/// balances the standard workload; S=4 should exceed 2x the S=1 capacity),
/// while wall_ops/s tracks the host's actual core budget. The merged
/// result set must still meet the k=1 regret-ratio oracle bound of
/// fdrms_test.cpp on the shared sampled-utility prefix, checked here
/// against brute-force omega over the live tuples.
///
/// Flags: --json (write BENCH_bench_sharded.json), --quick (S in {1,4} on
/// a smaller workload, skipping the scaling gate — smoke only).
///
/// Extra env knobs: FDRMS_BENCH_N (dataset size, default 60000),
/// FDRMS_BENCH_DIM (default 4).

#include <algorithm>
#include <cstring>

#include "bench_common.h"
#include "eval/service_driver.h"
#include "shard/sharded_service.h"

using namespace fdrms;

int main(int argc, char** argv) {
  bench::JsonReporter json("bench_sharded", argc, argv);
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const int n =
      static_cast<int>(GetEnvLong("FDRMS_BENCH_N", quick ? 8000 : 60000));
  const int d = static_cast<int>(GetEnvLong("FDRMS_BENCH_DIM", 4));
  const int r = 20;
  PointSet ps = GenerateIndep(n, d, 909);
  Workload wl(&ps, 2024);
  std::cout << "Sharded serving layer: n=" << n << " d=" << d << " r=" << r
            << "/shard (" << wl.operations().size() << " ops per run)\n\n";

  std::vector<int> shard_counts = quick ? std::vector<int>{1, 4}
                                        : std::vector<int>{1, 2, 4, 8};

  TablePrinter table({"shards", "wall_ops/s", "cap_ops/s", "speedup",
                      "busy_max_s", "balance", "p99_us", "stale_mean", "ok"});
  bool all_consistent = true;
  double base_capacity = 0.0;
  double capacity_at_4 = 0.0;
  for (int num_shards : shard_counts) {
    ShardedLoadOptions lopt;
    lopt.num_readers = 2;
    lopt.num_submitters = 2;
    lopt.service.num_shards = num_shards;
    lopt.service.shard.algo = bench::TunedFdRms(1, r);
    lopt.service.shard.queue_capacity = 4096;
    lopt.service.shard.max_batch = 64;
    ShardedLoadResult res = RunShardedLoad(wl, lopt);
    all_consistent = all_consistent && res.consistent &&
                     res.ops_applied + res.ops_rejected == res.ops_submitted;
    if (num_shards == 1) base_capacity = res.update_capacity;
    if (num_shards == 4) capacity_at_4 = res.update_capacity;
    const double speedup =
        base_capacity > 0.0 ? res.update_capacity / base_capacity : 0.0;
    // Balance: the busiest shard's share of applied ops, relative to the
    // perfectly even share (1.0 = exactly balanced).
    uint64_t max_applied = 0;
    for (uint64_t a : res.per_shard_applied) {
      max_applied = std::max(max_applied, a);
    }
    const double balance =
        res.ops_applied > 0
            ? static_cast<double>(max_applied) * num_shards /
                  static_cast<double>(res.ops_applied)
            : 0.0;
    double busy_max = 0.0;
    for (double b : res.per_shard_busy_seconds) {
      busy_max = std::max(busy_max, b);
    }
    table.BeginRow();
    table.AddInt(num_shards);
    table.AddNumber(res.update_throughput, 1);
    table.AddNumber(res.update_capacity, 1);
    table.AddNumber(speedup, 2);
    table.AddNumber(busy_max, 3);
    table.AddNumber(balance, 2);
    table.AddNumber(res.publish_p99_us, 0);
    table.AddNumber(res.mean_staleness_ops, 2);
    table.AddCell(res.consistent ? "yes" : "NO");
    json.AddCase(
        "shards=" + std::to_string(num_shards),
        {{"wall_ops_per_s", res.update_throughput},
         {"capacity_ops_per_s", res.update_capacity},
         {"capacity_speedup_vs_1", speedup},
         {"writer_busy_seconds_max", busy_max},
         {"balance_max_over_even", balance},
         {"publish_p50_us", res.publish_p50_us},
         {"publish_p99_us", res.publish_p99_us},
         {"mean_staleness_ops", res.mean_staleness_ops},
         {"wall_seconds", res.wall_seconds},
         {"query_reads_per_s", res.query_throughput},
         {"ops_applied", static_cast<double>(res.ops_applied)},
         {"merged_result_size", static_cast<double>(res.final_result_size)},
         {"merged_union_size", static_cast<double>(res.final_union_size)},
         // Read-path cache behaviour (constellation registry counters).
         {"merge_cache_hits", static_cast<double>(res.merge_cache_hits)},
         {"merge_cache_misses", static_cast<double>(res.merge_cache_misses)},
         {"merge_recovers", static_cast<double>(res.merge_recovers)}});
  }
  table.Print(std::cout);
  std::cout << "\n";

  // Regret-ratio oracle on the merged result (fdrms_test.cpp's bound):
  // replay the stream in order through S=4 shards, then check that every
  // utility in the shared sampled prefix is covered by the merged set at
  // (1-eps) of the brute-force optimum over the live tuples.
  const int kOracleShards = 4;
  ShardedServiceOptions oracle_opt;
  oracle_opt.num_shards = kOracleShards;
  oracle_opt.shard.algo = bench::TunedFdRms(1, r);
  oracle_opt.shard.queue_capacity = 4096;
  oracle_opt.shard.max_batch = 64;
  const double eps = oracle_opt.shard.algo.eps;
  ShardedFdRmsService oracle(d, oracle_opt);
  std::vector<std::pair<int, Point>> initial;
  for (int id : wl.initial_ids()) initial.emplace_back(id, ps.Get(id));
  bool oracle_ok = oracle.Start(initial).ok();
  if (oracle_ok) {
    for (const Operation& op : wl.operations()) {
      Status st = op.is_insert ? oracle.SubmitInsert(op.id, ps.Get(op.id))
                               : oracle.SubmitDelete(op.id);
      oracle_ok = oracle_ok && st.ok();
    }
    oracle_ok = oracle_ok && oracle.Flush().ok();
  }
  double worst_ratio = 0.0;
  int checked = 0;
  if (oracle_ok) {
    auto merged = oracle.Query();
    oracle_ok = oracle.Stop().ok() && merged != nullptr &&
                merged->ops_rejected == 0;
    if (oracle_ok) {
      const std::vector<int> live =
          wl.LiveIdsAfter(static_cast<int>(wl.operations().size()) - 1);
      const std::vector<Point>& utilities =
          oracle.shard(0).algorithm().topk().utilities();
      // Cap the sweep: the bound holds per utility, a prefix sample keeps
      // the brute-force omega pass proportionate at bench scale.
      checked = std::min(merged->min_sample_size_m, 256);
      for (int i = 0; i < checked && oracle_ok; ++i) {
        const Point& u = utilities[i];
        double omega = 0.0;
        for (int id : live) omega = std::max(omega, Dot(u, ps.Get(id)));
        double best = 0.0;
        for (int id : merged->ids) best = std::max(best, Dot(u, ps.Get(id)));
        if (omega > 0.0) {
          worst_ratio = std::max(worst_ratio, 1.0 - best / omega);
        }
        oracle_ok = best >= (1.0 - eps) * omega - 1e-9;
      }
      json.AddCase("oracle_s4",
                   {{"eps", eps},
                    {"worst_regret_ratio", worst_ratio},
                    {"utilities_checked", static_cast<double>(checked)},
                    {"merged_result_size",
                     static_cast<double>(merged->ids.size())}});
    }
  }

  // Live rebalancing: start at S=2 and AddShard twice while the workload
  // churns — the constellation reaches S=4 online. Reads must never block
  // or error (null_queries == 0, every view consistent), staleness stays
  // bounded, and the dip is reported as the applied-ops throughput inside
  // the migration windows relative to the whole run.
  std::cout << "Online rebalancing: S=2 -> 4 via AddShard under churn\n\n";
  ShardedLoadOptions mopt;
  mopt.num_readers = 2;
  mopt.num_submitters = 2;
  mopt.service.num_shards = 2;
  mopt.service.shard.algo = bench::TunedFdRms(1, r);
  mopt.service.shard.queue_capacity = 4096;
  mopt.service.shard.max_batch = 64;
  using Event = ShardedLoadOptions::MigrationEvent;
  mopt.migrations.push_back({Event::Kind::kAddShard, 0.33});
  mopt.migrations.push_back({Event::Kind::kAddShard, 0.66});
  ShardedLoadResult mres = RunShardedLoad(wl, mopt);
  const double dip_ratio =
      mres.update_throughput > 0.0
          ? mres.migration_update_throughput / mres.update_throughput
          : 0.0;
  // Per-event cost (only the duration is attributable to one event; the
  // dip/staleness/consistency numbers below are whole-run aggregates).
  for (size_t i = 0; i < mres.migration_seconds.size(); ++i) {
    std::cout << "  AddShard#" << i + 1 << ": "
              << mres.migration_seconds[i] << " s\n";
  }
  TablePrinter mtable({"events", "sec_total", "epoch", "shards", "dip",
                       "stale_max", "null_reads", "ok"});
  mtable.BeginRow();
  mtable.AddInt(static_cast<long>(mres.migrations_attempted));
  mtable.AddNumber(mres.migration_seconds_total, 3);
  mtable.AddInt(static_cast<long>(mres.final_epoch));
  mtable.AddInt(mres.final_num_shards);
  mtable.AddNumber(dip_ratio, 2);
  mtable.AddNumber(mres.max_staleness_ops, 0);
  mtable.AddInt(static_cast<long>(mres.null_queries));
  mtable.AddCell(mres.consistent ? "yes" : "NO");
  mtable.Print(std::cout);
  std::cout << "\n";
  const bool rebalance_ok =
      mres.consistent && mres.null_queries == 0 &&
      mres.migrations_attempted == 2 && mres.migrations_failed == 0 &&
      mres.final_num_shards == 4 && mres.submit_failures == 0 &&
      mres.ops_applied + mres.ops_rejected == mres.ops_submitted;
  json.AddCase(
      "addshard_2_to_4",
      {{"migrations", static_cast<double>(mres.migrations_attempted)},
       {"migration_failures", static_cast<double>(mres.migrations_failed)},
       {"migration_seconds_total", mres.migration_seconds_total},
       {"migration_ops_per_s", mres.migration_update_throughput},
       {"throughput_dip_ratio", dip_ratio},
       {"wall_ops_per_s", mres.update_throughput},
       {"final_epoch", static_cast<double>(mres.final_epoch)},
       {"final_shards", static_cast<double>(mres.final_num_shards)},
       {"max_staleness_ops", mres.max_staleness_ops},
       {"mean_staleness_ops", mres.mean_staleness_ops},
       {"null_queries", static_cast<double>(mres.null_queries)},
       {"query_reads_per_s", mres.query_throughput},
       {"merge_cache_hits", static_cast<double>(mres.merge_cache_hits)},
       {"merge_cache_misses", static_cast<double>(mres.merge_cache_misses)},
       // Trace events recorded over the migration lifecycle (4 per epoch:
       // freeze/drain/replay/cutover).
       {"migration_trace_events",
        static_cast<double>(mres.migration_trace.size())},
       {"consistent", mres.consistent ? 1.0 : 0.0}});

  const bool scaling_ok =
      quick || (base_capacity > 0.0 && capacity_at_4 >= 2.0 * base_capacity);
  bench::ShapeCheck(all_consistent,
                    "every reader observed only consistent merged snapshots "
                    "and all submitted operations were consumed");
  bench::ShapeCheck(scaling_ok,
                    quick ? "scaling gate skipped under --quick"
                          : "S=4 writer-parallel capacity >= 2x S=1");
  bench::ShapeCheck(oracle_ok,
                    "merged result meets the (1-eps) regret-ratio oracle "
                    "bound on the shared utility prefix (worst ratio " +
                        std::to_string(worst_ratio) + ", eps " +
                        std::to_string(eps) + ")");
  bench::ShapeCheck(rebalance_ok,
                    "S=2 -> 4 AddShard completed online: reads never "
                    "blocked or errored, all operations consumed exactly "
                    "once, staleness bounded (max " +
                        std::to_string(mres.max_staleness_ops) + " ops)");
  return json.Write() && all_consistent && scaling_ok && oracle_ok &&
                 rebalance_ok
             ? 0
             : 1;
}
