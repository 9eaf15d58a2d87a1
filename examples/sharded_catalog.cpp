/// Sharded service demo: one product catalog partitioned across four
/// independent FD-RMS writers, served through merged snapshot reads.
///
/// Build & run:
///   cmake -B build -S . && cmake --build build -j
///   ./build/sharded_catalog
///
/// A ShardedFdRmsService hash-routes every catalog id to one of four
/// single-writer shards. Ingest threads stream catalog changes — each
/// mutation lands on the queue of the shard that owns the id — while
/// frontend threads read the merged view: the union of the four shard
/// shortlists, re-covered down to a global budget of 10, stamped with the
/// version vector of the four publications it was composed from. Mid-run
/// the constellation scales out to a fifth shard with AddShard(): a live
/// migration freezes the moving hash slots, drains and replays them as
/// ordinary journaled operations, and publishes the next routing epoch —
/// the frontends keep reading throughout.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "shard/sharded_service.h"

using fdrms::MergedSnapshot;
using fdrms::Point;
using fdrms::ShardedFdRmsService;
using fdrms::ShardedServiceOptions;

int main() {
  const int kDim = 4;
  const int kCatalog = 4000;
  const int kShards = 4;
  fdrms::Rng rng(2026);
  std::vector<std::pair<int, Point>> catalog;
  for (int id = 0; id < kCatalog; ++id) {
    Point p(kDim);
    for (double& v : p) v = rng.Uniform();
    catalog.emplace_back(id, p);
  }

  ShardedServiceOptions sopt;
  sopt.num_shards = kShards;
  sopt.shard.algo.k = 1;
  sopt.shard.algo.r = 6;        // per-shard shortlist budget
  sopt.shard.algo.eps = 0.02;
  sopt.shard.algo.max_utilities = 512;
  sopt.shard.queue_capacity = 1024;
  sopt.shard.max_batch = 64;
  sopt.merged_budget_r = 10;    // global shortlist served to users
  ShardedFdRmsService service(kDim, sopt);
  fdrms::Status st = service.Start(catalog);
  if (!st.ok()) {
    std::fprintf(stderr, "Start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("service up: %d items over %d shards (%d hash slots)\n",
              kCatalog, service.num_shards(), fdrms::kNumHashSlots);

  // Two ingest threads stream 800 catalog changes each.
  const int kIngestThreads = 2;
  const int kChangesPerThread = 800;
  std::vector<std::thread> ingest;
  for (int t = 0; t < kIngestThreads; ++t) {
    ingest.emplace_back([&service, t] {
      fdrms::Rng local(8100 + t);
      int next_id = kCatalog + t * kChangesPerThread;  // disjoint id ranges
      for (int step = 0; step < kChangesPerThread; ++step) {
        double dice = local.Uniform();
        Point p(kDim);
        for (double& v : p) v = local.Uniform();
        fdrms::Status op_status;
        if (dice < 0.4) {
          op_status = service.SubmitInsert(next_id++, p);
        } else if (dice < 0.7) {
          op_status = service.SubmitUpdate(local.UniformInt(kCatalog), p);
        } else {
          op_status = service.SubmitDelete(local.UniformInt(kCatalog));
        }
        if (!op_status.ok()) {
          std::fprintf(stderr, "submit failed: %s\n",
                       op_status.ToString().c_str());
          return;
        }
      }
    });
  }

  // Frontends read the merged view until ingest finishes.
  std::atomic<bool> open_for_business{true};
  std::atomic<long> requests_served{0};
  std::vector<std::thread> frontends;
  for (int t = 0; t < 3; ++t) {
    frontends.emplace_back([&] {
      while (open_for_business.load(std::memory_order_acquire)) {
        std::shared_ptr<const MergedSnapshot> snap = service.Query();
        if (snap != nullptr) {
          requests_served.fetch_add(1, std::memory_order_relaxed);
        }
        std::this_thread::yield();
      }
    });
  }

  // Black Friday: scale out to a fifth writer while ingest churns. The
  // migration is invisible to the frontends — reads stay wait-free and the
  // moving slots cut over atomically at the next routing epoch.
  st = service.AddShard();
  if (!st.ok()) {
    std::fprintf(stderr, "AddShard failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("scaled out online: now %d shards, routing epoch %llu, "
              "%llu migrations\n",
              service.num_shards(),
              static_cast<unsigned long long>(service.epoch()),
              static_cast<unsigned long long>(service.migrations()));
  {
    std::vector<int> load = service.routing_table()->SlotLoad();
    std::printf("slot ownership after rebalancing: [");
    for (size_t s = 0; s < load.size(); ++s) {
      std::printf("%s%d", s ? ", " : "", load[s]);
    }
    std::printf("] of %d slots\n", fdrms::kNumHashSlots);
  }

  for (std::thread& th : ingest) th.join();
  st = service.Flush();
  if (!st.ok()) {
    std::fprintf(stderr, "Flush failed: %s\n", st.ToString().c_str());
    return 1;
  }
  open_for_business.store(false, std::memory_order_release);
  for (std::thread& th : frontends) th.join();

  std::shared_ptr<const MergedSnapshot> final_snap = service.Query();
  std::printf("ingest done: %llu ops applied, %llu rejected, %llu batches "
              "across %d writers\n",
              static_cast<unsigned long long>(final_snap->ops_applied),
              static_cast<unsigned long long>(final_snap->ops_rejected),
              static_cast<unsigned long long>(final_snap->batches),
              service.num_shards());
  std::printf("epoch %llu version vector [",
              static_cast<unsigned long long>(final_snap->epoch));
  for (size_t s = 0; s < final_snap->versions.size(); ++s) {
    std::printf("%s%llu", s ? ", " : "",
                static_cast<unsigned long long>(final_snap->versions[s]));
  }
  std::printf("], %d live tuples, union %zu -> shortlist %zu (budget %d)\n",
              final_snap->live_tuples, final_snap->union_size,
              final_snap->ids.size(), sopt.merged_budget_r);
  // Telemetry lives in the shared metric registry, one series per shard.
  const fdrms::obs::RegistrySnapshot scrape = service.registry()->Snapshot();
  double worst_p99_us = 0.0;
  for (int s = 0; s < service.num_shards(); ++s) {
    if (const fdrms::obs::MetricSnapshot* lat =
            scrape.Find("fdrms_publish_latency_us",
                        service.shard(s).options().metrics_labels)) {
      worst_p99_us = std::max(worst_p99_us, lat->Quantile(0.99));
    }
  }
  std::printf("frontends served %ld merged reads; worst shard publish p99 "
              "%.0f us\n",
              requests_served.load(), worst_p99_us);
  for (size_t i = 0; i < final_snap->ids.size(); ++i) {
    const int id = final_snap->ids[i];
    std::printf("  #%-5d shard %d [", id, service.router().Route(id));
    for (int j = 0; j < kDim; ++j) {
      std::printf("%s%.2f", j ? ", " : "", final_snap->points[i][j]);
    }
    std::printf("]\n");
  }
  (void)service.Stop();
  std::printf("all shards stopped cleanly.\n");
  return 0;
}
