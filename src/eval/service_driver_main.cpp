/// \file service_driver_main.cpp
/// `service_driver`: a self-contained load run against a live
/// ShardedFdRmsService with the observability substrate switched on — the
/// binary CI's metrics-smoke step drives and scrapes. Replays the paper's
/// dynamic workload over a synthetic dataset through S shards with the
/// constellation-level periodic dumper enabled, optionally fires an
/// AddShard migration mid-stream (so the migration-phase series and trace
/// events are populated), and finishes by writing the final registry
/// scrape (Prometheus text + JSON) and printing the per-shard status page.
///
/// Flags (all optional):
///   --n INT            dataset size (default 2000)
///   --dim INT          dimensionality (default 4)
///   --r INT            FD-RMS result-size bound (default 20; larger makes
///                      each update heavier — the smoke's knob for pushing
///                      a writer to saturation at modest arrival rates)
///   --shards INT       initial shard count, 1..256 (default 2)
///   --readers INT      merged-Query() threads (default 2)
///   --submitters INT   submitter threads (default 2)
///   --migrate          fire AddShard at 50% of the op stream (default on;
///                      --no-migrate disables)
///   --scenario NAME    arrival pacing: none (default, full speed), flash
///                      (baseline -> burst -> baseline), diurnal
///                      (sinusoid day cycles)
///   --base-rate R      paced scenarios' baseline ops/s (default 4000)
///   --burst X          flash-crowd burst multiplier (default 10)
///   --burst-frac F     fraction of the op stream inside the burst
///                      (default 0.4; larger = longer crowd)
///   --slo              run the SLO controller (src/control/) against the
///                      live constellation for the submission phase
///   --slo-p99-us N     publish-p99 objective in microseconds (default
///                      20000)
///   --fault-kill-at F  kill-a-shard-writer drill: at fraction F of the op
///                      stream, arm a one-shot writer death
///                      ("writer.apply.pre" = die) — the next shard writer
///                      to apply a batch dies. Implies --retry-submits so
///                      the stream survives the outage window.
///   --fault-revive-at F  call ReviveDeadShards() at fraction F (default
///                      0.75; -1 = revive only after the stream ends — the
///                      driver always revives before the final drain)
///   --retry-submits    retry kResourceExhausted/kUnavailable submits with
///                      bounded exponential backoff (common/retry.h)
///   --dump-every-ms N  periodic dumper interval (default 200; 0 disables)
///   --persist PATH     durable store base path: versioned per-shard
///                      snapshots + routing + constellation manifest are
///                      committed crash-durably under this prefix
///   --persist-every N  per-shard persist cadence in batches (default 1
///                      when --persist is set)
///   --resume           restore the topology from the manifest at the
///                      --persist path instead of bulk-loading P_0 (the
///                      kill-and-resume smoke's second run)
///   --prom PATH        Prometheus text output (default fdrms_metrics.prom)
///   --json PATH        JSON dump output (default fdrms_metrics.json)
///   --debug            print the constellation DebugString() status page
///
/// Exit status: 0 iff the run was consistent (every reader saw only
/// coherent merged snapshots) and both output files were written.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "data/generators.h"
#include "eval/service_driver.h"
#include "eval/workload.h"
#include "obs/exporters.h"

using namespace fdrms;

namespace {

long ArgLong(int argc, char** argv, int* i, long fallback) {
  if (*i + 1 >= argc) return fallback;
  return std::strtol(argv[++*i], nullptr, 10);
}

double ArgDouble(int argc, char** argv, int* i, double fallback) {
  if (*i + 1 >= argc) return fallback;
  return std::strtod(argv[++*i], nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  int n = 2000;
  int dim = 4;
  int r = 20;
  int shards = 2;
  int readers = 2;
  int submitters = 2;
  bool migrate = true;
  int dump_every_ms = 200;
  bool debug = false;
  std::string scenario = "none";
  double base_rate = 4000.0;
  double burst = 10.0;
  double burst_frac = 0.4;
  bool slo = false;
  double slo_p99_us = 20000.0;
  double fault_kill_at = -1.0;
  double fault_revive_at = 0.75;
  bool retry_submits = false;
  std::string persist_path;
  int persist_every = 1;
  bool resume = false;
  std::string prom_path = "fdrms_metrics.prom";
  std::string json_path = "fdrms_metrics.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--n") == 0) {
      n = static_cast<int>(ArgLong(argc, argv, &i, n));
    } else if (std::strcmp(argv[i], "--dim") == 0) {
      dim = static_cast<int>(ArgLong(argc, argv, &i, dim));
    } else if (std::strcmp(argv[i], "--r") == 0) {
      r = static_cast<int>(ArgLong(argc, argv, &i, r));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards = static_cast<int>(ArgLong(argc, argv, &i, shards));
    } else if (std::strcmp(argv[i], "--readers") == 0) {
      readers = static_cast<int>(ArgLong(argc, argv, &i, readers));
    } else if (std::strcmp(argv[i], "--submitters") == 0) {
      submitters = static_cast<int>(ArgLong(argc, argv, &i, submitters));
    } else if (std::strcmp(argv[i], "--migrate") == 0) {
      migrate = true;
    } else if (std::strcmp(argv[i], "--no-migrate") == 0) {
      migrate = false;
    } else if (std::strcmp(argv[i], "--scenario") == 0 && i + 1 < argc) {
      scenario = argv[++i];
    } else if (std::strcmp(argv[i], "--base-rate") == 0) {
      base_rate = ArgDouble(argc, argv, &i, base_rate);
    } else if (std::strcmp(argv[i], "--burst") == 0) {
      burst = ArgDouble(argc, argv, &i, burst);
    } else if (std::strcmp(argv[i], "--burst-frac") == 0) {
      burst_frac = ArgDouble(argc, argv, &i, burst_frac);
    } else if (std::strcmp(argv[i], "--slo") == 0) {
      slo = true;
    } else if (std::strcmp(argv[i], "--slo-p99-us") == 0) {
      slo_p99_us = ArgDouble(argc, argv, &i, slo_p99_us);
    } else if (std::strcmp(argv[i], "--fault-kill-at") == 0) {
      fault_kill_at = ArgDouble(argc, argv, &i, fault_kill_at);
    } else if (std::strcmp(argv[i], "--fault-revive-at") == 0) {
      fault_revive_at = ArgDouble(argc, argv, &i, fault_revive_at);
    } else if (std::strcmp(argv[i], "--retry-submits") == 0) {
      retry_submits = true;
    } else if (std::strcmp(argv[i], "--persist") == 0 && i + 1 < argc) {
      persist_path = argv[++i];
    } else if (std::strcmp(argv[i], "--persist-every") == 0) {
      persist_every = static_cast<int>(ArgLong(argc, argv, &i, persist_every));
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      resume = true;
    } else if (std::strcmp(argv[i], "--dump-every-ms") == 0) {
      dump_every_ms = static_cast<int>(ArgLong(argc, argv, &i, dump_every_ms));
    } else if (std::strcmp(argv[i], "--prom") == 0 && i + 1 < argc) {
      prom_path = argv[++i];
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--debug") == 0) {
      debug = true;
    } else {
      std::cerr << "unknown flag: " << argv[i] << "\n";
      return 2;
    }
  }

  if (shards < 1 || shards > kNumHashSlots) {
    std::cerr << "--shards must be in [1, " << kNumHashSlots << "]\n";
    return 2;
  }

  PointSet ps = GenerateIndep(n, dim, 909);
  Workload wl(&ps, 2024);

  ShardedLoadOptions opts;
  opts.num_readers = readers;
  opts.num_submitters = submitters;
  opts.service.num_shards = shards;
  opts.service.shard.algo.r = r;
  opts.service.shard.queue_capacity = 4096;
  opts.service.shard.max_batch = 64;
  opts.service.metrics_dump_every_ms = dump_every_ms;
  opts.service.metrics_dump_path = prom_path;
  opts.service.metrics_dump_json_path = json_path;
  if (!persist_path.empty()) {
    opts.service.shard.persist_path = persist_path;
    opts.service.shard.persist_every_batches = persist_every;
  }
  if (resume) {
    if (persist_path.empty()) {
      std::cerr << "--resume requires --persist PATH\n";
      return 2;
    }
    opts.service.shard.resume_path = persist_path;
    opts.resume = true;
  }
  if (migrate) {
    opts.migrations.push_back(
        {ShardedLoadOptions::MigrationEvent::Kind::kAddShard, 0.5});
  }
  if (scenario == "flash") {
    opts.arrival = FlashCrowdArrival(base_rate, burst, burst_frac);
  } else if (scenario == "diurnal") {
    opts.arrival = DiurnalArrival(base_rate);
  } else if (scenario != "none") {
    std::cerr << "unknown --scenario: " << scenario
              << " (expected none|flash|diurnal)\n";
    return 2;
  }
  if (fault_kill_at >= 0.0) {
    opts.fault.enabled = true;
    opts.fault.kill_at_fraction = fault_kill_at;
    opts.fault.revive_at_fraction = fault_revive_at;
    // A dead shard rejects submits kUnavailable until the revive; without
    // the retry path a paced stream would tally thousands of raw failures.
    // Keep the backoff budget tight: a submit to the dead shard is *meant*
    // to fail fast during the outage — the retries are there to absorb
    // transient kResourceExhausted bursts, not to park the stream on a
    // shard that cannot drain until ReviveShard runs.
    retry_submits = true;
    opts.submit_retry.initial_backoff_us = 50;
    opts.submit_retry.max_backoff_us = 1000;
    opts.submit_retry.max_total_backoff_us = 2000;
  }
  if (retry_submits) {
    opts.retry_submits = true;
  }
  if (slo) {
    opts.enable_slo_controller = true;
    opts.slo.publish_p99_slo_us = slo_p99_us;
    // Smoke-friendly control constants: quick windows and a short sustain
    // so a few-second flash crowd is enough to trip the scale-up, a long
    // cooldown so the post-burst slack can't scale back down before the
    // final scrape, and a floor at the initial topology.
    opts.slo.tick_ms = 100;
    opts.slo.sustain_ticks = 2;
    opts.slo.cooldown_us = 3000000;
    opts.slo.min_shards = shards;
    opts.slo.max_shards = shards + 4;
  }

  std::cout << "service_driver: n=" << n << " dim=" << dim << " r=" << r
            << " shards=" << shards << " readers=" << readers
            << " submitters=" << submitters << " ops=" << wl.operations().size()
            << " migrate=" << (migrate ? "AddShard@0.5" : "off")
            << " scenario=" << scenario;
  if (scenario != "none") {
    std::cout << " base_rate=" << base_rate;
    if (scenario == "flash") std::cout << " burst=" << burst;
  }
  std::cout << " slo=" << (slo ? "on" : "off");
  if (slo) std::cout << " slo_p99_us=" << slo_p99_us;
  if (opts.fault.enabled) {
    std::cout << " fault_kill_at=" << fault_kill_at
              << " fault_revive_at=" << fault_revive_at;
  }
  if (opts.retry_submits) std::cout << " retry_submits=on";
  if (!persist_path.empty()) {
    std::cout << " persist=" << persist_path << " persist_every="
              << persist_every << (resume ? " resume=yes" : "");
  }
  std::cout << " dump_every_ms=" << dump_every_ms << "\n";

  ShardedLoadResult res = RunShardedLoad(wl, opts);

  std::cout << "applied=" << res.ops_applied
            << " update_ops_per_s=" << res.update_throughput
            << " reads_per_s=" << res.query_throughput
            << " submit_retries=" << res.submit_retries
            << " submit_failures=" << res.submit_failures
            << " merge_cache_hits=" << res.merge_cache_hits
            << " merge_cache_misses=" << res.merge_cache_misses << "\n"
            << "migrations=" << res.migrations_attempted << " (failed "
            << res.migrations_failed << "), trace_events="
            << res.migration_trace.size() << ", final_epoch="
            << res.final_epoch << ", final_shards=" << res.final_num_shards
            << "\n";
  if (resume) {
    std::cout << "resume: resumed=" << (res.resumed ? "yes" : "no")
              << " resume_epoch=" << res.resume_epoch
              << " resume_shards=" << res.resume_num_shards << "\n";
  }
  for (const obs::TraceEvent& ev : res.migration_trace) {
    std::cout << "  " << ev.name << " start_us=" << ev.start_us
              << " duration_us=" << ev.duration_us << " arg0=" << ev.arg0
              << " arg1=" << ev.arg1 << "\n";
  }
  if (slo) {
    std::cout << "control: ticks=" << res.control_ticks
              << " decisions=" << res.control_decisions
              << " scale_ups=" << res.control_scale_ups
              << " scale_downs=" << res.control_scale_downs
              << " scale_failures=" << res.control_scale_failures
              << " batch_adjustments=" << res.control_batch_adjustments
              << " window_p99_us=" << res.control_publish_p99_window_us
              << " slo_violation_s=" << res.control_slo_violation_seconds
              << "\n";
    for (const obs::TraceEvent& ev : res.control_trace) {
      std::cout << "  " << ev.name << " start_us=" << ev.start_us
                << " arg0=" << ev.arg0 << " arg1=" << ev.arg1 << "\n";
    }
  }

  if (opts.fault.enabled) {
    std::cout << "fault: shards_killed=" << res.shards_killed
              << " shards_revived=" << res.shards_revived
              << " writer_restarts=" << res.writer_restarts
              << " degraded_queries=" << res.degraded_queries
              << " max_degraded_shards=" << res.max_degraded_shards
              << " unavailable_submits=" << res.unavailable_submits
              << " revive_ok=" << (res.revive_ok ? "yes" : "no") << "\n";
    for (const obs::TraceEvent& ev : res.fault_trace) {
      std::cout << "  " << ev.name << " start_us=" << ev.start_us
                << " arg0=" << ev.arg0 << " arg1=" << ev.arg1 << "\n";
    }
  }

  // The periodic dumper already wrote its final dump at Stop(); overwrite
  // with the post-run scrape so the files carry the terminal counters even
  // when the dumper was disabled (--dump-every-ms 0).
  bool wrote = obs::WriteFileAtomic(prom_path, res.prometheus_text);
  if (!json_path.empty()) {
    wrote = obs::WriteFileAtomic(json_path, res.json_text) && wrote;
  }
  std::cout << (wrote ? "wrote " : "FAILED to write ") << prom_path << " and "
            << json_path << "\n";

  if (debug) {
    // Post-run status page and scrape of the stopped constellation:
    // counters are terminal.
    std::cout << "\n" << res.debug_text << "\n";
    if (slo) std::cout << res.controller_debug_text << "\n";
    std::cout << res.prometheus_text << "\n";
  }

  const bool resume_ok = !resume || res.resumed;
  // Drill runs must end on a revived, healthy constellation with at least
  // one real writer restart behind them (the annotation/metric gates live
  // in scripts/check_fault_smoke.py, which reads the JSON scrape).
  const bool fault_ok =
      !opts.fault.enabled || (res.revive_ok && res.writer_restarts >= 1);
  const bool ok = res.consistent && res.null_queries == 0 &&
                  res.migrations_failed == 0 && wrote && resume_ok &&
                  fault_ok;
  if (!ok) {
    std::cout << "FAILED: consistent=" << res.consistent
              << " null_queries=" << res.null_queries
              << " migrations_failed=" << res.migrations_failed
              << " wrote=" << wrote << " resume_ok=" << resume_ok
              << " fault_ok=" << fault_ok << "\n";
    return 1;
  }
  std::cout << "OK\n";
  return 0;
}
