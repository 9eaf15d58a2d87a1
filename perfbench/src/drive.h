#ifndef PERFBENCH_DRIVE_H_
#define PERFBENCH_DRIVE_H_

/// \file drive.h
/// Drives one service instance (FdRmsService or ShardedFdRmsService)
/// through one round of a workload, from the benchmark's own single,
/// ordered submitter.
///
/// Why not eval/service_driver's RunServiceLoad: it splits the op stream
/// round-robin across submitter threads, so a delete can overtake the
/// insert of the same id and be rejected; the applied count then varies
/// from run to run. One submitter in stream order keeps every shard's op
/// sequence fixed, which is what lets the benchmark compare each shard's
/// final state with a serial FdRms replay and require zero rejected ops.
///
/// Visibility is measured from the services' own writer-thread hooks:
/// on_apply stamps each applied batch and on_publish each publication, per
/// shard, with the shard's cumulative consumed-op count, so every op's
/// due -> applied -> visible times follow from its position in its shard's
/// stream. Nothing inside src/ is instrumented.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/fdrms.h"
#include "obs/registry.h"

namespace perfbench {

using Tuples = std::vector<std::pair<int, fdrms::Point>>;
using Ops = std::vector<fdrms::FdRms::BatchOp>;

/// Per-shard apply/publish stamps recorded on the writer threads. Each
/// shard's vectors are written only by that shard's writer and read only
/// after Stop() has joined it.
class VisibilityLog {
 public:
  struct Shard {
    std::vector<int64_t> apply_t;   ///< NowNs() at on_apply
    std::vector<uint64_t> apply_n;  ///< ops consumed through that batch
    std::vector<int64_t> pub_t;     ///< NowNs() at on_publish
    std::vector<uint64_t> pub_n;    ///< ops consumed at that publication
    uint64_t consumed = 0;
  };

  explicit VisibilityLog(int num_shards) : shards_(num_shards) {}

  /// Must be set before the writers start (Target::Start).
  void SetRoute(std::function<int(int)> route) { route_ = std::move(route); }
  void Reserve(size_t per_shard);

  void OnApply(const fdrms::FdRms::BatchOp* first, size_t count);
  void OnPublish();

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const Shard& shard(int s) const { return shards_[static_cast<size_t>(s)]; }

 private:
  std::function<int(int)> route_;
  std::vector<Shard> shards_;
};

/// What a service instance is built from.
struct ServiceConfig {
  int dim = 0;
  fdrms::FdRmsOptions algo;
  int num_shards = 1;       ///< 1 = plain FdRmsService
  int merged_budget_r = 0;  ///< sharded only
  /// Sharded only: manifest-versioned persistence under this base path
  /// (exit saves only); with `resume` the service restores from it.
  std::string persist_base;
  bool resume = false;
};

/// The published result a reader would see.
struct View {
  std::vector<int> ids;
  std::vector<fdrms::Point> points;
  uint64_t ops_rejected = 0;
};

/// A service instance behind the few calls a round makes.
class Target {
 public:
  static std::unique_ptr<Target> Make(const ServiceConfig& config,
                                      VisibilityLog* log);
  virtual ~Target() = default;

  virtual fdrms::Status Start(const Tuples& initial) = 0;
  virtual fdrms::Status Submit(fdrms::FdRms::BatchOp op) = 0;
  virtual fdrms::Status Flush() = 0;
  virtual fdrms::Status Stop() = 0;
  virtual bool resumed() const = 0;
  virtual int num_shards() const = 0;
  virtual int Route(int id) const = 0;
  /// One Query(): the result size (so the read is observed) and the ops
  /// consumed as of the snapshot it returned.
  struct ReadSample {
    size_t size;
    uint64_t consumed;
  };
  virtual ReadSample Read() const = 0;
  virtual View Final() const = 0;
  virtual double WriterBusySeconds(int s) const = 0;
  /// Only after Stop().
  virtual const fdrms::FdRms& ShardAlgorithm(int s) const = 0;
  virtual fdrms::obs::RegistrySnapshot Scrape() const = 0;
};

/// How a round offers load.
struct LoadSpec {
  bool open_loop = false;
  double submit_rate = 0.0;  ///< ops/s, open loop only
  double read_rate = 0.0;    ///< merged Query()/s beside the writes; 0 = none
  int probe_samples = 0;     ///< quiescent read samples after the writes
};

/// Everything one round measured.
struct RoundResult {
  double setup_s = 0.0;
  double run_s = 0.0;  ///< first due -> publication covering the last op
  double ops_per_s = 0.0;  ///< applied ops / run_s
  /// Applied ops / the busiest writer's CPU seconds in ApplyBatch: the rate
  /// with a core per writer, which CPU stolen by the host does not move.
  double capacity_ops_per_s = 0.0;
  uint64_t attempted = 0;
  uint64_t failed = 0;  ///< rejected by the algorithm + failed submits
  std::vector<double> visible_us;  ///< due -> publication, per op
  std::vector<double> apply_us;    ///< due -> shard on_apply, per op
  std::vector<double> gap_us;      ///< on_apply -> on_publish, per op
  std::vector<double> submit_ns;   ///< Submit() call duration, per op
  std::vector<double> late_us;     ///< submit start - due, per op
  std::vector<double> query_us;    ///< concurrent or probe reads
  double achieved_submit_rate = 0.0;
  double achieved_read_rate = 0.0;
  bool backlog_grew = false;
  uint64_t apply_events = 0;
  uint64_t publications = 0;
  View final_view;
  std::vector<std::vector<int>> shard_ids;
  std::vector<int> shard_m;
  std::vector<uint64_t> shard_consumed;
  std::vector<double> shard_busy_s;
  fdrms::obs::RegistrySnapshot registry;
};

/// Reset -> Build (timed Start) -> Run -> Stop for one constructed target.
/// `ops` go through one ordered submitter; per-shard final states are read
/// back after Stop for the correctness gates.
fdrms::Status RunRound(Target* target, VisibilityLog* log,
                       const Tuples& initial, const Ops& ops,
                       const LoadSpec& spec, RoundResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVE_H_
