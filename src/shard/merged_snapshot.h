#ifndef FDRMS_SHARD_MERGED_SNAPSHOT_H_
#define FDRMS_SHARD_MERGED_SNAPSHOT_H_

/// \file merged_snapshot.h
/// The read-side unit of the sharded serving layer: one immutable
/// composition of the S independently published per-shard ResultSnapshots.
///
/// Consistency model: each component is point-in-time consistent for its
/// shard (a prefix of that shard's applied operation stream), but the
/// composition is *vector consistent*, not globally point-in-time — shards
/// publish independently, so the merged view may pair shard A's state
/// after operation 100 with shard B's after operation 90. The version
/// vector records exactly which per-shard publications were composed; a
/// reader comparing two merged snapshots sees component-wise monotone
/// versions. Because the tuple space is id-partitioned, every tuple's
/// history still lives on one shard, so no merged view ever shows a tuple
/// in two states at once.
///
/// Readers share merged views: ShardedFdRmsService::Query() returns its
/// cached view while, for every shard, the shard's published_version()
/// equals versions[s] and its health still matches degraded[s], and no
/// topology swap happened since the view's topology was loaded. A shard
/// stores its published version before the snapshot itself, so that
/// version is never behind any snapshot a reader has already loaded: a
/// view that matches it is never older, component by component, than what
/// that reader saw before.

#include <cstdint>
#include <memory>
#include <vector>

#include "geometry/point.h"
#include "serve/result_snapshot.h"

namespace fdrms {

/// One merged view over S shard snapshots. Immutable after construction;
/// holds the component snapshots alive for per-shard inspection.
struct MergedSnapshot {
  /// Routing epoch this view was composed under (see shard/migration.h).
  /// Monotone across merged snapshots observed by any single reader; the
  /// shard count — and so the version vector's length — only changes when
  /// the epoch advances.
  uint64_t epoch = 0;

  /// Version vector: versions[s] is the publication version of shard s's
  /// component. Component-wise monotone across merged snapshots observed
  /// by any single reader *within one epoch*; a topology-changing epoch
  /// re-indexes the components.
  std::vector<uint64_t> versions;

  /// Degraded-read annotation, aligned with `versions`: degraded[s] is true
  /// when component s is the *last* snapshot a now-dead shard writer
  /// published. A degraded component keeps serving but stops advancing —
  /// its versions[s] is frozen while healthy components advance, which is
  /// exactly the staleness bound a reader gets: everything the dead shard
  /// applied before its death is visible, everything submitted after is
  /// not (those submits fail fast with kUnavailable). Empty or all-false
  /// when every shard is healthy.
  std::vector<bool> degraded;
  int degraded_shards = 0;

  /// Operation counters summed across shards.
  uint64_t ops_applied = 0;
  uint64_t ops_rejected = 0;
  uint64_t batches = 0;
  uint64_t persisted = 0;

  /// Live tuples summed across shards.
  int live_tuples = 0;

  /// Smallest per-shard sample size m. With a shared utility-sampling seed
  /// every shard draws the same utility sequence, so utilities with index
  /// below this are covered by *every* shard's (1-ε) guarantee — the merged
  /// result inherits the k=1 regret bound on that shared prefix.
  int min_sample_size_m = 0;

  /// Merged result set: ids ascending (disjoint across shards by routing),
  /// points parallel to ids. Union of the shard results, optionally
  /// reduced to ShardedServiceOptions::merged_budget_r by the greedy
  /// re-cover (`reduced` says whether that happened; `union_size` is the
  /// pre-reduction size).
  std::vector<int> ids;
  std::vector<Point> points;
  size_t union_size = 0;
  bool reduced = false;

  /// Writer-side cost aggregates: the max is the critical path a multi-core
  /// deployment pays (the slowest shard bounds completion), the sum is the
  /// total work all writers did.
  double writer_busy_seconds_max = 0.0;
  double writer_busy_seconds_sum = 0.0;

  /// The composed per-shard snapshots, index-aligned with `versions`.
  std::vector<std::shared_ptr<const ResultSnapshot>> shards;
};

}  // namespace fdrms

#endif  // FDRMS_SHARD_MERGED_SNAPSHOT_H_
