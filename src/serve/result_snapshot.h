#ifndef FDRMS_SERVE_RESULT_SNAPSHOT_H_
#define FDRMS_SERVE_RESULT_SNAPSHOT_H_

/// \file result_snapshot.h
/// The immutable unit of publication of the serving layer. After each
/// applied batch the writer thread builds a fresh ResultSnapshot and swaps
/// it into an atomic shared_ptr; readers hold a snapshot for as long as
/// they like without blocking the writer or each other. A snapshot is
/// never mutated after publication.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/point.h"

namespace fdrms {

/// One published view of the maintained result Q_t plus enough bookkeeping
/// for a reader to reason about staleness. Telemetry (latency quantiles,
/// queue-depth and batch-size histograms) is not copied here: it lives in
/// the service's metric registry, which every scrape reads.
struct ResultSnapshot {
  /// Publication counter, strictly increasing across snapshots of one
  /// service instance. version 0 is the initial (post-Initialize) state.
  uint64_t version = 0;

  /// Operations consumed from the queue up to this snapshot, split by
  /// outcome. consumed = applied + rejected; a reader comparing `consumed`
  /// against the service's submitted counter sees the queue backlog.
  uint64_t ops_applied = 0;
  uint64_t ops_rejected = 0;

  /// ApplyBatch calls that produced this state (i.e. how many publications
  /// carried real work; equals version unless batches were empty).
  uint64_t batches = 0;

  /// FD-RMS sample size m after the batch (UPDATEM's current choice).
  int sample_size_m = 0;

  /// Live tuple count after the batch.
  int live_tuples = 0;

  /// Cumulative CPU seconds the writer thread has spent applying batches
  /// (per-thread CPU time: excludes queue waits, snapshot construction,
  /// and — on an oversubscribed host — periods spent descheduled while
  /// other threads ran). The operator's utilization signal: busy/wall near
  /// 1.0 means the writer is saturated and the tuple space should be
  /// sharded wider.
  double writer_busy_seconds = 0.0;

  /// Background persistence runs completed so far (0 unless
  /// FdRmsServiceOptions::persist_every_batches is set).
  uint64_t persisted = 0;

  /// Q_t tuple ids, ascending; |ids| <= r.
  std::vector<int> ids;

  /// Attribute vectors resolved at publication time, parallel to `ids` —
  /// readers never touch the mutating index.
  std::vector<Point> points;
};

}  // namespace fdrms

#endif  // FDRMS_SERVE_RESULT_SNAPSHOT_H_
