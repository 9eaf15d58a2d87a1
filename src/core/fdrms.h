#ifndef FDRMS_CORE_FDRMS_H_
#define FDRMS_CORE_FDRMS_H_

/// \file fdrms.h
/// FD-RMS — the paper's fully dynamic algorithm for k-regret minimizing
/// sets (Section III-B, Algorithms 2-4).
///
/// Usage:
///   FdRmsOptions opt;
///   opt.k = 1; opt.r = 50; opt.eps = 0.01; opt.max_utilities = 2048;
///   FdRms algo(dim, opt);
///   algo.Initialize(initial_tuples);           // Algorithm 2
///   algo.Insert(id, point); algo.Delete(id);   // Algorithm 3 (+4)
///   std::vector<int> q = algo.Result();        // current Q_t
///
/// The maintained Q_t corresponds to a *stable* set-cover solution over the
/// ε-approximate top-k sets of m <= M sampled utility vectors; m is adapted
/// online (UPDATEM) so |Q_t| tracks the budget r.

#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "geometry/point.h"
#include "setcover/dynamic_set_cover.h"
#include "topk/topk_maintainer.h"

namespace fdrms {

/// Tuning parameters of FD-RMS (Section III-C).
struct FdRmsOptions {
  int k = 1;                ///< rank parameter of RMS(k, r)
  int r = 10;               ///< result size budget (r >= d recommended)
  double eps = 0.01;        ///< approximation factor of top-k results
  int max_utilities = 1024; ///< M, the upper bound of the sample size m
  uint64_t seed = 42;       ///< utility sampling seed
};

/// The fully dynamic k-RMS algorithm.
class FdRms {
 public:
  /// Samples the M utility vectors (basis prefix + uniform, Algorithm 2
  /// Line 1) but indexes no tuples yet.
  FdRms(int dim, const FdRmsOptions& options);

  /// Algorithm 2: bulk-loads P_0, then binary-searches the sample size
  /// m ∈ [r, M] so the greedy cover has size (as close as possible to) r.
  /// Call exactly once, before any Insert/Delete.
  Status Initialize(const std::vector<std::pair<int, Point>>& tuples);

  /// Algorithm 3, insertion ∆_t = <p, +>.
  Status Insert(int id, const Point& p);

  /// Algorithm 3, deletion ∆_t = <p, ->.
  Status Delete(int id);

  /// Attribute update of an existing tuple: a deletion followed by an
  /// insertion (Section II-B). Fails without side effects if `id` is not
  /// live; fails with the tuple removed if the re-insertion is invalid
  /// (dimension mismatch), which the returned Status reports.
  Status Update(int id, const Point& p);

  /// One entry of a batch mutation.
  struct BatchOp {
    enum class Kind { kInsert, kDelete, kUpdate } kind;
    int id;
    Point point;  ///< unused for kDelete
  };

  /// Applies a sequence of mutations, stopping at (and returning) the first
  /// failure. Convenience for replaying update streams.
  Status ApplyBatch(const std::vector<BatchOp>& ops);

  /// As above, but additionally reports how many leading operations were
  /// applied (all of them on success; the index of the failed operation
  /// otherwise). The serving layer uses this to resume a drained batch past
  /// a rejected operation instead of discarding its tail.
  Status ApplyBatch(const std::vector<BatchOp>& ops, size_t* num_applied);

  /// Applies ops[begin..ops.size()); `*num_applied` counts from `begin`.
  /// Lets a caller resume past a failed operation without copying the
  /// batch tail. `begin == ops.size()` applies nothing; `begin` past the
  /// end is Invalid with `*num_applied` = 0.
  Status ApplyBatch(const std::vector<BatchOp>& ops, size_t begin,
                    size_t* num_applied);

  /// Current result Q_t (tuple ids, ascending); |Q_t| <= r.
  std::vector<int> Result() const { return cover_.CoverSetIds(); }

  /// One member of a published result: a Q_t id with its attribute vector.
  struct ResultEntry {
    int id;
    Point point;
  };

  /// Q_t with attributes resolved from the live index (ids ascending).
  /// This is the state a serving snapshot publishes: readers get usable
  /// tuples without a second lookup against the (mutating) index.
  std::vector<ResultEntry> ResolvedResult() const;

  int current_m() const { return m_; }
  int dim() const { return dim_; }
  const FdRmsOptions& options() const { return options_; }
  int size() const { return topk_.size(); }
  const TopKMaintainer& topk() const { return topk_; }
  const DynamicSetCover& cover() const { return cover_; }

  /// Test hook: full invariant sweep over the top-k state and the cover.
  Status Validate() const;

 private:
  /// Feeds one batch of Φ membership deltas into the set-cover state
  /// (additions before removals so reassignments see new targets).
  void ApplyDeltas(const std::vector<TopKDelta>& deltas);

  /// Algorithm 4: grows/shrinks the universe prefix until |C| = r (or the
  /// m-range is exhausted).
  void UpdateM();

  int dim_;
  FdRmsOptions options_;
  bool initialized_ = false;
  int m_ = 0;
  TopKMaintainer topk_;
  DynamicSetCover cover_;
  /// The current op's Φ membership changes; cleared per op, capacity reused.
  std::vector<TopKDelta> delta_scratch_;
};

}  // namespace fdrms

#endif  // FDRMS_CORE_FDRMS_H_
