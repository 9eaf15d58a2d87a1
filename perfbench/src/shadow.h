#ifndef PERFBENCH_SHADOW_H_
#define PERFBENCH_SHADOW_H_

/// \file shadow.h
/// The per-layer ledger of the traced run. FdRms exposes no timing inside
/// Insert/Delete, and the benchmark adds none to src/, so a bench-side
/// shadow composes the same public layers exactly as core/fdrms.cpp does —
/// TopKMaintainer for the Φ sets, DynamicSetCover for the stable cover,
/// UPDATEM over its universe — and times every call into them.
///
/// The index layer sits inside TopKMaintainer, so it is measured beside it:
///  * a shadow ConeTree over the same utilities, its thresholds mirrored
///    from OmegaK for every utility an op's deltas touch, answers the same
///    FindReached query the maintainer's own cone tree answers on insert;
///  * a shadow KdTree receives the same Insert/Delete stream;
///  * after a delete, TopK and ScoreRange probes run on the maintainer's
///    own tree() for every utility whose exact top-k held the deleted id —
///    the queries RebuildUtility answered.
/// Those index timings are copies of work the maintainer does internally,
/// run after the timed composition so they cannot warm its caches; top-k
/// self time is the maintainer's time minus them.
///
/// The shadow must end in the same Q_t and m as a real FdRms given the same
/// stream; the benchmark checks that before it reports the ledger.

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/fdrms.h"
#include "drive.h"
#include "index/conetree.h"
#include "index/kdtree.h"
#include "setcover/dynamic_set_cover.h"
#include "topk/topk_maintainer.h"

namespace perfbench {

/// Sums (ns) and counts of every timed call.
struct Ledger {
  uint64_t inserts = 0;
  uint64_t deletes = 0;
  uint64_t deltas = 0;
  uint64_t rebuilt = 0;       ///< utilities re-queried after deletes
  uint64_t cone_reached = 0;  ///< utilities FindReached returned
  uint64_t cone_useful = 0;   ///< of those, utilities the tuple entered
  double topk_insert_ns = 0.0;
  double topk_delete_ns = 0.0;
  double cone_find_ns = 0.0;
  double kd_update_ns = 0.0;
  double kd_topk_ns = 0.0;
  double kd_range_ns = 0.0;
  double delta_ns = 0.0;       ///< AddMembership/RemoveMembership
  double remove_set_ns = 0.0;
  double update_m_ns = 0.0;    ///< AddToUniverse/RemoveFromUniverse
  double greedy_s = 0.0;       ///< Initialize: greedy search over m

  uint64_t ops() const { return inserts + deletes; }
  /// Pools another replay's ledger into this one.
  void Add(const Ledger& o) {
    inserts += o.inserts;
    deletes += o.deletes;
    deltas += o.deltas;
    rebuilt += o.rebuilt;
    cone_reached += o.cone_reached;
    cone_useful += o.cone_useful;
    topk_insert_ns += o.topk_insert_ns;
    topk_delete_ns += o.topk_delete_ns;
    cone_find_ns += o.cone_find_ns;
    kd_update_ns += o.kd_update_ns;
    kd_topk_ns += o.kd_topk_ns;
    kd_range_ns += o.kd_range_ns;
    delta_ns += o.delta_ns;
    remove_set_ns += o.remove_set_ns;
    update_m_ns += o.update_m_ns;
    greedy_s += o.greedy_s;
  }
  /// Time the composition spent inside its layers (the sum that must match
  /// a real FdRms's op time).
  double LayerSumNs() const {
    return topk_insert_ns + topk_delete_ns + delta_ns + remove_set_ns +
           update_m_ns;
  }
};

class ShadowFdRms {
 public:
  ShadowFdRms(int dim, const fdrms::FdRmsOptions& options);

  fdrms::Status Initialize(const Tuples& tuples);
  fdrms::Status Apply(const fdrms::FdRms::BatchOp& op);

  std::vector<int> Result() const { return cover_.CoverSetIds(); }
  int current_m() const { return m_; }
  const Ledger& ledger() const { return ledger_; }
  /// Σ|Φ| over all M utilities.
  uint64_t IncidenceEntries() const;

 private:
  fdrms::Status Insert(int id, const fdrms::Point& p);
  fdrms::Status Delete(int id);
  void ApplyDeltas(const std::vector<fdrms::TopKDelta>& deltas);
  void MaybeUpdateM();
  void UpdateM();
  void MirrorThresholds(const std::vector<fdrms::TopKDelta>& deltas);
  double Threshold(int utility) const;

  fdrms::FdRmsOptions options_;
  int m_ = 0;
  fdrms::TopKMaintainer topk_;
  fdrms::DynamicSetCover cover_;
  fdrms::ConeTree cone_;
  fdrms::KdTree kd_;
  Ledger ledger_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SHADOW_H_
