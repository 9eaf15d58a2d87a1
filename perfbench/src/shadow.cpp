#include "shadow.h"

#include <algorithm>

#include "common/rng.h"
#include "geometry/sampling.h"
#include "harness.h"

namespace perfbench {

using fdrms::FdRms;
using fdrms::Point;
using fdrms::Status;
using fdrms::TopKDelta;

namespace {

/// The utility sample FdRms draws in its constructor.
std::vector<Point> MakeUtilities(int dim, const fdrms::FdRmsOptions& options) {
  fdrms::Rng rng(options.seed);
  const int count = std::max(options.max_utilities, std::max(options.r, dim));
  return fdrms::SampleUtilityVectors(count, dim, &rng);
}

double SinceNs(int64_t t0) { return static_cast<double>(NowNs() - t0); }

}  // namespace

ShadowFdRms::ShadowFdRms(int dim, const fdrms::FdRmsOptions& options)
    : options_(options),
      topk_(dim, options.k, options.eps, MakeUtilities(dim, options)),
      cover_(topk_.num_utilities()),
      cone_(topk_.utilities()),
      kd_(dim) {}

double ShadowFdRms::Threshold(int utility) const {
  return (1.0 - topk_.eps()) * topk_.OmegaK(utility);
}

Status ShadowFdRms::Initialize(const Tuples& tuples) {
  for (const auto& [id, p] : tuples) {
    FDRMS_RETURN_NOT_OK(topk_.Insert(id, p, /*deltas=*/nullptr));
  }
  const int M = topk_.num_utilities();
  for (int i = 0; i < M; ++i) {
    for (int id : topk_.ApproxTopK(i)) cover_.AddMembership(i, id);
  }
  const int64_t t0 = NowNs();
  // Binary search of m ∈ [r, M] for greedy cover size r, as FdRms does.
  const int r = options_.r;
  int lo = std::min(r, M);
  int hi = M;
  int best_m = lo;
  auto greedy_at = [&](int m) {
    std::vector<int> universe(static_cast<size_t>(m));
    for (int i = 0; i < m; ++i) universe[static_cast<size_t>(i)] = i;
    cover_.InitializeGreedy(universe);
    return cover_.CoverSize();
  };
  if (greedy_at(lo) <= r) {
    int lo_search = lo + 1;
    while (lo_search <= hi) {
      const int mid = lo_search + (hi - lo_search) / 2;
      const int size = greedy_at(mid);
      if (size <= r) {
        best_m = mid;
        if (size == r) break;
        lo_search = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
  }
  greedy_at(best_m);
  m_ = best_m;
  if (cover_.CoverSize() != r) UpdateM();
  ledger_.greedy_s = SinceNs(t0) * 1e-9;
  // Untimed: bring the shadow indexes to the maintainer's state.
  for (const auto& [id, p] : tuples) FDRMS_RETURN_NOT_OK(kd_.Insert(id, p));
  for (int i = 0; i < M; ++i) cone_.SetThreshold(i, Threshold(i));
  return Status::OK();
}

Status ShadowFdRms::Apply(const FdRms::BatchOp& op) {
  return op.kind == FdRms::BatchOp::Kind::kDelete ? Delete(op.id)
                                                  : Insert(op.id, op.point);
}

void ShadowFdRms::ApplyDeltas(const std::vector<TopKDelta>& deltas) {
  const int64_t t0 = NowNs();
  for (const TopKDelta& d : deltas) {
    if (d.added) cover_.AddMembership(d.utility, d.tuple_id);
  }
  for (const TopKDelta& d : deltas) {
    if (!d.added) cover_.RemoveMembership(d.utility, d.tuple_id);
  }
  ledger_.delta_ns += SinceNs(t0);
  ledger_.deltas += deltas.size();
}

void ShadowFdRms::MaybeUpdateM() {
  if (cover_.CoverSize() == options_.r) return;
  const int64_t t0 = NowNs();
  UpdateM();
  ledger_.update_m_ns += SinceNs(t0);
}

void ShadowFdRms::UpdateM() {
  const int r = options_.r;
  const int M = topk_.num_utilities();
  const int m_floor = std::max(1, std::min(r, M));
  if (cover_.CoverSize() < r) {
    while (m_ < M && cover_.CoverSize() < r) {
      cover_.AddToUniverse(m_);
      ++m_;
    }
  } else if (cover_.CoverSize() > r) {
    while (cover_.CoverSize() > r && m_ > m_floor) {
      --m_;
      cover_.RemoveFromUniverse(m_);
    }
  }
}

void ShadowFdRms::MirrorThresholds(const std::vector<TopKDelta>& deltas) {
  // Every threshold change of an op comes with a delta on that utility
  // (an insert that moves ω_k enters Φ; a delete that rebuilds a utility
  // leaves its Φ), so mirroring the touched utilities keeps the shadow
  // cone tree equal to the maintainer's.
  for (const TopKDelta& d : deltas) {
    const double tau = Threshold(d.utility);
    if (cone_.GetThreshold(d.utility) != tau) cone_.SetThreshold(d.utility, tau);
  }
}

// Both ops time the composition first, in FdRms's order, and run the
// index copies only after it: run before, they would warm the very code and
// data the maintainer's own index calls then use.
Status ShadowFdRms::Insert(int id, const Point& p) {
  std::vector<TopKDelta> deltas;
  int64_t t0 = NowNs();
  FDRMS_RETURN_NOT_OK(topk_.Insert(id, p, &deltas));
  ledger_.topk_insert_ns += SinceNs(t0);
  ++ledger_.inserts;
  ApplyDeltas(deltas);
  MaybeUpdateM();

  // The shadow cone tree still holds the pre-insert thresholds, so it
  // reaches exactly the utilities the maintainer's cone tree reached.
  t0 = NowNs();
  const std::vector<int> reached = cone_.FindReached(p);
  ledger_.cone_find_ns += SinceNs(t0);
  t0 = NowNs();
  FDRMS_RETURN_NOT_OK(kd_.Insert(id, p));
  ledger_.kd_update_ns += SinceNs(t0);
  ledger_.cone_reached += reached.size();
  for (const TopKDelta& d : deltas) {
    if (d.added && d.tuple_id == id) ++ledger_.cone_useful;
  }
  MirrorThresholds(deltas);
  return Status::OK();
}

Status ShadowFdRms::Delete(int id) {
  std::vector<TopKDelta> deltas;
  int64_t t0 = NowNs();
  FDRMS_RETURN_NOT_OK(topk_.Delete(id, &deltas));
  ledger_.topk_delete_ns += SinceNs(t0);
  ++ledger_.deletes;
  ApplyDeltas(deltas);
  t0 = NowNs();
  cover_.RemoveSet(id);
  ledger_.remove_set_ns += SinceNs(t0);
  MaybeUpdateM();

  t0 = NowNs();
  FDRMS_RETURN_NOT_OK(kd_.Delete(id));
  ledger_.kd_update_ns += SinceNs(t0);
  // RebuildUtility re-queried the utilities whose exact top-k held `id`:
  // those are the ones whose admission threshold moved (the shadow cone
  // tree still holds the old one). Exact score ties, which would leave it
  // in place, do not occur on continuous data.
  const fdrms::KdTree& tree = topk_.tree();
  for (const TopKDelta& d : deltas) {
    if (d.added || d.tuple_id != id) continue;
    const double tau = Threshold(d.utility);
    if (cone_.GetThreshold(d.utility) == tau) continue;
    const Point& utility = topk_.utilities()[static_cast<size_t>(d.utility)];
    t0 = NowNs();
    (void)tree.TopK(utility, topk_.k());
    ledger_.kd_topk_ns += SinceNs(t0);
    t0 = NowNs();
    (void)tree.ScoreRange(utility, tau);
    ledger_.kd_range_ns += SinceNs(t0);
    ++ledger_.rebuilt;
  }
  MirrorThresholds(deltas);
  return Status::OK();
}

uint64_t ShadowFdRms::IncidenceEntries() const {
  uint64_t total = 0;
  for (int i = 0; i < topk_.num_utilities(); ++i) {
    total += topk_.ApproxTopK(i).size();
  }
  return total;
}

}  // namespace perfbench
