#include "core/fdrms.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "geometry/sampling.h"

namespace fdrms {

namespace {

std::vector<Point> MakeUtilities(int dim, const FdRmsOptions& options) {
  Rng rng(options.seed);
  int m_count = std::max(options.max_utilities, std::max(options.r, dim));
  return SampleUtilityVectors(m_count, dim, &rng);
}

}  // namespace

FdRms::FdRms(int dim, const FdRmsOptions& options)
    : dim_(dim),
      options_(options),
      topk_(dim, options.k, options.eps, MakeUtilities(dim, options)),
      cover_(topk_.num_utilities()) {
  FDRMS_CHECK(options_.r >= 1);
  FDRMS_CHECK(options_.k >= 1);
  // M may have been raised to fit r and the basis prefix.
  options_.max_utilities = topk_.num_utilities();
}

Status FdRms::Initialize(const std::vector<std::pair<int, Point>>& tuples) {
  if (initialized_) {
    return Status::FailedPrecondition("Initialize called twice");
  }
  // Bulk-load the indexes; deltas are not needed yet (the set system is
  // built from the finished Φ sets below).
  for (const auto& [id, p] : tuples) {
    FDRMS_RETURN_NOT_OK(topk_.Insert(id, p, /*deltas=*/nullptr));
  }
  // Incidence for all M utilities: S(p) = { u_i : p ∈ Φ_{k,ε}(u_i, P_0) }.
  // DynamicSetCover owns the system; memberships for i >= m simply sit
  // outside the universe until UPDATEM needs them.
  const int M = topk_.num_utilities();
  for (int i = 0; i < M; ++i) {
    for (int id : topk_.ApproxTopK(i)) {
      cover_.AddMembership(i, id);
    }
  }
  // Binary search m ∈ [r, M] for greedy cover size r (Algorithm 2 Lines
  // 3-14). Cover size is (approximately) monotone in m; we keep the best
  // m whose cover fits the budget.
  // The paper assumes r >= d (Definition 1) and floors the sample size at
  // r; we allow r < d by letting the universe shrink below the basis prefix
  // (quality degrades gracefully, the budget always holds).
  const int r = options_.r;
  int lo = std::min(r, M);
  int hi = M;
  int best_m = lo;
  auto greedy_at = [&](int m) {
    std::vector<int> universe(m);
    for (int i = 0; i < m; ++i) universe[i] = i;
    cover_.InitializeGreedy(universe);
    return cover_.CoverSize();
  };
  int size_at_best = greedy_at(lo);
  if (size_at_best <= r) {
    int lo_search = lo + 1;
    while (lo_search <= hi) {
      int mid = lo_search + (hi - lo_search) / 2;
      int size = greedy_at(mid);
      if (size <= r) {
        best_m = mid;
        size_at_best = size;
        if (size == r) break;
        lo_search = mid + 1;
      } else {
        hi = mid - 1;
      }
    }
  }
  // Rebuild the solution at the chosen m (the last greedy run may have
  // probed a different prefix).
  greedy_at(best_m);
  m_ = best_m;
  initialized_ = true;
  // The greedy probe can land under r; grow the universe like Algorithm 4
  // to use the full budget when possible.
  if (cover_.CoverSize() != r) UpdateM();
  return Status::OK();
}

void FdRms::ApplyDeltas(const std::vector<TopKDelta>& deltas) {
  // Additions first: a reassignment triggered by a removal can then land on
  // a set that just gained the element.
  for (const TopKDelta& delta : deltas) {
    if (delta.added) cover_.AddMembership(delta.utility, delta.tuple_id);
  }
  for (const TopKDelta& delta : deltas) {
    if (!delta.added) cover_.RemoveMembership(delta.utility, delta.tuple_id);
  }
}

Status FdRms::Insert(int id, const Point& p) {
  if (!initialized_) return Status::FailedPrecondition("not initialized");
  delta_scratch_.clear();
  FDRMS_RETURN_NOT_OK(topk_.Insert(id, p, &delta_scratch_));
  ApplyDeltas(delta_scratch_);
  if (cover_.CoverSize() != options_.r) UpdateM();
  return Status::OK();
}

Status FdRms::Delete(int id) {
  if (!initialized_) return Status::FailedPrecondition("not initialized");
  delta_scratch_.clear();
  FDRMS_RETURN_NOT_OK(topk_.Delete(id, &delta_scratch_));
  ApplyDeltas(delta_scratch_);
  // Purge the (now empty) set of the deleted tuple (Algorithm 3 Line 10).
  cover_.RemoveSet(id);
  if (cover_.CoverSize() != options_.r) UpdateM();
  return Status::OK();
}

Status FdRms::Update(int id, const Point& p) {
  if (!initialized_) return Status::FailedPrecondition("not initialized");
  if (!topk_.tree().Contains(id)) {
    return Status::NotFound("tuple id " + std::to_string(id) + " not present");
  }
  FDRMS_RETURN_NOT_OK(Delete(id));
  Status reinsert = Insert(id, p);
  if (!reinsert.ok()) {
    // The deletion stands (documented contract); say so in the error.
    return Status::Invalid("update removed tuple " + std::to_string(id) +
                           " but could not re-insert it: " +
                           reinsert.message());
  }
  return Status::OK();
}

Status FdRms::ApplyBatch(const std::vector<BatchOp>& ops) {
  size_t num_applied = 0;
  return ApplyBatch(ops, &num_applied);
}

Status FdRms::ApplyBatch(const std::vector<BatchOp>& ops, size_t* num_applied) {
  return ApplyBatch(ops, 0, num_applied);
}

Status FdRms::ApplyBatch(const std::vector<BatchOp>& ops, size_t begin,
                         size_t* num_applied) {
  if (begin > ops.size()) {
    *num_applied = 0;
    std::string msg = "ApplyBatch begin ";
    msg += std::to_string(begin);
    msg += " is past the batch end ";
    msg += std::to_string(ops.size());
    return Status::Invalid(std::move(msg));
  }
  for (size_t i = begin; i < ops.size(); ++i) {
    const BatchOp& op = ops[i];
    Status st;
    switch (op.kind) {
      case BatchOp::Kind::kInsert:
        st = Insert(op.id, op.point);
        break;
      case BatchOp::Kind::kDelete:
        st = Delete(op.id);
        break;
      case BatchOp::Kind::kUpdate:
        st = Update(op.id, op.point);
        break;
    }
    if (!st.ok()) {
      *num_applied = i - begin;
      return st;
    }
  }
  *num_applied = ops.size() - begin;
  return Status::OK();
}

std::vector<FdRms::ResultEntry> FdRms::ResolvedResult() const {
  std::vector<int> ids = cover_.CoverSetIds();
  std::vector<ResultEntry> out;
  out.reserve(ids.size());
  for (int id : ids) out.push_back({id, topk_.tree().GetPoint(id)});
  return out;
}

void FdRms::UpdateM() {
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

Status FdRms::Validate() const {
  FDRMS_RETURN_NOT_OK(topk_.ValidateAgainstBruteForce());
  FDRMS_RETURN_NOT_OK(cover_.CheckInvariants());
  // Cross-check: the set system's membership must mirror the Φ sets for
  // every utility (universe or not), and every universe utility with a
  // nonempty Φ set must be covered by Q_t.
  const int M = topk_.num_utilities();
  for (int i = 0; i < M; ++i) {
    const SetSystem::KeyRange phi_set = topk_.ApproxTopK(i);
    if (phi_set.size() != cover_.system().SetsContaining(i).size()) {
      return Status::Internal("set system incidence out of sync at utility " +
                              std::to_string(i));
    }
    for (int id : phi_set) {
      if (!cover_.system().Contains(i, id)) {
        return Status::Internal("membership missing for utility " +
                                std::to_string(i));
      }
    }
    if (i < m_ && !phi_set.empty() &&
        cover_.AssignmentOf(i) == DynamicSetCover::kUnassigned) {
      return Status::Internal("universe utility uncovered: " +
                              std::to_string(i));
    }
  }
  return Status::OK();
}

}  // namespace fdrms
