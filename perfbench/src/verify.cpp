#include "verify.h"

#include <algorithm>
#include <fstream>
#include <map>

#include "core/snapshot.h"
#include "harness.h"
#include "index/kdtree.h"

namespace perfbench {

using fdrms::FdRms;
using fdrms::Point;
using fdrms::Status;

Status ApplyTimed(FdRms* algo, const Ops& ops, size_t begin, size_t end,
                  std::vector<double>* op_ns) {
  for (size_t i = begin; i < end; ++i) {
    const FdRms::BatchOp& op = ops[i];
    const int64_t t0 = NowNs();
    const Status st = op.kind == FdRms::BatchOp::Kind::kDelete
                          ? algo->Delete(op.id)
                          : algo->Insert(op.id, op.point);
    if (op_ns != nullptr) op_ns->push_back(static_cast<double>(NowNs() - t0));
    if (!st.ok()) {
      return Status::Internal("serial replay rejected op on id " +
                              std::to_string(op.id) + ": " + st.ToString());
    }
  }
  return Status::OK();
}

Status ReplayFromInitialize(int dim, const fdrms::FdRmsOptions& options,
                            const Tuples& initial, const Ops& ops,
                            std::unique_ptr<FdRms>* out) {
  *out = std::make_unique<FdRms>(dim, options);
  FDRMS_RETURN_NOT_OK((*out)->Initialize(initial));
  return ApplyTimed(out->get(), ops, 0, ops.size(), nullptr);
}

Status ReplayFromSnapshot(const std::string& file, const Ops& ops,
                          std::unique_ptr<FdRms>* out) {
  std::ifstream in(file);
  if (!in.good()) return Status::NotFound("cannot open snapshot " + file);
  auto loaded = fdrms::LoadSnapshot(&in);
  if (!loaded.ok()) return loaded.status();
  *out = std::move(*loaded);
  return ApplyTimed(out->get(), ops, 0, ops.size(), nullptr);
}

Tuples LiveAfter(const Tuples& initial, const Ops& ops) {
  std::map<int, Point> live(initial.begin(), initial.end());
  for (const FdRms::BatchOp& op : ops) {
    if (op.kind == FdRms::BatchOp::Kind::kDelete) {
      live.erase(op.id);
    } else {
      live[op.id] = op.point;
    }
  }
  return Tuples(live.begin(), live.end());
}

namespace {

/// An exact top-k index over `live`, fully built (no unindexed buffer).
std::unique_ptr<fdrms::KdTree> BuildTree(const Tuples& live) {
  auto tree = std::make_unique<fdrms::KdTree>(
      static_cast<int>(live.front().second.size()));
  for (const auto& [id, p] : live) (void)tree->Insert(id, p);
  tree->Rebuild();
  return tree;
}

double Best(const Point& u, const std::vector<Point>& result) {
  double best = 0.0;
  for (const Point& q : result) best = std::max(best, fdrms::Dot(u, q));
  return best;
}

}  // namespace

Status CheckRegretOracle(const FdRms& algo, int m,
                         const std::vector<Point>& result, const Tuples& live,
                         double* worst_ratio) {
  *worst_ratio = 0.0;
  const int k = algo.options().k;
  const double eps = algo.options().eps;
  if (static_cast<int>(live.size()) < k) return Status::OK();
  const std::unique_ptr<fdrms::KdTree> tree = BuildTree(live);
  const std::vector<Point>& utilities = algo.topk().utilities();
  for (int i = 0; i < m; ++i) {
    const Point& u = utilities[static_cast<size_t>(i)];
    const double omega = tree->TopK(u, k).back().score;
    const double best = Best(u, result);
    if (omega > 0.0) *worst_ratio = std::max(*worst_ratio, 1.0 - best / omega);
    if (best < (1.0 - eps) * omega - 1e-9) {
      return Status::Internal("utility " + std::to_string(i) +
                              " is not covered: best " + std::to_string(best) +
                              " < (1-eps) * omega_k " + std::to_string(omega));
    }
  }
  return Status::OK();
}

double MaxRegretRatio(const std::vector<Point>& result, const Tuples& live,
                      int k, const std::vector<Point>& directions) {
  if (static_cast<int>(live.size()) < k) return 0.0;
  const std::unique_ptr<fdrms::KdTree> tree = BuildTree(live);
  double worst = 0.0;
  for (const Point& u : directions) {
    const double omega = tree->TopK(u, k).back().score;
    if (omega <= 0.0) continue;
    worst = std::max(worst, (omega - Best(u, result)) / omega);
  }
  return worst;
}

}  // namespace perfbench
