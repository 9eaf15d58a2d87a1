/// Ablation — the indexed top-k maintenance of Section III-C (kd-tree over
/// tuples, fused reached scan over utilities) versus a brute-force
/// maintainer that rescans every utility on every operation.
///
/// Shape: the indexes confine the work to the utilities a tuple reaches, so
/// the per-operation cost is far below M full rescans; the gap widens
/// with M.

#include <iostream>
#include <unordered_map>

#include "bench_common.h"
#include "geometry/sampling.h"
#include "topk/topk_maintainer.h"

using namespace fdrms;

namespace {

/// Brute-force Φ maintenance: recompute the affected utility sets by a full
/// scan per operation (what FD-RMS would pay without TI/UI).
class BruteTopK {
 public:
  BruteTopK(int k, double eps, std::vector<Point> utils)
      : k_(k), eps_(eps), utils_(std::move(utils)) {}

  /// Adds a tuple without recomputing (initial load).
  void BulkLoad(int id, const Point& p) { live_.emplace(id, p); }

  void Insert(int id, const Point& p) {
    live_.emplace(id, p);
    Recompute();
  }
  void Delete(int id) {
    live_.erase(id);
    Recompute();
  }
  size_t TotalMembers() const {
    size_t total = 0;
    for (const auto& s : approx_) total += s.size();
    return total;
  }

 private:
  void Recompute() {
    approx_.assign(utils_.size(), {});
    for (size_t u = 0; u < utils_.size(); ++u) {
      std::vector<double> scores;
      scores.reserve(live_.size());
      for (const auto& [id, p] : live_) scores.push_back(Dot(utils_[u], p));
      double omega_k = 0.0;
      if (static_cast<int>(scores.size()) >= k_) {
        std::nth_element(scores.begin(), scores.begin() + (k_ - 1),
                         scores.end(), std::greater<>());
        omega_k = scores[k_ - 1];
      }
      double tau = (1.0 - eps_) * omega_k;
      for (const auto& [id, p] : live_) {
        if (Dot(utils_[u], p) >= tau) approx_[u].insert(id);
      }
    }
  }

  int k_;
  double eps_;
  std::vector<Point> utils_;
  std::unordered_map<int, Point> live_;
  std::vector<std::unordered_set<int>> approx_;
};

}  // namespace

int main() {
  const int d = 6;
  const int k = 3;
  const double eps = 0.02;
  const int n0 = 4000;
  const int ops = 400;
  std::cout << "Ablation: dual-tree top-k maintenance vs brute force "
            << "(n0=" << n0 << ", d=" << d << ", k=" << k << ")\n\n";
  TablePrinter table({"M", "dual-tree(us/op)", "brute(us/op)", "speedup"});
  bool widening = true;
  double prev_speedup = 0.0;
  for (int M : {128, 512, 2048}) {
    Rng rng(2024);
    auto utils = SampleUtilityVectors(M, d, &rng);
    TopKMaintainer dual(d, k, eps, utils);
    BruteTopK brute(k, eps, utils);
    PointSet data = GenerateIndep(n0 + ops, d, 5);
    for (int i = 0; i < n0; ++i) {
      (void)dual.Insert(i, data.Get(i), nullptr);
    }
    // Dual tree timing (brute is bulk-loaded lazily on its first op).
    Stopwatch dual_watch;
    for (int i = 0; i < ops; ++i) {
      if (i % 2 == 0) {
        (void)dual.Insert(n0 + i, data.Get(n0 + i), nullptr);
      } else {
        (void)dual.Delete(n0 + i - 1, nullptr);
      }
    }
    double dual_us = dual_watch.ElapsedMicros() / ops;
    // Brute force: measure a small sample; a full replay is minutes.
    for (int i = 0; i < n0; ++i) brute.BulkLoad(i, data.Get(i));
    const int brute_sample = 10;
    Stopwatch brute_watch;
    for (int i = 0; i < brute_sample; ++i) {
      brute.Insert(n0 + i, data.Get(n0 + i));
    }
    double brute_us = brute_watch.ElapsedMicros() / brute_sample;
    double speedup = brute_us / std::max(1e-9, dual_us);
    widening &= speedup > prev_speedup;
    prev_speedup = speedup;
    table.BeginRow();
    table.AddInt(M);
    table.AddNumber(dual_us, 1);
    table.AddNumber(brute_us, 1);
    table.AddNumber(speedup, 1);
  }
  table.Print(std::cout);
  std::cout << "\n";
  bench::ShapeCheck(prev_speedup > 10.0,
                    "dual-tree maintenance at least 10x cheaper than "
                    "brute-force rescans at M=2048");
  bench::ShapeCheck(widening, "the dual-tree advantage grows with M");
  return 0;
}
