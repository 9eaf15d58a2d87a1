#include "core/snapshot.h"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <string>
#include <vector>

namespace fdrms {

namespace {
constexpr char kMagic[] = "FDRMS-SNAPSHOT-v1";

/// Largest utility sample a snapshot may ask for, in doubles. The FdRms
/// constructor samples max(M, r, d) vectors of d doubles each, so a hostile
/// header must be refused before anything is built.
constexpr std::int64_t kMaxUtilitySampleDoubles = std::int64_t{1} << 26;
}  // namespace

Status SaveSnapshot(const FdRms& algo, std::ostream* os) {
  if (os == nullptr) return Status::Invalid("null output stream");
  const FdRmsOptions& opt = algo.options();
  *os << kMagic << "\n";
  // 17 significant decimal digits round-trip IEEE doubles exactly (and,
  // unlike hexfloat, istream extraction can read them back).
  *os << std::setprecision(17);
  *os << algo.dim() << " " << opt.k << " " << opt.r << " " << opt.eps << " "
      << opt.max_utilities << " " << opt.seed << "\n";
  *os << algo.size() << "\n";
  std::vector<std::pair<int, Point>> tuples;
  tuples.reserve(algo.size());
  algo.topk().tree().ForEach([&](int id, const Point& p) {
    tuples.emplace_back(id, p);
  });
  // Stable order so identical states produce identical bytes.
  std::sort(tuples.begin(), tuples.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [id, p] : tuples) {
    *os << id;
    for (double v : p) *os << " " << v;
    *os << "\n";
  }
  if (!os->good()) return Status::Internal("stream write failed");
  return Status::OK();
}

Result<std::unique_ptr<FdRms>> LoadSnapshot(std::istream* is) {
  if (is == nullptr) return Status::Invalid("null input stream");
  std::string magic;
  if (!std::getline(*is, magic) || magic != kMagic) {
    return Status::Invalid("bad snapshot header: '" + magic + "'");
  }
  int dim = 0;
  FdRmsOptions opt;
  *is >> dim >> opt.k >> opt.r >> opt.eps >> opt.max_utilities >> opt.seed;
  if (!is->good() || dim <= 0 || opt.k < 1 || opt.r < 1 ||
      opt.eps < 0.0 || opt.eps >= 1.0 || opt.max_utilities < 1) {
    return Status::Invalid("bad snapshot parameter block");
  }
  const std::int64_t sample_rows =
      std::max({std::int64_t{opt.max_utilities}, std::int64_t{opt.r},
                std::int64_t{dim}});
  if (sample_rows * dim > kMaxUtilitySampleDoubles) {
    return Status::Invalid("snapshot utility sample too large: " +
                           std::to_string(sample_rows) + " x " +
                           std::to_string(dim) + " doubles");
  }
  int count = 0;
  *is >> count;
  if (!is->good() || count < 0) {
    return Status::Invalid("bad snapshot tuple count");
  }
  // The count is untrusted: grow as tuples parse instead of reserving it, so
  // a tiny file claiming INT_MAX tuples fails as truncated, not in the
  // allocator.
  std::vector<std::pair<int, Point>> tuples;
  for (int i = 0; i < count; ++i) {
    int id = 0;
    Point p(dim);
    *is >> id;
    for (int j = 0; j < dim; ++j) *is >> p[j];
    if (is->fail()) {
      return Status::Invalid("truncated snapshot at tuple " +
                             std::to_string(i));
    }
    tuples.emplace_back(id, std::move(p));
  }
  auto algo = std::make_unique<FdRms>(dim, opt);
  FDRMS_RETURN_NOT_OK(algo->Initialize(tuples));
  return algo;
}

}  // namespace fdrms
