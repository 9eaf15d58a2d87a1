#ifndef FDRMS_BASELINES_GREEDY_H_
#define FDRMS_BASELINES_GREEDY_H_

/// \file greedy.h
/// The greedy family of RMS baselines:
///  * GreedyRms     — GREEDY of Nanongkai et al. (VLDB 2010): at every step
///                    an exact LP per skyline candidate finds the tuple
///                    realizing the current maximum regret, which is added.
///  * GeoGreedyRms  — GEOGREEDY of Peng & Wong (ICDE 2014): the same greedy
///                    objective with the geometric candidate pruning
///                    replaced by a sampled-witness scan refined by exact
///                    LPs on the top candidates; the LPs confirm the true
///                    maximum-regret witness, the role GEOGREEDY's
///                    convex-hull machinery plays, without a hull library.
///  * GreedyStarRms — GREEDY* of Chester et al. (PVLDB 2014): randomized
///                    greedy for k >= 1 driven by a sampled utility set.

#include "baselines/rms_algorithm.h"

namespace fdrms {

/// GREEDY [22]; k = 1 only.
class GreedyRms : public RmsAlgorithm {
 public:
  /// \param max_witness_candidates caps the per-iteration LP count on huge
  ///        skylines (the paper's implementation scans all; the cap only
  ///        matters above bench scale).
  explicit GreedyRms(int max_witness_candidates = 1200)
      : max_witness_candidates_(max_witness_candidates) {}

  std::string name() const override { return "Greedy"; }
  std::vector<int> Compute(const Database& db, int k, int r,
                           Rng* rng) const override;

 private:
  int max_witness_candidates_;
};

/// GEOGREEDY [23]; k = 1 only.
class GeoGreedyRms : public RmsAlgorithm {
 public:
  /// \param num_directions sampled witness directions per iteration
  /// \param refine_top exact LPs run on the best candidates per iteration
  explicit GeoGreedyRms(int num_directions = 512, int refine_top = 8)
      : num_directions_(num_directions), refine_top_(refine_top) {}

  std::string name() const override { return "GeoGreedy"; }
  std::vector<int> Compute(const Database& db, int k, int r,
                           Rng* rng) const override;

 private:
  int num_directions_;
  int refine_top_;
};

/// GREEDY* [11]; any k.
class GreedyStarRms : public RmsAlgorithm {
 public:
  explicit GreedyStarRms(int num_directions = 1024)
      : num_directions_(num_directions) {}

  std::string name() const override { return "Greedy*"; }
  bool SupportsKGreaterThan1() const override { return true; }
  std::vector<int> Compute(const Database& db, int k, int r,
                           Rng* rng) const override;

 private:
  int num_directions_;
};

}  // namespace fdrms

#endif  // FDRMS_BASELINES_GREEDY_H_
