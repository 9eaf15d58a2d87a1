#ifndef FDRMS_BASELINES_SPHERE_H_
#define FDRMS_BASELINES_SPHERE_H_

/// \file sphere.h
///  * SphereRms — SPHERE of Xie et al. (SIGMOD 2018): seed the answer with
///    the boundary tuples of r well-spread directions (the ε-kernel stage),
///    then complete the budget greedily against a sampled utility set (the
///    GREEDY stage). Both stages run on a sampled direction set in place
///    of the original's exact geometric subroutines.
///  * CubeRms — CUBE of Nanongkai et al. (VLDB 2010): the classic
///    grid-partition reference algorithm whose bound Corollary 1 compares
///    against.

#include "baselines/rms_algorithm.h"

namespace fdrms {

/// SPHERE [32]; k = 1 only.
class SphereRms : public RmsAlgorithm {
 public:
  explicit SphereRms(int num_directions = 1024)
      : num_directions_(num_directions) {}

  std::string name() const override { return "Sphere"; }
  std::vector<int> Compute(const Database& db, int k, int r,
                           Rng* rng) const override;

 private:
  int num_directions_;
};

/// CUBE [22]; k = 1 only.
class CubeRms : public RmsAlgorithm {
 public:
  std::string name() const override { return "Cube"; }
  std::vector<int> Compute(const Database& db, int k, int r,
                           Rng* rng) const override;
};

}  // namespace fdrms

#endif  // FDRMS_BASELINES_SPHERE_H_
