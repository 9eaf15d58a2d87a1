#ifndef FDRMS_DATA_GENERATORS_H_
#define FDRMS_DATA_GENERATORS_H_

/// \file generators.h
/// Dataset generators for the experimental study (Section IV-A).
///
/// Indep and AntiCor follow Börzsönyi et al. (ICDE 2001) exactly. The four
/// real datasets of the paper (BB, AQ, CT, Movie) cannot be downloaded in
/// this offline environment, so each has a documented synthetic stand-in
/// that matches its dimensionality, value range, and attribute-correlation
/// structure — the properties that drive skyline density and therefore the
/// relative behaviour of every algorithm under test.
/// All attributes are scaled to [0, 1], larger is better.

#include <string>
#include <vector>

#include "common/result.h"
#include "geometry/pointset.h"

namespace fdrms {

/// Uniform on the unit hypercube; attributes independent.
PointSet GenerateIndep(int n, int d, uint64_t seed);

/// Anti-correlated: points concentrated around the plane Σx_i = d/2, where
/// being good on one attribute means being bad on others (Börzsönyi's
/// generator: sample a plane offset, then redistribute mass between random
/// attribute pairs).
PointSet GenerateAntiCor(int n, int d, uint64_t seed);

/// Positively correlated attributes (small skylines; used by ablations).
PointSet GenerateCorrelated(int n, int d, uint64_t seed);

/// BB stand-in: 5 attributes; players share a latent skill that drives all
/// box-score stats, with specialist archetypes (scorer, rebounder, ...)
/// boosting subsets. Yields the small skyline (~1% of n) the paper reports.
PointSet GenerateBasketball(int n, uint64_t seed);

/// AQ stand-in: 9 attributes; pollutant concentrations move together within
/// two correlated groups while the meteorological block is independent,
/// giving the mid-density skyline of the paper's AQ.
PointSet GenerateAirQuality(int n, uint64_t seed);

/// CT stand-in: 8 attributes; smooth functions of a 2-D latent terrain
/// location plus heavy independent noise, giving a large skyline (>10% of
/// n) like the forest-cover data.
PointSet GenerateCoverType(int n, uint64_t seed);

/// Movie stand-in: 12 attributes; each movie is relevant to a few tags
/// (sparse Dirichlet-style relevance scaled by popularity), giving the very
/// dense skyline (~25% of n) of the tag-genome data.
PointSet GenerateMovie(int n, uint64_t seed);

/// Descriptor used by the benchmark harness to iterate "the paper's
/// datasets".
struct DatasetSpec {
  std::string name;  ///< BB, AQ, CT, Movie, Indep, AntiCor
  int paper_n;       ///< size used in the paper
  int dim;
};

/// The six datasets of Table I, in paper order.
const std::vector<DatasetSpec>& PaperDatasets();

/// Generates `name` with `n` tuples (paper dimensionality). Supports the
/// six Table I names; Indep/AntiCor use d = 6 like the paper's defaults.
Result<PointSet> GenerateByName(const std::string& name, int n, uint64_t seed);

}  // namespace fdrms

#endif  // FDRMS_DATA_GENERATORS_H_
