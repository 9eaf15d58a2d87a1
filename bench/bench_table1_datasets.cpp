/// Table I — statistics of datasets: n, d, #skylines.
///
/// Real datasets are simulated (they cannot be downloaded offline; see
/// data/generators.h) and sizes are scaled by
/// FDRMS_BENCH_SCALE; the shape to reproduce is the *relative* skyline
/// density across datasets (BB sparse … Movie very dense).

#include <iostream>

#include "bench_common.h"
#include "skyline/skyline.h"

using namespace fdrms;

int main() {
  std::cout << "Table I: statistics of datasets (scaled by FDRMS_BENCH_SCALE="
            << bench::BenchScale() << ")\n\n";
  TablePrinter table({"Dataset", "n", "d", "#skylines", "density"});
  double bb_density = 0.0, movie_density = 0.0, aq_density = 0.0;
  for (const auto& spec : PaperDatasets()) {
    int n = bench::ScaledN(spec.paper_n);
    PointSet ps = std::move(GenerateByName(spec.name, n, 42)).ValueOr(PointSet(1));
    int skylines = static_cast<int>(ComputeSkyline(ps).size());
    double density = static_cast<double>(skylines) / n;
    if (spec.name == "BB") bb_density = density;
    if (spec.name == "AQ") aq_density = density;
    if (spec.name == "Movie") movie_density = density;
    table.BeginRow();
    table.AddCell(spec.name);
    table.AddInt(n);
    table.AddInt(spec.dim);
    table.AddInt(skylines);
    table.AddNumber(density, 4);
  }
  table.Print(std::cout);
  std::cout << "\n";
  bench::ShapeCheck(bb_density < aq_density && aq_density < movie_density,
                    "skyline density ordering BB < AQ < Movie (Table I)");
  return 0;
}
