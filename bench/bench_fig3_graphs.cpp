// Figure 3: three graphs over five road segments built from different
// distance measurements — geographic distance vs temporal (DTW) similarity
// in two different time intervals. The paper's point: nodes far apart
// geographically can be strongly connected temporally, and temporal graph
// structure varies across intervals.
//
// This bench prints the three adjacency matrices for a 5-node slice of the
// PeMS-like dataset plus quantitative structure-difference statistics.
#include <cstdio>

#include "harness.hpp"
#include "timeseries/profile.hpp"

using namespace rihgcn;
using namespace rihgcn::bench;

namespace {

void print_adjacency(const char* title, const Matrix& a) {
  std::printf("%s\n", title);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    std::printf("   ");
    for (std::size_t j = 0; j < a.cols(); ++j) std::printf("%6.3f ", a(i, j));
    std::printf("\n");
  }
}

double structure_difference(const Matrix& a, const Matrix& b) {
  // Mean absolute difference of edge weights (off-diagonal).
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (i == j) continue;
      s += std::abs(a(i, j) - b(i, j));
      ++n;
    }
  }
  return s / static_cast<double>(n);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = BenchOptions::parse(argc, argv);
  Scale s = Scale::from(opts);
  s.pems_nodes = 5;  // the figure uses five road segments
  Environment env = make_pems_environment(s, 0.0, opts.seed, 4);

  std::printf(
      "Figure 3: graphs from different distance measurements "
      "(5 road segments)\n\n");
  const Matrix geo = env.graphs->geographic_adjacency_csr().to_dense();
  print_adjacency("(a) geographic graph (road distances, Eq. 8):", geo);
  const auto& part = env.graphs->partition();
  std::printf("\ntimeline partition (hour boundaries):");
  for (const std::size_t b : part.boundaries) std::printf(" %zu", b);
  std::printf("\n\n");
  for (std::size_t m = 0; m < std::min<std::size_t>(2, env.graphs->num_temporal());
       ++m) {
    const auto [c0, c1] = part.slot_range(m);
    char title[128];
    std::snprintf(title, sizeof(title),
                  "(%c) temporal graph for interval [%zuh, %zuh) (DTW "
                  "similarity):",
                  static_cast<char>('b' + m), c0, c1);
    print_adjacency(title, env.graphs->temporal_adjacency_csr(m).to_dense());
    std::printf("\n");
  }

  // Eq. 8 sparsity, grounded in actual numbers: nnz/density per graph (the
  // sparse backend's win scales with how empty these are — DESIGN.md §9).
  std::printf("graph sparsity (Eq. 8 thresholded adjacency):\n");
  auto print_stats = [](const char* name, const CsrMatrix& a) {
    std::printf("   %-22s nnz=%4zu/%4zu  density=%.3f\n", name, a.nnz(),
                a.rows() * a.cols(), a.density());
  };
  print_stats("geographic:", env.graphs->geographic_adjacency_csr());
  for (std::size_t m = 0; m < env.graphs->num_temporal(); ++m) {
    char name[32];
    std::snprintf(name, sizeof(name), "temporal[%zu]:", m);
    print_stats(name, env.graphs->temporal_adjacency_csr(m));
  }
  std::printf("\n");

  const auto temporal_adj = [&](std::size_t m) {
    return env.graphs->temporal_adjacency_csr(m).to_dense();
  };
  std::printf("structure differences (mean |edge weight delta|):\n");
  std::printf("   geo vs temporal[0]:        %.4f\n",
              structure_difference(geo, temporal_adj(0)));
  if (env.graphs->num_temporal() > 1) {
    std::printf("   geo vs temporal[1]:        %.4f\n",
                structure_difference(geo, temporal_adj(1)));
    std::printf("   temporal[0] vs temporal[1]: %.4f\n",
                structure_difference(temporal_adj(0), temporal_adj(1)));
  }
  std::printf(
      "\nShape check vs paper: temporal graphs connect geographically "
      "distant nodes with similar daily patterns, and their structure "
      "changes across intervals (nonzero temporal[0] vs temporal[1] "
      "difference).\n");
  return 0;
}
