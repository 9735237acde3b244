#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "tensor/rng.hpp"
#include "timeseries/distance.hpp"
#include "timeseries/partition.hpp"
#include "timeseries/profile.hpp"

namespace rihgcn::ts {
namespace {

std::vector<double> sine_series(std::size_t n, double phase, double freq = 1.0) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(freq * static_cast<double>(i) * 0.3 + phase);
  }
  return v;
}

// ---- DTW -----------------------------------------------------------------

TEST(Dtw, IdenticalSeriesIsZero) {
  const auto a = sine_series(20, 0.0);
  EXPECT_DOUBLE_EQ(dtw(a, a), 0.0);
}

TEST(Dtw, Symmetric) {
  const auto a = sine_series(15, 0.0);
  const auto b = sine_series(22, 1.0);
  EXPECT_DOUBLE_EQ(dtw(a, b), dtw(b, a));
}

TEST(Dtw, NonNegative) {
  Rng rng(1);
  for (int k = 0; k < 10; ++k) {
    std::vector<double> a(10), b(12);
    for (auto& x : a) x = rng.normal();
    for (auto& x : b) x = rng.normal();
    EXPECT_GE(dtw(a, b), 0.0);
  }
}

TEST(Dtw, AbsorbsTimeShift) {
  // DTW of a shifted copy is far smaller than Euclidean-style lockstep.
  const auto a = sine_series(50, 0.0);
  const auto b = sine_series(50, 0.9);  // phase-shifted copy
  double lockstep = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) lockstep += std::abs(a[i] - b[i]);
  EXPECT_LT(dtw(a, b), 0.5 * lockstep);
}

TEST(Dtw, DifferentLengths) {
  const auto a = sine_series(10, 0.0);
  const auto b = sine_series(30, 0.0);
  EXPECT_GE(dtw(a, b), 0.0);
  // Aligning a 10-sample sine against 30 samples of the same sine costs far
  // less than the worst case (30 steps x amplitude 2).
  EXPECT_LT(dtw(a, b), 30.0);
}

TEST(Dtw, ConstantVsConstant) {
  const std::vector<double> a(5, 2.0), b(8, 5.0);
  // Every alignment step costs 3; optimal path has max(5,8)=8 steps.
  EXPECT_DOUBLE_EQ(dtw(a, b), 3.0 * 8.0);
}

TEST(Dtw, EmptySeriesThrows) {
  const std::vector<double> a, b{1.0};
  EXPECT_THROW((void)dtw(a, b), std::invalid_argument);
}

TEST(Dtw, WideBandMatchesUnconstrained) {
  const auto a = sine_series(20, 0.0);
  const auto b = sine_series(20, 0.7);
  EXPECT_DOUBLE_EQ(dtw(a, b, 30), dtw(a, b));
}

TEST(Dtw, NarrowBandIsLowerBoundedByUnconstrained) {
  const auto a = sine_series(30, 0.0);
  const auto b = sine_series(30, 1.2);
  EXPECT_GE(dtw(a, b, 2), dtw(a, b));
}

TEST(DtwMultivariate, MatchesUnivariateOnOneDim) {
  const auto a = sine_series(12, 0.0);
  const auto b = sine_series(17, 0.5);
  Matrix ma(12, 1), mb(17, 1);
  for (std::size_t i = 0; i < 12; ++i) ma(i, 0) = a[i];
  for (std::size_t i = 0; i < 17; ++i) mb(i, 0) = b[i];
  EXPECT_NEAR(dtw_multivariate(ma, mb), dtw(a, b), 1e-12);
}

TEST(DtwMultivariate, DimensionMismatchThrows) {
  EXPECT_THROW((void)dtw_multivariate(Matrix(3, 2), Matrix(3, 3)), ShapeError);
}

// ---- ERP ----------------------------------------------------------------------

TEST(Erp, IdenticalIsZero) {
  const auto a = sine_series(10, 0.0);
  EXPECT_DOUBLE_EQ(erp(a, a), 0.0);
}

TEST(Erp, EmptyAgainstSeriesIsGapCost) {
  const std::vector<double> a;
  const std::vector<double> b{1.0, -2.0, 3.0};
  EXPECT_DOUBLE_EQ(erp(a, b, 0.0), 6.0);
}

TEST(Erp, TriangleInequalityOnRandomSeries) {
  // ERP is a metric — verify on random triples.
  Rng rng(7);
  for (int k = 0; k < 20; ++k) {
    std::vector<double> a(8), b(10), c(6);
    for (auto& x : a) x = rng.normal();
    for (auto& x : b) x = rng.normal();
    for (auto& x : c) x = rng.normal();
    EXPECT_LE(erp(a, c), erp(a, b) + erp(b, c) + 1e-9);
  }
}

TEST(Erp, Symmetric) {
  const auto a = sine_series(9, 0.3);
  const auto b = sine_series(14, 1.1);
  EXPECT_DOUBLE_EQ(erp(a, b), erp(b, a));
}

// ---- series_distance dispatch / pairwise ----------------------------------

TEST(SeriesDistance, DispatchesAllKinds) {
  const auto a = sine_series(10, 0.0);
  const auto b = sine_series(10, 0.4);
  EXPECT_EQ(series_distance(SeriesDistance::kDtw, a, b), dtw(a, b));
  EXPECT_EQ(series_distance(SeriesDistance::kErp, a, b), erp(a, b));
}

TEST(PairwiseSeriesDistance, SymmetricZeroDiagonal) {
  Rng rng(11);
  const Matrix series = rng.normal_matrix(5, 30, 1.0);
  const Matrix d = pairwise_series_distance(series);
  EXPECT_EQ(d.rows(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < 5; ++j) EXPECT_EQ(d(i, j), d(j, i));
  }
}

TEST(PairwiseSeriesDistance, SimilarRowsCloser) {
  Matrix series(3, 40);
  const auto base = sine_series(40, 0.0);
  const auto near = sine_series(40, 0.15);
  const auto far = sine_series(40, 0.0, 5.0);  // different frequency
  for (std::size_t i = 0; i < 40; ++i) {
    series(0, i) = base[i];
    series(1, i) = near[i];
    series(2, i) = far[i];
  }
  const Matrix d = pairwise_series_distance(series);
  EXPECT_LT(d(0, 1), d(0, 2));
}

// ---- Partition -----------------------------------------------------------------

TEST(Partition, EqualSplitProperties) {
  const Partition p = Partition::equal_split(24, 4);
  EXPECT_TRUE(p.valid(24));
  EXPECT_EQ(p.num_intervals(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(p.length(i), 6u);
}

TEST(Partition, IntervalOf) {
  const Partition p = Partition::equal_split(24, 4);
  EXPECT_EQ(p.interval_of(0), 0u);
  EXPECT_EQ(p.interval_of(5), 0u);
  EXPECT_EQ(p.interval_of(6), 1u);
  EXPECT_EQ(p.interval_of(23), 3u);
  EXPECT_THROW((void)p.interval_of(24), std::out_of_range);
}

TEST(Partition, EqualSplitRejectsBadArgs) {
  EXPECT_THROW((void)Partition::equal_split(5, 0), std::invalid_argument);
  EXPECT_THROW((void)Partition::equal_split(5, 6), std::invalid_argument);
}

TEST(Partition, ValidityChecks) {
  Partition p;
  EXPECT_FALSE(p.valid(10));
  p.boundaries = {0, 5, 10};
  EXPECT_TRUE(p.valid(10));
  p.boundaries = {0, 5, 5, 10};
  EXPECT_FALSE(p.valid(10));  // empty interval
  p.boundaries = {1, 5, 10};
  EXPECT_FALSE(p.valid(10));  // must start at 0
}

Matrix rush_hour_profile(std::size_t slots, std::size_t nodes) {
  // Two sharp dips (morning/evening rush) — the partitioner should separate
  // the rush intervals from the quiet ones.
  Matrix p(slots, nodes);
  for (std::size_t s = 0; s < slots; ++s) {
    const double hour = static_cast<double>(s) * 24.0 / static_cast<double>(slots);
    const double dip = std::exp(-(hour - 8.0) * (hour - 8.0) / 2.0) +
                       std::exp(-(hour - 17.5) * (hour - 17.5) / 2.0);
    for (std::size_t n = 0; n < nodes; ++n) {
      p(s, n) = 65.0 - 30.0 * dip * (1.0 + 0.1 * static_cast<double>(n));
    }
  }
  return p;
}

TEST(Partitioner, SatisfiedConstraintsForPaperSettings) {
  TimelinePartitioner part(rush_hour_profile(24, 4));
  Rng rng(1);
  const Partition p = part.partition(4, rng);
  EXPECT_TRUE(p.valid(24));
  EXPECT_TRUE(part.satisfies(p));
  EXPECT_EQ(p.num_intervals(), 4u);
}

TEST(Partitioner, BeatsOrMatchesEqualSplit) {
  TimelinePartitioner part(rush_hour_profile(24, 3));
  Rng rng(2);
  const Partition best = part.partition(4, rng);
  const Partition equal = Partition::equal_split(24, 4);
  EXPECT_GE(part.objective(best), part.objective(equal) - 1e-9);
}

TEST(Partitioner, SingleIntervalIsTrivial) {
  TimelinePartitioner part(rush_hour_profile(24, 2));
  Rng rng(3);
  const Partition p = part.partition(1, rng);
  EXPECT_EQ(p.num_intervals(), 1u);
  EXPECT_EQ(p.boundaries.front(), 0u);
  EXPECT_EQ(p.boundaries.back(), 24u);
}

TEST(Partitioner, RejectsBadM) {
  TimelinePartitioner part(rush_hour_profile(24, 2));
  Rng rng(4);
  EXPECT_THROW((void)part.partition(0, rng), std::invalid_argument);
  EXPECT_THROW((void)part.partition(25, rng), std::invalid_argument);
}

TEST(Partitioner, MaxIntervalsUniquePartition) {
  TimelinePartitioner part(rush_hour_profile(12, 2));
  Rng rng(5);
  const Partition p = part.partition(12, rng);
  EXPECT_EQ(p.num_intervals(), 12u);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(p.length(i), 1u);
}

TEST(Partitioner, IntervalDistanceIsMemoizedConsistently) {
  TimelinePartitioner part(rush_hour_profile(24, 2));
  const double d1 = part.interval_distance(0, 6, 6, 12);
  const double d2 = part.interval_distance(0, 6, 6, 12);
  EXPECT_DOUBLE_EQ(d1, d2);
  EXPECT_GE(d1, 0.0);
}

TEST(Partitioner, EmptyProfileThrows) {
  EXPECT_THROW(TimelinePartitioner{Matrix{}}, std::invalid_argument);
}

// Sweep M like Figure 4 does: all partitions must satisfy constraints.
class PartitionSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(PartitionSweepTest, ConstraintsHoldAcrossM) {
  const auto m = static_cast<std::size_t>(GetParam());
  PartitionConstraints c;
  c.min_len = 1;
  c.max_len = std::max<std::size_t>(1, 2 * 24 / m);
  TimelinePartitioner part(rush_hour_profile(24, 3), c);
  Rng rng(6);
  const Partition p = part.partition(m, rng);
  EXPECT_EQ(p.num_intervals(), m);
  EXPECT_TRUE(p.valid(24));
  for (std::size_t i = 0; i < m; ++i) {
    EXPECT_GE(p.length(i), c.min_len);
    EXPECT_LE(p.length(i), c.max_len);
  }
}

INSTANTIATE_TEST_SUITE_P(NumGraphs, PartitionSweepTest,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 24));

// ---- HistoricalProfile ------------------------------------------------------

TEST(Profile, AveragesAcrossDays) {
  // 2 days, 4 slots/day, 1 node, 1 feature; slot s on day k has value
  // s + 10k. The profile must average across days: slot s -> s + 5.
  std::vector<Matrix> values, mask;
  for (std::size_t t = 0; t < 8; ++t) {
    Matrix v(1, 1);
    v(0, 0) = static_cast<double>(t % 4) + 10.0 * static_cast<double>(t / 4);
    values.push_back(v);
    mask.emplace_back(1, 1, 1.0);
  }
  const HistoricalProfile prof(values, mask, 4);
  for (std::size_t s = 0; s < 4; ++s) {
    EXPECT_DOUBLE_EQ(prof.node_profiles()(0, s), static_cast<double>(s) + 5.0);
  }
}

TEST(Profile, RespectsMask) {
  std::vector<Matrix> values, mask;
  for (std::size_t t = 0; t < 4; ++t) {
    Matrix v(1, 1);
    v(0, 0) = static_cast<double>(t + 1);
    values.push_back(v);
    Matrix m(1, 1);
    m(0, 0) = t % 2 == 0 ? 1.0 : 0.0;  // only even timesteps observed
    mask.push_back(m);
  }
  const HistoricalProfile prof(values, mask, 2);
  // Slot 0 observed (t=0: 1, t=2: 3) -> 2. Slot 1 never observed -> global
  // node mean of observed values (1+3)/2 = 2.
  EXPECT_DOUBLE_EQ(prof.node_profiles()(0, 0), 2.0);
  EXPECT_DOUBLE_EQ(prof.node_profiles()(0, 1), 2.0);
}

TEST(Profile, DayProfileAggregates) {
  std::vector<Matrix> values, mask;
  for (std::size_t t = 0; t < 8; ++t) {
    Matrix v(2, 1);
    v(0, 0) = static_cast<double>(t % 8);
    v(1, 0) = 1.0;
    values.push_back(v);
    mask.emplace_back(2, 1, 1.0);
  }
  const HistoricalProfile prof(values, mask, 8);
  const Matrix day = prof.day_profile(4);  // pairs of slots averaged
  EXPECT_EQ(day.rows(), 4u);
  EXPECT_EQ(day.cols(), 2u);
  EXPECT_DOUBLE_EQ(day(0, 0), 0.5);  // mean of slots 0,1
  EXPECT_DOUBLE_EQ(day(3, 0), 6.5);  // mean of slots 6,7
}

TEST(Profile, IntervalSeriesSlices) {
  std::vector<Matrix> values(6, Matrix(1, 1, 2.0));
  std::vector<Matrix> mask(6, Matrix(1, 1, 1.0));
  const HistoricalProfile prof(values, mask, 6);
  const Matrix s = prof.interval_series(2, 5);
  EXPECT_EQ(s.cols(), 3u);
  EXPECT_THROW((void)prof.interval_series(3, 3), std::invalid_argument);
}

TEST(Profile, InputValidation) {
  std::vector<Matrix> values(2, Matrix(1, 1));
  std::vector<Matrix> mask(1, Matrix(1, 1));
  EXPECT_THROW(HistoricalProfile(values, mask, 2), std::invalid_argument);
  EXPECT_THROW(HistoricalProfile({}, {}, 2), std::invalid_argument);
  std::vector<Matrix> mask2(2, Matrix(1, 1));
  EXPECT_THROW(HistoricalProfile(values, mask2, 0), std::invalid_argument);
  EXPECT_THROW(HistoricalProfile(values, mask2, 2, /*feature=*/5),
               std::invalid_argument);
}

}  // namespace
}  // namespace rihgcn::ts
