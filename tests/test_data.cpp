#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "data/dataset.hpp"
#include "data/generators.hpp"
#include "data/io.hpp"
#include "data/missing.hpp"
#include "data/windows.hpp"

namespace rihgcn::data {
namespace {

PemsLikeConfig small_pems() {
  PemsLikeConfig cfg;
  cfg.num_nodes = 10;
  cfg.num_days = 7;
  cfg.steps_per_day = 96;
  cfg.seed = 1;
  return cfg;
}

StampedeLikeConfig small_stampede() {
  StampedeLikeConfig cfg;
  cfg.num_days = 7;
  cfg.steps_per_day = 96;
  cfg.seed = 2;
  return cfg;
}

// ---- PeMS-like generator ------------------------------------------------------

TEST(PemsGenerator, ShapesAndCompleteness) {
  const TrafficDataset ds = generate_pems_like(small_pems());
  EXPECT_EQ(ds.num_nodes(), 10u);
  EXPECT_EQ(ds.num_timesteps(), 7u * 96u);
  EXPECT_EQ(ds.num_features(), 4u);
  EXPECT_DOUBLE_EQ(ds.missing_rate(), 0.0);
  EXPECT_EQ(ds.coords.rows(), 10u);
  EXPECT_EQ(ds.geo_distances.rows(), 10u);
}

TEST(PemsGenerator, SpeedsInPlausibleRange) {
  const TrafficDataset ds = generate_pems_like(small_pems());
  for (const Matrix& x : ds.truth) {
    EXPECT_GE(x.min(), 3.0);
    EXPECT_LE(x.max(), 95.0);
  }
}

TEST(PemsGenerator, RushHourDipExists) {
  // Weekday 8am speeds should be clearly below weekday 3am speeds.
  const TrafficDataset ds = generate_pems_like(small_pems());
  const std::size_t spd = ds.steps_per_day;
  double rush = 0.0, night = 0.0;
  int days = 0;
  for (std::size_t day = 0; day < 5; ++day) {  // Mon-Fri of week 1
    const std::size_t rush_t = day * spd + spd * 8 / 24;
    const std::size_t night_t = day * spd + spd * 3 / 24;
    for (std::size_t i = 0; i < ds.num_nodes(); ++i) {
      rush += ds.truth[rush_t](i, 0);
      night += ds.truth[night_t](i, 0);
    }
    ++days;
  }
  EXPECT_LT(rush, night - 5.0 * static_cast<double>(days));
}

TEST(PemsGenerator, WeekendLighterThanWeekday) {
  const TrafficDataset ds = generate_pems_like(small_pems());
  const std::size_t spd = ds.steps_per_day;
  const std::size_t slot8am = spd * 8 / 24;
  double weekday = 0.0, weekend = 0.0;
  for (std::size_t i = 0; i < ds.num_nodes(); ++i) {
    weekday += ds.truth[2 * spd + slot8am](i, 0);   // Wednesday
    weekend += ds.truth[5 * spd + slot8am](i, 0);   // Saturday
  }
  EXPECT_GT(weekend, weekday);
}

TEST(PemsGenerator, DeterministicForSeed) {
  const TrafficDataset a = generate_pems_like(small_pems());
  const TrafficDataset b = generate_pems_like(small_pems());
  EXPECT_TRUE(allclose(a.truth[100], b.truth[100], 0.0));
  PemsLikeConfig other = small_pems();
  other.seed = 99;
  const TrafficDataset c = generate_pems_like(other);
  EXPECT_FALSE(allclose(a.truth[100], c.truth[100], 1e-6));
}

TEST(PemsGenerator, LaneSpeedsCorrelateWithAverage) {
  const TrafficDataset ds = generate_pems_like(small_pems());
  double corr_num = 0.0, var0 = 0.0, var1 = 0.0;
  double mean0 = 0.0, mean1 = 0.0;
  const std::size_t samples = 500;
  for (std::size_t t = 0; t < samples; ++t) {
    mean0 += ds.truth[t](0, 0);
    mean1 += ds.truth[t](0, 1);
  }
  mean0 /= samples;
  mean1 /= samples;
  for (std::size_t t = 0; t < samples; ++t) {
    const double a = ds.truth[t](0, 0) - mean0;
    const double b = ds.truth[t](0, 1) - mean1;
    corr_num += a * b;
    var0 += a * a;
    var1 += b * b;
  }
  const double corr = corr_num / std::sqrt(var0 * var1);
  EXPECT_GT(corr, 0.8);
}

TEST(PemsGenerator, RoadDistancesSymmetricWithHubStructure) {
  const TrafficDataset ds = generate_pems_like(small_pems());
  for (std::size_t i = 0; i < ds.num_nodes(); ++i) {
    EXPECT_EQ(ds.geo_distances(i, i), 0.0);
    for (std::size_t j = 0; j < ds.num_nodes(); ++j) {
      EXPECT_EQ(ds.geo_distances(i, j), ds.geo_distances(j, i));
      EXPECT_GE(ds.geo_distances(i, j), 0.0);
    }
  }
}

// ---- Stampede-like generator ----------------------------------------------

TEST(StampedeGenerator, HighStructuralMissingness) {
  const TrafficDataset ds = generate_stampede_like(small_stampede());
  EXPECT_EQ(ds.num_nodes(), 12u);
  EXPECT_EQ(ds.num_features(), 1u);
  const double rate = ds.missing_rate();
  EXPECT_GT(rate, 0.5);  // roving sensors observe a small fraction
  EXPECT_LT(rate, 0.99);
}

TEST(StampedeGenerator, NoObservationsOvernight) {
  const StampedeLikeConfig cfg = small_stampede();
  const TrafficDataset ds = generate_stampede_like(cfg);
  // 2am-5am: no shuttle service, so no observations.
  const std::size_t spd = ds.steps_per_day;
  for (std::size_t day = 0; day < cfg.num_days; ++day) {
    for (std::size_t s = spd * 2 / 24; s < spd * 5 / 24; ++s) {
      EXPECT_EQ(ds.mask[day * spd + s].sum(), 0.0);
    }
  }
}

TEST(StampedeGenerator, DaytimeHasObservations) {
  const TrafficDataset ds = generate_stampede_like(small_stampede());
  const std::size_t spd = ds.steps_per_day;
  double daytime_obs = 0.0;
  for (std::size_t s = spd * 10 / 24; s < spd * 16 / 24; ++s) {
    daytime_obs += ds.mask[2 * spd + s].sum();
  }
  EXPECT_GT(daytime_obs, 10.0);
}

TEST(StampedeGenerator, TravelTimesPositive) {
  const TrafficDataset ds = generate_stampede_like(small_stampede());
  for (const Matrix& x : ds.truth) EXPECT_GE(x.min(), 30.0);
}

TEST(StampedeGenerator, ClassSurgeVisible) {
  const TrafficDataset ds = generate_stampede_like(small_stampede());
  const std::size_t spd = ds.steps_per_day;
  // Weekday 9am travel time above weekday 6am travel time on average.
  double surge = 0.0, early = 0.0;
  for (std::size_t day = 0; day < 4; ++day) {
    for (std::size_t i = 0; i < ds.num_nodes(); ++i) {
      surge += ds.truth[day * spd + spd * 9 / 24](i, 0);
      early += ds.truth[day * spd + spd * 6 / 24](i, 0);
    }
  }
  EXPECT_GT(surge, early);
}

// ---- Dataset validation ------------------------------------------------------

TEST(Dataset, ValidateCatchesRaggedShapes) {
  TrafficDataset ds = generate_pems_like(small_pems());
  ds.truth[5] = Matrix(3, 4);
  EXPECT_THROW(ds.validate(), std::invalid_argument);
}

TEST(Dataset, ValidateCatchesBadMaskValues) {
  TrafficDataset ds = generate_pems_like(small_pems());
  ds.mask[0](0, 0) = 0.5;
  EXPECT_THROW(ds.validate(), std::invalid_argument);
}

TEST(Dataset, ValidateCatchesNonFinite) {
  TrafficDataset ds = generate_pems_like(small_pems());
  ds.truth[0](0, 0) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(ds.validate(), std::invalid_argument);
}

TEST(Dataset, ValidateCatchesNonFiniteCoordsAndDistances) {
  // Programmatic datasets reach the graph builders through validate() alone
  // (load_dataset checks its own input), so it must vet the geometry too.
  TrafficDataset ds = generate_pems_like(small_pems());
  ASSERT_GT(ds.coords.rows(), 2u);
  ASSERT_GT(ds.geo_distances.rows(), 2u);
  ds.validate();
  TrafficDataset bad_coords = ds;
  bad_coords.coords(2, 1) = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(bad_coords.validate(), std::invalid_argument);
  TrafficDataset bad_dist = ds;
  bad_dist.geo_distances(1, 2) = std::numeric_limits<double>::infinity();
  EXPECT_THROW(bad_dist.validate(), std::invalid_argument);
}

TEST(Dataset, ObservedZeroesMissingEntries) {
  TrafficDataset ds = generate_pems_like(small_pems());
  ds.mask[0](0, 0) = 0.0;
  const Matrix obs = ds.observed(0);
  EXPECT_EQ(obs(0, 0), 0.0);
  EXPECT_EQ(obs(1, 0), ds.truth[0](1, 0));
}

// ---- Missingness injection ------------------------------------------------------

class McarRateTest : public ::testing::TestWithParam<double> {};

TEST_P(McarRateTest, AchievesTargetRate) {
  TrafficDataset ds = generate_pems_like(small_pems());
  Rng rng(5);
  inject_mcar(ds, GetParam(), rng);
  EXPECT_NEAR(ds.missing_rate(), GetParam(), 0.01);
  ds.validate();
}

INSTANTIATE_TEST_SUITE_P(Rates, McarRateTest,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8));

TEST(Mcar, RejectsBadRate) {
  TrafficDataset ds = generate_pems_like(small_pems());
  Rng rng(6);
  EXPECT_THROW(inject_mcar(ds, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(inject_mcar(ds, -0.1, rng), std::invalid_argument);
  // NaN fails both `rate < 0` and `rate >= 1`; every rate-taking injector
  // must still refuse it instead of silently dropping nothing.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(inject_mcar(ds, nan, rng), std::invalid_argument);
  EXPECT_THROW(inject_mcar_readings(ds, nan, rng), std::invalid_argument);
  EXPECT_THROW(inject_block_missing(ds, nan, 12, rng), std::invalid_argument);
  EXPECT_THROW((void)make_imputation_holdout(ds, nan, rng),
               std::invalid_argument);
}

TEST(BlockMissing, ApproximatesRateWithBursts) {
  TrafficDataset ds = generate_pems_like(small_pems());
  Rng rng(7);
  inject_block_missing(ds, 0.3, 12, rng);
  EXPECT_NEAR(ds.missing_rate(), 0.3, 0.08);
  // Burstiness: the missing runs must be much longer than MCAR would give.
  std::size_t runs = 0, missing = 0;
  bool in_run = false;
  for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
    const bool miss = ds.mask[t](0, 0) < 0.5;
    if (miss) {
      ++missing;
      if (!in_run) ++runs;
    }
    in_run = miss;
  }
  if (runs > 0) {
    EXPECT_GT(static_cast<double>(missing) / static_cast<double>(runs), 3.0);
  }
}

TEST(BlockMissing, RejectsZeroBlockLength) {
  TrafficDataset ds = generate_pems_like(small_pems());
  Rng rng(8);
  EXPECT_THROW(inject_block_missing(ds, 0.3, 0, rng), std::invalid_argument);
}

TEST(ImputationHoldout, DisjointFromVisibleMask) {
  TrafficDataset ds = generate_pems_like(small_pems());
  Rng rng(9);
  inject_mcar(ds, 0.4, rng);
  const double rate_before = ds.missing_rate();
  const auto holdout = make_imputation_holdout(ds, 0.3, rng);
  // Held-out entries were moved out of the visible mask...
  EXPECT_GT(ds.missing_rate(), rate_before);
  double overlap = 0.0, held = 0.0;
  for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
    overlap += hadamard(holdout[t], ds.mask[t]).sum();
    held += holdout[t].sum();
  }
  EXPECT_EQ(overlap, 0.0);  // ...and never overlap what the model sees.
  // Roughly 30% of the previously observed entries were held out.
  const double observed_before =
      (1.0 - rate_before) * static_cast<double>(ds.num_timesteps()) *
      static_cast<double>(ds.num_nodes() * ds.num_features());
  EXPECT_NEAR(held / observed_before, 0.3, 0.02);
}

// ---- Normalization -----------------------------------------------------------

TEST(ZScore, NormalizedStatsAreStandard) {
  TrafficDataset ds = generate_pems_like(small_pems());
  const std::size_t fit_end = ds.num_timesteps() * 7 / 10;
  const ZScoreNormalizer nz(ds, fit_end);
  nz.normalize(ds);
  double sum = 0.0, sum2 = 0.0, count = 0.0;
  for (std::size_t t = 0; t < fit_end; ++t) {
    for (std::size_t i = 0; i < ds.num_nodes(); ++i) {
      if (ds.mask[t](i, 0) > 0.5) {
        sum += ds.truth[t](i, 0);
        sum2 += ds.truth[t](i, 0) * ds.truth[t](i, 0);
        count += 1.0;
      }
    }
  }
  EXPECT_NEAR(sum / count, 0.0, 1e-9);
  EXPECT_NEAR(sum2 / count, 1.0, 1e-9);
}

TEST(ZScore, RoundTrip) {
  TrafficDataset ds = generate_pems_like(small_pems());
  const ZScoreNormalizer nz(ds, ds.num_timesteps());
  const double original = ds.truth[10](3, 2);
  nz.normalize(ds);
  EXPECT_NEAR(nz.denormalize(ds.truth[10](3, 2), 2), original, 1e-9);
  EXPECT_NEAR(nz.normalize_value(original, 2), ds.truth[10](3, 2), 1e-9);
}

TEST(ZScore, DenormalizeMatrix) {
  TrafficDataset ds = generate_pems_like(small_pems());
  const ZScoreNormalizer nz(ds, ds.num_timesteps());
  const Matrix original = ds.truth[5];
  nz.normalize(ds);
  EXPECT_TRUE(allclose(nz.denormalize(ds.truth[5]), original, 1e-9));
}

TEST(ZScore, BadFitRangeThrows) {
  TrafficDataset ds = generate_pems_like(small_pems());
  EXPECT_THROW(ZScoreNormalizer(ds, 0), std::invalid_argument);
  EXPECT_THROW(ZScoreNormalizer(ds, ds.num_timesteps() + 1),
               std::invalid_argument);
}

// ---- Window sampling -----------------------------------------------------------

TEST(Windows, CountAndShapes) {
  TrafficDataset ds = generate_pems_like(small_pems());
  const WindowSampler sampler(ds, 12, 6);
  EXPECT_EQ(sampler.num_windows(), ds.num_timesteps() - 18 + 1);
  const Window w = sampler.make_window(0);
  EXPECT_EQ(w.x_obs.size(), 12u);
  EXPECT_EQ(w.y.size(), 6u);
  EXPECT_EQ(w.x_obs[0].rows(), ds.num_nodes());
  EXPECT_EQ(w.y[0].cols(), 1u);
  EXPECT_EQ(w.slot, 0u);
}

TEST(Windows, SlotTracksTimeOfDay) {
  TrafficDataset ds = generate_pems_like(small_pems());
  const WindowSampler sampler(ds, 4, 2);
  EXPECT_EQ(sampler.make_window(100).slot, 100u % ds.steps_per_day);
}

TEST(Windows, TargetsComeFromTruth) {
  TrafficDataset ds = generate_pems_like(small_pems());
  Rng rng(10);
  inject_mcar(ds, 0.5, rng);
  const WindowSampler sampler(ds, 4, 2);
  const Window w = sampler.make_window(7);
  EXPECT_EQ(w.y[0](2, 0), ds.truth[7 + 4](2, 0));
  EXPECT_EQ(w.y_mask[1](2, 0), ds.mask[7 + 4 + 1](2, 0));
}

TEST(Windows, ObservedInputsAreMasked) {
  TrafficDataset ds = generate_pems_like(small_pems());
  Rng rng(11);
  inject_mcar(ds, 0.5, rng);
  const WindowSampler sampler(ds, 4, 2);
  const Window w = sampler.make_window(3);
  for (std::size_t t = 0; t < 4; ++t) {
    EXPECT_TRUE(allclose(w.x_obs[t], hadamard(w.x_truth[t], w.x_mask[t]),
                         1e-12));
  }
}

TEST(Windows, SplitIsChronologicalAndDisjoint) {
  TrafficDataset ds = generate_pems_like(small_pems());
  const WindowSampler sampler(ds, 12, 12);
  const SplitIndices split = sampler.split(0.7, 0.2);
  ASSERT_FALSE(split.train.empty());
  ASSERT_FALSE(split.val.empty());
  ASSERT_FALSE(split.test.empty());
  const std::size_t len = 24;
  // Train windows end before every val window begins, etc.
  EXPECT_LE(split.train.back() + len, split.val.front() + len);
  EXPECT_LT(split.train.back() + len,
            split.val.front() + 1 + len);
  EXPECT_LT(split.val.back(), split.test.front() + 1);
  // No window straddles a boundary: windows are fully inside their region.
  const auto t_total = ds.num_timesteps();
  const auto train_end = static_cast<std::size_t>(0.7 * static_cast<double>(t_total));
  EXPECT_LE(split.train.back() + len, train_end);
  EXPECT_GE(split.val.front(), train_end);
}

TEST(Windows, BadArgsThrow) {
  TrafficDataset ds = generate_pems_like(small_pems());
  EXPECT_THROW(WindowSampler(ds, 0, 5), std::invalid_argument);
  EXPECT_THROW(WindowSampler(ds, 5, 0), std::invalid_argument);
  EXPECT_THROW(WindowSampler(ds, 5, 5, 9), std::invalid_argument);
  const WindowSampler sampler(ds, 12, 12);
  EXPECT_THROW((void)sampler.make_window(ds.num_timesteps()),
               std::out_of_range);
  EXPECT_THROW((void)sampler.split(0.9, 0.2), std::invalid_argument);
}

// ---- Load-time validation ---------------------------------------------------

TEST(DatasetIo, LoadRejectsMaskOutsideZeroOneWithContext) {
  TrafficDataset ds = generate_pems_like(small_pems());
  std::ostringstream os;
  save_dataset(os, ds);
  std::string text = os.str();
  const std::size_t pos = text.find("mask\n");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 5] = '7';  // first mask entry becomes 7 -> not in {0,1}
  std::istringstream is(text);
  try {
    (void)load_dataset(is);
    FAIL() << "mask entry outside {0,1} was accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("mask"), std::string::npos) << msg;
    EXPECT_NE(msg.find("row 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("col 0"), std::string::npos) << msg;
  }
}

TEST(DatasetIo, LoadRejectsUnparsableValueWithContext) {
  TrafficDataset ds = generate_pems_like(small_pems());
  std::ostringstream os;
  save_dataset(os, ds);
  std::string text = os.str();
  const std::size_t pos = text.find("truth\n");
  ASSERT_NE(pos, std::string::npos);
  // A writer that serialized a NaN would emit exactly this token; the loader
  // must refuse it and say where it was.
  text.insert(pos + 6, "nan ");
  std::istringstream is(text);
  try {
    (void)load_dataset(is);
    FAIL() << "non-finite truth entry was accepted";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("truth[0]"), std::string::npos) << msg;
    EXPECT_NE(msg.find("row 0"), std::string::npos) << msg;
  }
}

TEST(DatasetIo, CleanRoundTripStillWorks) {
  TrafficDataset ds = generate_pems_like(small_pems());
  Rng rng(3);
  inject_mcar(ds, 0.25, rng);
  std::ostringstream os;
  save_dataset(os, ds);
  std::istringstream is(os.str());
  const TrafficDataset back = load_dataset(is);
  EXPECT_EQ(back.num_nodes(), ds.num_nodes());
  EXPECT_EQ(back.num_timesteps(), ds.num_timesteps());
  EXPECT_DOUBLE_EQ(back.missing_rate(), ds.missing_rate());
}

}  // namespace
}  // namespace rihgcn::data
