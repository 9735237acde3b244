// Robustness suite (DESIGN.md §11): NumericalGuard semantics, durable
// CRC-verified training checkpoints with bitwise-identical resume, the
// deterministic fault injector, training under injected faults, and the
// serving-side primitives (sanitize / stuck detection / scrub / the
// per-stream ReadingBuffer). The ForecastServer paths built on them are
// OnlineRobust.* in test_serve.cpp. The CleanRun* tests double as the CI
// gate that the guard never fires on healthy data.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "baselines/neural.hpp"
#include "core/robust.hpp"
#include "core/trainer.hpp"
#include "data/faults.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "data/windows.hpp"
#include "nn/optim.hpp"

namespace rihgcn {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// ---- CRC32 / RngState ------------------------------------------------------

TEST(Crc32, KnownAnswerVector) {
  // The classic IEEE 802.3 check value.
  EXPECT_EQ(nn::crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(nn::crc32(std::string()), 0u);
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  std::string a = "rihgcn checkpoint payload";
  std::string b = a;
  b[7] = static_cast<char>(b[7] ^ 0x01);
  EXPECT_NE(nn::crc32(a), nn::crc32(b));
}

TEST(RngState, RoundTripReplaysStreamExactly) {
  Rng rng(99);
  (void)rng.normal();  // leave a Box-Muller cached normal pending
  const RngState snap = rng.state();
  std::vector<double> expected;
  for (int i = 0; i < 16; ++i) expected.push_back(rng.normal());
  std::vector<std::size_t> perm = rng.permutation(10);

  Rng other(1);  // different seed; state restore must fully override
  other.set_state(snap);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(other.normal(), expected[i]);
  EXPECT_EQ(other.permutation(10), perm);
}

// ---- NumericalGuard --------------------------------------------------------

struct GuardRig {
  ad::Parameter w{Matrix(2, 2, 1.0), "w"};
  std::vector<ad::Parameter*> params{&w};
  nn::AdamOptimizer opt{params};
};

TEST(NumericalGuard, NonFiniteLossVetoed) {
  GuardRig rig;
  core::NumericalGuard guard(rig.params, rig.opt, core::GuardConfig{});
  EXPECT_EQ(guard.inspect(kNaN), core::NumericalGuard::Verdict::kSkipBatch);
  EXPECT_EQ(guard.counters().nonfinite_losses, 1u);
  EXPECT_EQ(guard.counters().batches_skipped, 1u);
  EXPECT_FALSE(guard.counters().clean());
}

TEST(NumericalGuard, NonFiniteGradientVetoed) {
  GuardRig rig;
  core::NumericalGuard guard(rig.params, rig.opt, core::GuardConfig{});
  rig.w.grad()(0, 1) = kNaN;
  EXPECT_EQ(guard.inspect(1.0), core::NumericalGuard::Verdict::kSkipBatch);
  EXPECT_EQ(guard.counters().nonfinite_grads, 1u);
}

TEST(NumericalGuard, SpikeArmsOnlyAfterWarmup) {
  GuardRig rig;
  core::GuardConfig gc;
  gc.warmup_steps = 2;
  gc.spike_factor = 100.0;
  core::NumericalGuard guard(rig.params, rig.opt, gc);
  // Before warmup, even a huge finite loss passes (it just seeds the EMA).
  EXPECT_EQ(guard.inspect(1e6), core::NumericalGuard::Verdict::kOk);
  guard.after_step();

  GuardRig rig2;
  core::NumericalGuard armed(rig2.params, rig2.opt, gc);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(armed.inspect(1.0), core::NumericalGuard::Verdict::kOk);
    armed.after_step();
  }
  EXPECT_EQ(armed.inspect(1e6), core::NumericalGuard::Verdict::kSkipBatch);
  EXPECT_EQ(armed.counters().loss_spikes, 1u);
  // A normal loss right after is accepted — the EMA was not poisoned.
  EXPECT_EQ(armed.inspect(1.1), core::NumericalGuard::Verdict::kOk);
}

TEST(NumericalGuard, LrBackoffIsBounded) {
  GuardRig rig;
  core::GuardConfig gc;
  gc.lr_backoff = 0.5;
  gc.max_lr_backoffs = 2;
  gc.max_consecutive_bad = 100;  // keep rollback out of this test
  core::NumericalGuard guard(rig.params, rig.opt, gc);
  const double lr0 = rig.opt.current_lr();
  for (int i = 0; i < 5; ++i) (void)guard.inspect(kNaN);
  EXPECT_DOUBLE_EQ(rig.opt.current_lr(), lr0 * 0.25);  // only 2 backoffs
  EXPECT_EQ(guard.counters().lr_backoffs, 2u);
  EXPECT_EQ(guard.counters().batches_skipped, 5u);
}

TEST(NumericalGuard, RollbackRestoresParametersAndOptimizer) {
  GuardRig rig;
  core::GuardConfig gc;
  gc.max_consecutive_bad = 3;
  core::NumericalGuard guard(rig.params, rig.opt, gc);
  // Simulate divergence: parameters wander off after the snapshot.
  rig.w.value().fill(123.0);
  (void)guard.inspect(kNaN);
  (void)guard.inspect(kNaN);
  EXPECT_EQ(guard.counters().rollbacks, 0u);
  (void)guard.inspect(kNaN);  // 3rd consecutive bad -> rollback
  EXPECT_EQ(guard.counters().rollbacks, 1u);
  for (std::size_t i = 0; i < rig.w.value().size(); ++i) {
    EXPECT_EQ(rig.w.value().data()[i], 1.0);  // back to the snapshot
  }
  // The backed-off LR survives the rollback (retry with smaller steps).
  EXPECT_LT(rig.opt.current_lr(), 1e-3);
}

TEST(NumericalGuard, DisabledGuardNeverIntervenes) {
  GuardRig rig;
  core::GuardConfig gc;
  gc.enabled = false;
  core::NumericalGuard guard(rig.params, rig.opt, gc);
  EXPECT_EQ(guard.inspect(kNaN), core::NumericalGuard::Verdict::kOk);
  EXPECT_TRUE(guard.counters().clean());
}

// ---- Shared training fixture ----------------------------------------------

struct TrainFixture {
  data::TrafficDataset ds;  // normalized
  std::unique_ptr<data::WindowSampler> sampler;
  data::SplitIndices split;

  explicit TrainFixture(double missing = 0.3) {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 5;
    cfg.num_days = 3;
    cfg.steps_per_day = 48;
    cfg.seed = 77;
    ds = data::generate_pems_like(cfg);
    Rng rng(78);
    if (missing > 0.0) data::inject_mcar(ds, missing, rng);
    const std::size_t train_end = ds.num_timesteps() * 7 / 10;
    const data::ZScoreNormalizer nz(ds, train_end);
    nz.normalize(ds);
    sampler = std::make_unique<data::WindowSampler>(ds, 6, 3);
    split = sampler->split();
  }

  baselines::NeuralBaselineConfig nb_config() const {
    baselines::NeuralBaselineConfig c;
    c.lookback = 6;
    c.horizon = 3;
    c.hidden = 8;
    c.cheb_order = 2;
    return c;
  }

  core::TrainConfig small_tc() const {
    core::TrainConfig tc;
    tc.max_epochs = 2;
    tc.max_train_windows = 24;
    tc.max_val_windows = 12;
    return tc;
  }
};

bool params_all_finite(core::ForecastModel& model) {
  for (ad::Parameter* p : model.parameters()) {
    if (p->value().has_non_finite()) return false;
  }
  return true;
}

// The CI clean-path gate: on healthy data every guard counter stays zero.
TEST(NumericalGuard, CleanRunKeepsAllCountersZero) {
  TrainFixture f;
  baselines::FcLstmModel model(4, f.nb_config());
  core::TrainConfig tc = f.small_tc();
  tc.max_epochs = 3;
  const core::TrainReport report =
      core::train_model(model, *f.sampler, f.split, tc);
  EXPECT_TRUE(report.guard.clean());
  EXPECT_EQ(report.guard.batches_skipped, 0u);
  EXPECT_EQ(report.guard.nonfinite_losses, 0u);
  EXPECT_EQ(report.guard.nonfinite_grads, 0u);
  EXPECT_EQ(report.guard.loss_spikes, 0u);
  EXPECT_EQ(report.guard.lr_backoffs, 0u);
  EXPECT_EQ(report.guard.rollbacks, 0u);
}

// ---- Durable training checkpoints ------------------------------------------

TEST(TrainCheckpoint, SaveLoadRoundTrip) {
  ad::Parameter a(Matrix(2, 3, 0.5), "a");
  ad::Parameter b(Matrix(1, 4, -1.25), "b");
  std::vector<ad::Parameter*> params{&a, &b};
  nn::AdamOptimizer opt(params);
  for (int i = 0; i < 3; ++i) {  // make moments/step non-trivial
    a.grad().fill(0.1);
    b.grad().fill(-0.2);
    opt.step();
  }
  Rng rng(5);
  (void)rng.normal();

  nn::TrainCheckpoint ckpt;
  ckpt.epoch = 7;
  ckpt.batch_size = 8;
  ckpt.num_threads = 2;
  ckpt.seed = 42;
  ckpt.rng = rng.state();
  ckpt.adam = opt.state();
  ckpt.stopper_best = 0.31415;
  ckpt.stopper_bad_epochs = 2;
  ckpt.guard_loss_ema = 1.5;
  ckpt.guard_ema_initialized = true;
  ckpt.guard_good_steps = 21;
  ckpt.guard_backoffs_used = 1;
  ckpt.best_values = nn::snapshot_values(params);
  const std::vector<Matrix> saved_values = nn::snapshot_values(params);

  const std::string path = testing::TempDir() + "rihgcn_roundtrip.ckpt";
  nn::save_training_checkpoint(path, ckpt, params);

  a.value().fill(0.0);  // wreck the live state; load must restore it
  b.value().fill(99.0);
  const nn::TrainCheckpoint back = nn::load_training_checkpoint(path, params);

  EXPECT_EQ(back.epoch, 7u);
  EXPECT_EQ(back.batch_size, 8u);
  EXPECT_EQ(back.num_threads, 2u);
  EXPECT_EQ(back.seed, 42u);
  EXPECT_EQ(back.rng.words, ckpt.rng.words);
  EXPECT_EQ(back.rng.has_cached_normal, ckpt.rng.has_cached_normal);
  EXPECT_EQ(back.rng.cached_normal, ckpt.rng.cached_normal);
  EXPECT_EQ(back.adam.t, ckpt.adam.t);
  EXPECT_EQ(back.adam.lr, ckpt.adam.lr);
  ASSERT_EQ(back.adam.m.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    for (std::size_t i = 0; i < back.adam.m[k].size(); ++i) {
      EXPECT_EQ(back.adam.m[k].data()[i], ckpt.adam.m[k].data()[i]);
      EXPECT_EQ(back.adam.v[k].data()[i], ckpt.adam.v[k].data()[i]);
    }
  }
  EXPECT_EQ(back.stopper_best, 0.31415);
  EXPECT_EQ(back.stopper_bad_epochs, 2u);
  EXPECT_EQ(back.guard_loss_ema, 1.5);
  EXPECT_TRUE(back.guard_ema_initialized);
  EXPECT_EQ(back.guard_good_steps, 21u);
  EXPECT_EQ(back.guard_backoffs_used, 1u);
  ASSERT_EQ(back.best_values.size(), 2u);
  for (std::size_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(back.best_values[k].same_shape(saved_values[k]));
    for (std::size_t i = 0; i < saved_values[k].size(); ++i) {
      EXPECT_EQ(back.best_values[k].data()[i], saved_values[k].data()[i]);
    }
  }
  for (std::size_t k = 0; k < 2; ++k) {  // live values restored bitwise
    for (std::size_t i = 0; i < saved_values[k].size(); ++i) {
      EXPECT_EQ(params[k]->value().data()[i], saved_values[k].data()[i]);
    }
  }
}

TEST(TrainCheckpoint, FlippedPayloadByteIsRejected) {
  ad::Parameter a(Matrix(3, 3, 1.5), "a");
  std::vector<ad::Parameter*> params{&a};
  nn::AdamOptimizer opt(params);
  nn::TrainCheckpoint ckpt;
  ckpt.batch_size = 8;
  ckpt.num_threads = 1;
  ckpt.adam = opt.state();
  const std::string path = testing::TempDir() + "rihgcn_corrupt.ckpt";
  nn::save_training_checkpoint(path, ckpt, params);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  // Flip one bit well inside the payload (past the two header lines).
  const std::size_t header_end = bytes.find('\n', bytes.find('\n') + 1) + 1;
  ASSERT_LT(header_end + 20, bytes.size());
  bytes[header_end + 20] = static_cast<char>(bytes[header_end + 20] ^ 0x04);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  out.close();

  try {
    (void)nn::load_training_checkpoint(path, params);
    FAIL() << "corrupt checkpoint was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
  }
}

TEST(TrainCheckpoint, TruncatedFileIsRejected) {
  ad::Parameter a(Matrix(3, 3, 1.5), "a");
  std::vector<ad::Parameter*> params{&a};
  nn::AdamOptimizer opt(params);
  nn::TrainCheckpoint ckpt;
  ckpt.adam = opt.state();
  const std::string path = testing::TempDir() + "rihgcn_truncated.ckpt";
  nn::save_training_checkpoint(path, ckpt, params);

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes.substr(0, bytes.size() / 2);
  out.close();
  EXPECT_THROW((void)nn::load_training_checkpoint(path, params),
               std::runtime_error);
}

TEST(TrainCheckpoint, MissingFileIsRejected) {
  ad::Parameter a(Matrix(1, 1), "a");
  std::vector<ad::Parameter*> params{&a};
  EXPECT_THROW((void)nn::load_training_checkpoint(
                   testing::TempDir() + "rihgcn_nonexistent.ckpt", params),
               std::runtime_error);
}

// The headline acceptance test: kill a run mid-schedule, resume it, and the
// final parameters are bitwise identical to the uninterrupted run.
TEST(TrainCheckpoint, KillAndResumeIsBitwiseIdentical) {
  TrainFixture f;
  core::TrainConfig base;
  base.max_epochs = 6;
  base.max_train_windows = 24;
  base.max_val_windows = 12;
  base.num_threads = 1;

  // Run A: uninterrupted, 6 epochs.
  baselines::FcLstmModel model_a(4, f.nb_config());
  const core::TrainReport ra =
      core::train_model(model_a, *f.sampler, f.split, base);

  // Run B: "killed" after 3 epochs, checkpointing every epoch.
  const std::string path = testing::TempDir() + "rihgcn_resume.ckpt";
  baselines::FcLstmModel model_b(4, f.nb_config());
  core::TrainConfig tc_b = base;
  tc_b.max_epochs = 3;
  tc_b.checkpoint_path = path;
  const core::TrainReport rb =
      core::train_model(model_b, *f.sampler, f.split, tc_b);
  EXPECT_GE(rb.checkpoints_written, 3u);

  // Run C: fresh process image resumes B's checkpoint to the full schedule.
  baselines::FcLstmModel model_c(4, f.nb_config());
  core::TrainConfig tc_c = base;
  tc_c.checkpoint_path = path;
  tc_c.resume = true;
  const core::TrainReport rc =
      core::train_model(model_c, *f.sampler, f.split, tc_c);
  EXPECT_EQ(rc.resumed_epoch, 3u);
  EXPECT_EQ(rc.epochs_run + rc.resumed_epoch, ra.epochs_run);

  const auto pa = model_a.parameters();
  const auto pc = model_c.parameters();
  ASSERT_EQ(pa.size(), pc.size());
  for (std::size_t k = 0; k < pa.size(); ++k) {
    ASSERT_TRUE(pa[k]->value().same_shape(pc[k]->value()));
    for (std::size_t i = 0; i < pa[k]->value().size(); ++i) {
      EXPECT_EQ(pa[k]->value().data()[i], pc[k]->value().data()[i])
          << "param " << k << " entry " << i << " differs after resume";
    }
  }
  // The recorded histories line up too: C's epochs continue A's tail.
  ASSERT_EQ(rc.val_maes.size() + rc.resumed_epoch, ra.val_maes.size());
  for (std::size_t e = 0; e < rc.val_maes.size(); ++e) {
    EXPECT_EQ(rc.val_maes[e], ra.val_maes[e + rc.resumed_epoch]);
  }
}

TEST(TrainCheckpoint, ResumeRejectsContractMismatch) {
  TrainFixture f;
  const std::string path = testing::TempDir() + "rihgcn_contract.ckpt";
  baselines::FcLstmModel model(4, f.nb_config());
  core::TrainConfig tc = f.small_tc();
  tc.checkpoint_path = path;
  (void)core::train_model(model, *f.sampler, f.split, tc);

  baselines::FcLstmModel model2(4, f.nb_config());
  core::TrainConfig bad = tc;
  bad.resume = true;
  bad.seed = tc.seed + 1;  // different shuffle stream => refuse
  EXPECT_THROW((void)core::train_model(model2, *f.sampler, f.split, bad),
               std::runtime_error);
}

// ---- Fault injector ---------------------------------------------------------

data::TrafficDataset tiny_dataset(std::uint64_t seed = 7) {
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 5;
  cfg.num_days = 2;
  cfg.steps_per_day = 48;
  cfg.seed = seed;
  return data::generate_pems_like(cfg);
}

bool bitwise_equal(const Matrix& a, const Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(FaultInjection, SameSeedSameCorruption) {
  data::TrafficDataset d1 = tiny_dataset();
  data::TrafficDataset d2 = tiny_dataset();
  data::FaultInjector f1(123), f2(123);
  (void)f1.nan_burst(d1, 0.01);
  (void)f2.nan_burst(d2, 0.01);
  (void)f1.spike(d1, 0.01);
  (void)f2.spike(d2, 0.01);
  for (std::size_t t = 0; t < d1.num_timesteps(); ++t) {
    ASSERT_TRUE(bitwise_equal(d1.truth[t], d2.truth[t])) << "t=" << t;
    ASSERT_TRUE(bitwise_equal(d1.mask[t], d2.mask[t])) << "t=" << t;
  }
}

TEST(FaultInjection, NanBurstCorruptsObservedEntries) {
  data::TrafficDataset ds = tiny_dataset();
  data::FaultInjector inj(9);
  const data::FaultStats stats = inj.nan_burst(ds, 0.02, 3.0);
  EXPECT_GT(stats.entries_corrupted, 0u);
  EXPECT_GT(stats.events, 0u);
  std::size_t nans = 0;
  for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
    for (std::size_t i = 0; i < ds.truth[t].size(); ++i) {
      if (std::isnan(ds.truth[t].data()[i])) {
        ++nans;
        EXPECT_GT(ds.mask[t].data()[i], 0.5);  // still claims "observed"
      }
    }
  }
  EXPECT_EQ(nans, stats.entries_corrupted);
}

TEST(FaultInjection, StuckAtFreezesRuns) {
  data::TrafficDataset ds = tiny_dataset();
  data::TrafficDataset orig = ds;
  data::FaultInjector inj(10);
  const data::FaultStats stats = inj.stuck_at(ds, 0.4, 10);
  EXPECT_GT(stats.entries_corrupted, 0u);
  EXPECT_EQ(stats.events, 2u);  // 40% of 5 nodes
  // Still finite, and some node now repeats a value it did not before.
  std::size_t changed = 0;
  for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
    EXPECT_FALSE(ds.truth[t].has_non_finite());
    if (!bitwise_equal(ds.truth[t], orig.truth[t])) ++changed;
  }
  EXPECT_GT(changed, 0u);
}

TEST(FaultInjection, SpikeInjectsHugeOutliers) {
  data::TrafficDataset ds = tiny_dataset();
  double peak = 0.0;
  for (const Matrix& x : ds.truth) peak = std::max(peak, x.abs_max());
  data::FaultInjector inj(11);
  const data::FaultStats stats = inj.spike(ds, 0.01, 50.0);
  EXPECT_GT(stats.entries_corrupted, 0u);
  double new_peak = 0.0;
  for (const Matrix& x : ds.truth) new_peak = std::max(new_peak, x.abs_max());
  EXPECT_GE(new_peak, 49.0 * peak);
}

TEST(FaultInjection, DropoutAndFeedGapOnlyTouchMask) {
  data::TrafficDataset ds = tiny_dataset();
  const data::TrafficDataset orig = ds;
  data::FaultInjector inj(12);
  const data::FaultStats drop = inj.sensor_dropout(ds, 0.4, 12);
  const data::FaultStats gap = inj.feed_gap(ds, 6);
  EXPECT_GT(drop.entries_masked, 0u);
  EXPECT_GT(gap.entries_masked, 0u);
  bool some_step_fully_dark = false;
  for (std::size_t t = 0; t < ds.num_timesteps(); ++t) {
    ASSERT_TRUE(bitwise_equal(ds.truth[t], orig.truth[t]));  // values intact
    if (ds.mask[t].sum() == 0.0) some_step_fully_dark = true;
  }
  EXPECT_TRUE(some_step_fully_dark);  // the feed gap really darkened steps
}

TEST(FaultInjection, RejectsBadRates) {
  data::TrafficDataset ds = tiny_dataset();
  data::FaultInjector inj(13);
  EXPECT_THROW((void)inj.nan_burst(ds, 1.5), std::invalid_argument);
  EXPECT_THROW((void)inj.spike(ds, -0.1), std::invalid_argument);
  EXPECT_THROW((void)inj.stuck_at(ds, 2.0, 5), std::invalid_argument);
}

// ---- Training under injected faults ----------------------------------------

// NaN bursts in "observed" entries poison losses/gradients; the guard must
// skip those batches, keep the parameters finite, and report the damage.
TEST(FaultInjection, TrainingSurvivesNanBurstWithGuardCountersFiring) {
  TrainFixture f(/*missing=*/0.2);
  data::FaultInjector inj(31);
  (void)inj.nan_burst(f.ds, 0.05, 4.0);  // inject AFTER normalization
  data::WindowSampler sampler(f.ds, 6, 3);
  baselines::FcLstmModel model(4, f.nb_config());
  core::TrainConfig tc = f.small_tc();
  const core::TrainReport report =
      core::train_model(model, sampler, sampler.split(), tc);
  EXPECT_TRUE(params_all_finite(model));
  EXPECT_GT(report.guard.batches_skipped, 0u);
  EXPECT_GT(report.guard.nonfinite_losses + report.guard.nonfinite_grads, 0u);
}

TEST(FaultInjection, TrainingSurvivesSpikes) {
  TrainFixture f(/*missing=*/0.2);
  data::FaultInjector inj(32);
  (void)inj.spike(f.ds, 0.005, 1e6);
  data::WindowSampler sampler(f.ds, 6, 3);
  baselines::FcLstmModel model(4, f.nb_config());
  core::TrainConfig tc = f.small_tc();
  tc.guard.warmup_steps = 1;
  const core::TrainReport report =
      core::train_model(model, sampler, sampler.split(), tc);
  EXPECT_TRUE(params_all_finite(model));
  EXPECT_EQ(report.epochs_run, tc.max_epochs);
}

TEST(FaultInjection, TrainingSurvivesOutagesAndGaps) {
  TrainFixture f(/*missing=*/0.2);
  data::FaultInjector inj(33);
  (void)inj.stuck_at(f.ds, 0.4, 12);
  (void)inj.sensor_dropout(f.ds, 0.4, 12);
  (void)inj.feed_gap(f.ds, 6);
  data::WindowSampler sampler(f.ds, 6, 3);
  baselines::FcLstmModel model(4, f.nb_config());
  const core::TrainReport report =
      core::train_model(model, sampler, sampler.split(), f.small_tc());
  EXPECT_TRUE(params_all_finite(model));
  EXPECT_EQ(report.epochs_run, 2u);
}

// ---- shared serving-side primitives (core/robust, DESIGN.md §15) -----------
//
// serve::ForecastServer is built on these; the unit tests here pin the
// exact semantics it inherits.

TEST(RobustPrimitives, ScrubNonFiniteReplacesAndCounts) {
  Matrix m(2, 2);
  m(0, 0) = 1.5;
  m(0, 1) = std::numeric_limits<double>::quiet_NaN();
  m(1, 0) = -std::numeric_limits<double>::infinity();
  m(1, 1) = 0.0;
  EXPECT_EQ(core::scrub_non_finite(m, 7.0), 2u);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.5);
  EXPECT_DOUBLE_EQ(m(0, 1), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(m(1, 1), 0.0);
  EXPECT_EQ(core::scrub_non_finite(m), 0u);  // idempotent once clean
}

TEST(RobustPrimitives, SanitizeReadingDemotesAndCoerces) {
  data::TrafficDataset ds = data::generate_pems_like([] {
    data::PemsLikeConfig cfg;
    cfg.num_nodes = 3;
    cfg.num_days = 1;
    cfg.steps_per_day = 24;
    return cfg;
  }());
  const data::ZScoreNormalizer norm(ds, ds.num_timesteps());
  Matrix values(3, ds.num_features());
  Matrix mask(3, ds.num_features());
  for (std::size_t i = 0; i < values.size(); ++i) {
    values.data()[i] = 10.0;
    mask.data()[i] = 1.0;
  }
  values(0, 0) = std::numeric_limits<double>::quiet_NaN();  // observed NaN
  mask(1, 0) = 0.7;   // malformed mask entry, still > 0.5 → observed
  mask(2, 0) = -3.0;  // malformed mask entry, ≤ 0.5 → missing
  Matrix normalized(3, ds.num_features());
  Matrix clean(3, ds.num_features());
  const core::SanitizeCounts c =
      core::sanitize_reading(values, mask, norm, normalized, clean);
  EXPECT_EQ(c.sanitized_entries, 1u);
  EXPECT_EQ(c.coerced_mask_entries, 2u);
  EXPECT_DOUBLE_EQ(clean(0, 0), 0.0);  // NaN value demoted
  EXPECT_DOUBLE_EQ(normalized(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(clean(1, 0), 1.0);  // 0.7 coerced to observed
  EXPECT_DOUBLE_EQ(clean(2, 0), 0.0);  // -3 coerced to missing
  EXPECT_FALSE(normalized.has_non_finite());
}

TEST(RobustPrimitives, StuckDetectorFlagsRunsAndRecovers) {
  core::StuckSensorDetector det(2, /*threshold=*/3);
  Matrix v(2, 1), m(2, 1);
  auto feed = [&](double a, double b) {
    v(0, 0) = a;
    v(1, 0) = b;
    m(0, 0) = m(1, 0) = 1.0;
    return det.observe_and_demote(v, m);
  };
  EXPECT_EQ(feed(5.0, 1.0), 0u);
  EXPECT_EQ(feed(5.0, 2.0), 0u);
  EXPECT_EQ(feed(5.0, 3.0), 1u);  // node 0 hit 3 identical readings
  EXPECT_TRUE(det.flags()[0]);
  EXPECT_FALSE(det.flags()[1]);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.0);  // demoted: row zeroed in the mask
  EXPECT_DOUBLE_EQ(m(1, 0), 1.0);
  // The value moving again un-flags the node immediately.
  EXPECT_EQ(feed(6.0, 4.0), 0u);
  EXPECT_FALSE(det.flags()[0]);
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
}

TEST(RobustPrimitives, StuckDetectorThresholdZeroDisables) {
  core::StuckSensorDetector det(1, /*threshold=*/0);
  Matrix v(1, 1), m(1, 1);
  for (int k = 0; k < 50; ++k) {
    v(0, 0) = 9.0;
    m(0, 0) = 1.0;
    EXPECT_EQ(det.observe_and_demote(v, m), 0u);
  }
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
}

TEST(ReadingBuffer, MatchesSamplerWindowBitForBit) {
  // The buffer's slot formula, warm-up padding and eviction must rebuild
  // exactly the window the offline sampler cuts from the same readings.
  constexpr std::size_t kLookback = 6, kHorizon = 3, kEarly = 3;
  data::TrafficDataset ds = tiny_dataset();
  Rng rng(8);
  data::inject_mcar(ds, 0.3, rng);
  const data::WindowSampler sampler(ds, kLookback, kHorizon);
  const std::size_t t = ds.steps_per_day - 2;  // the window wraps midnight
  const data::Window want = sampler.make_window(t);
  core::ReadingBuffer buf(ds.num_nodes(), ds.num_features(), kLookback,
                          ds.steps_per_day, ds.slot_of(t - kEarly),
                          /*stuck_threshold=*/0);

  // Warm-up: kEarly readings, left-padded with fully-missing steps.
  for (std::size_t k = 0; k < kEarly; ++k) {
    buf.push(ds.observed(t - kEarly + k), ds.mask[t - kEarly + k]);
  }
  data::Window warm = buf.window();
  ASSERT_EQ(warm.x_obs.size(), kLookback);
  ASSERT_EQ(warm.x_mask.size(), kLookback);
  EXPECT_EQ(warm.slot, ds.slot_of(t - kLookback));
  for (std::size_t k = 0; k < kLookback - kEarly; ++k) {
    EXPECT_EQ(warm.x_obs[k].abs_max(), 0.0) << "pad step " << k;
    EXPECT_EQ(warm.x_mask[k].abs_max(), 0.0) << "pad step " << k;
  }
  for (std::size_t k = 0; k < kEarly; ++k) {
    const std::size_t step = kLookback - kEarly + k;
    EXPECT_TRUE(bitwise_equal(warm.x_obs[step], ds.observed(t - kEarly + k)));
    EXPECT_TRUE(bitwise_equal(warm.x_mask[step], ds.mask[t - kEarly + k]));
  }
  EXPECT_TRUE(warm.x_truth.empty());
  EXPECT_TRUE(warm.y.empty());
  EXPECT_TRUE(warm.y_mask.empty());

  // The sampler window's own steps: the kEarly readings are evicted.
  for (std::size_t k = 0; k < kLookback; ++k) {
    buf.push(want.x_obs[k], want.x_mask[k]);
  }
  EXPECT_EQ(buf.seen(), kEarly + kLookback);
  EXPECT_EQ(buf.next_slot(), ds.slot_of(t + kLookback));
  const data::Window got = buf.window();
  EXPECT_EQ(got.slot, want.slot);
  ASSERT_EQ(got.x_obs.size(), kLookback);
  ASSERT_EQ(got.x_mask.size(), kLookback);
  for (std::size_t k = 0; k < kLookback; ++k) {
    EXPECT_TRUE(bitwise_equal(got.x_obs[k], want.x_obs[k])) << "step " << k;
    EXPECT_TRUE(bitwise_equal(got.x_mask[k], want.x_mask[k])) << "step " << k;
  }
}

}  // namespace
}  // namespace rihgcn
