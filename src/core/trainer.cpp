#include "core/trainer.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"

namespace rihgcn::core {

namespace {

std::vector<std::size_t> subsample(const std::vector<std::size_t>& all,
                                   std::size_t cap, Rng& rng) {
  if (cap == 0 || all.size() <= cap) return all;
  // Evenly strided subsample with a random phase: keeps temporal coverage
  // (pure random subsets can cluster in one part of the timeline).
  std::vector<std::size_t> out;
  out.reserve(cap);
  const double stride = static_cast<double>(all.size()) / static_cast<double>(cap);
  const double phase = rng.uniform(0.0, stride);
  for (std::size_t k = 0; k < cap; ++k) {
    const auto idx = static_cast<std::size_t>(phase + stride * static_cast<double>(k));
    out.push_back(all[std::min(idx, all.size() - 1)]);
  }
  return out;
}

/// Forward/backward over batch windows [pos, batch_end) with per-worker
/// batch granularity on `pool` (one persistent crew per train_model call —
/// no thread spawn/join per batch). Chunk w of the grain-1 parallel_for IS
/// worker w: it owns a private gradient sink, a private arena tape from
/// `tapes` (reused via reset() across windows and batches), and the strided
/// item slice {w, w+workers, ...}. Because chunk bodies run under
/// the pool's reentrancy guard, every tensor kernel inside executes inline —
/// all parallelism is at batch granularity, none is wasted on intra-kernel
/// splits that BENCH_micro.json showed going flat. Sinks reduce into the
/// parameters in ascending worker order, and kernel results are
/// thread-count-invariant by the DESIGN.md §8 contract, so the result is
/// bitwise identical to any schedule with the same `workers` count (the
/// checkpoint determinism contract keys on num_threads for the slice
/// assignment alone). Returns the summed batch loss.
///
/// Partitioned mode (`ct` non-null, DESIGN.md §13): each batch window
/// expands into `cmult` work items, one per cluster, enumerated as
/// p = (b - pos) * cmult + c so consecutive items interleave clusters of the
/// same window across workers. With ct == nullptr / cmult == 1 the item
/// enumeration degenerates to exactly the original per-window slices.
double parallel_batch_gradients(ForecastModel& model, ClusterTrainable* ct,
                                std::size_t cmult,
                                const data::WindowSampler& sampler,
                                const std::vector<std::size_t>& train_idx,
                                const std::vector<std::size_t>& order,
                                std::size_t pos, std::size_t batch_end,
                                std::size_t workers, ThreadPool& pool,
                                std::vector<std::unique_ptr<ad::Tape>>& tapes) {
  const std::size_t items = (batch_end - pos) * cmult;
  workers = std::min(workers, items);
  while (tapes.size() < workers) {
    tapes.push_back(std::make_unique<ad::Tape>());
  }
  std::vector<ad::Tape::GradSink> sinks(workers);
  std::vector<double> losses(workers, 0.0);
  pool.parallel_for(0, workers, 1, [&](std::size_t w, std::size_t) {
    for (std::size_t p = w; p < items; p += workers) {
      const std::size_t b = pos + p / cmult;
      const data::Window window = sampler.make_window(train_idx[order[b]]);
      ad::Tape& tape = *tapes[w];
      tape.reset();
      ad::Var loss = ct == nullptr
                         ? model.training_loss(tape, window)
                         : ct->cluster_training_loss(tape, window, p % cmult);
      losses[w] += tape.value(loss)(0, 0);
      tape.backward_into(loss, sinks[w]);
    }
  });
  double total_loss = 0.0;
  for (std::size_t w = 0; w < workers; ++w) {
    total_loss += losses[w];
    for (auto& [param, grad] : sinks[w]) param->grad() += grad;
  }
  return total_loss;
}

}  // namespace

TrainReport train_model(ForecastModel& model,
                        const data::WindowSampler& sampler,
                        const data::SplitIndices& split,
                        const TrainConfig& config) {
  if (split.train.empty()) {
    throw std::invalid_argument("train_model: empty training split");
  }
  if (config.batch_size == 0) {
    throw std::invalid_argument("train_model: batch_size must be > 0");
  }
  if (config.max_epochs == 0) {
    throw std::invalid_argument("train_model: max_epochs must be > 0");
  }
  if (config.num_threads == 0) {
    throw std::invalid_argument(
        "train_model: num_threads must be > 0 (1 = serial)");
  }
  if (config.resume && config.checkpoint_path.empty()) {
    throw std::invalid_argument(
        "train_model: resume requires a checkpoint_path");
  }
  // Partitioned mode (DESIGN.md §13): resolve the capability up front so a
  // misconfigured model fails fast, before any epoch runs.
  ClusterTrainable* ct = nullptr;
  std::size_t cmult = 1;
  if (config.num_clusters > 1) {
    ct = dynamic_cast<ClusterTrainable*>(&model);
    if (ct == nullptr) {
      throw std::invalid_argument(
          "train_model: num_clusters > 1 requires a ClusterTrainable model");
    }
    ct->prepare_clusters(config.num_clusters, config.seed);
    cmult = ct->num_clusters();
    if (cmult <= 1) {  // model declined to partition (e.g. tiny graph)
      ct = nullptr;
      cmult = 1;
    }
  }
  Rng rng(config.seed);
  const std::vector<std::size_t> train_idx =
      subsample(split.train, config.max_train_windows, rng);
  const std::vector<std::size_t> val_idx =
      subsample(split.val, config.max_val_windows, rng);
  // No validation data: degrade to fixed-epoch training (documented in
  // trainer.hpp) — there is no metric to early-stop on or to pick a "best"
  // epoch by, so all epochs run and the final parameters are kept.
  const bool has_val = !val_idx.empty();

  std::vector<ad::Parameter*> params = model.parameters();
  nn::AdamOptimizer::Config opt_cfg;
  opt_cfg.lr = config.learning_rate;
  opt_cfg.max_grad_norm = config.max_grad_norm;
  nn::AdamOptimizer optimizer(params, opt_cfg);
  nn::EarlyStopping stopper(config.patience);
  NumericalGuard guard(params, optimizer, config.guard);

  TrainReport report;
  std::vector<Matrix> best_snapshot = nn::snapshot_values(params);
  std::size_t start_epoch = 0;
  if (config.resume) {
    const nn::TrainCheckpoint ckpt =
        nn::load_training_checkpoint(config.checkpoint_path, params);
    if (ckpt.batch_size != config.batch_size ||
        ckpt.num_threads != config.num_threads || ckpt.seed != config.seed) {
      throw std::runtime_error(
          "train_model: checkpoint determinism contract mismatch "
          "(batch_size/num_threads/seed differ from the saved run)");
    }
    rng.set_state(ckpt.rng);
    optimizer.set_state(ckpt.adam);
    stopper.restore(ckpt.stopper_best, ckpt.stopper_bad_epochs);
    GuardState gs;
    gs.loss_ema = ckpt.guard_loss_ema;
    gs.ema_initialized = ckpt.guard_ema_initialized;
    gs.good_steps = ckpt.guard_good_steps;
    gs.consecutive_bad = ckpt.guard_consecutive_bad;
    gs.backoffs_used = ckpt.guard_backoffs_used;
    guard.set_state(gs);
    if (!ckpt.best_values.empty()) best_snapshot = ckpt.best_values;
    start_epoch = ckpt.epoch;
    report.resumed_epoch = ckpt.epoch;
  }
  const auto write_checkpoint = [&](std::size_t completed_epochs) {
    nn::TrainCheckpoint ckpt;
    ckpt.epoch = completed_epochs;
    ckpt.batch_size = config.batch_size;
    ckpt.num_threads = config.num_threads;
    ckpt.seed = config.seed;
    ckpt.rng = rng.state();
    ckpt.adam = optimizer.state();
    ckpt.stopper_best = stopper.best();
    ckpt.stopper_bad_epochs = stopper.bad_epochs();
    const GuardState& gs = guard.state();
    ckpt.guard_loss_ema = gs.loss_ema;
    ckpt.guard_ema_initialized = gs.ema_initialized;
    ckpt.guard_good_steps = gs.good_steps;
    ckpt.guard_consecutive_bad = gs.consecutive_bad;
    ckpt.guard_backoffs_used = gs.backoffs_used;
    ckpt.best_values = best_snapshot;
    nn::save_training_checkpoint(config.checkpoint_path, ckpt, params);
    ++report.checkpoints_written;
  };
  // Arena tapes, hoisted out of the epoch/batch loops: reset() recycles node
  // slots and Matrix buffers, so steady-state training steps allocate
  // (almost) nothing (DESIGN.md §10). One tape per worker; the serial path
  // trains on the first, and validation forecasts on them too.
  std::vector<std::unique_ptr<ad::Tape>> worker_tapes;
  worker_tapes.push_back(std::make_unique<ad::Tape>());
  ad::Tape& serial_tape = *worker_tapes.front();
  // Dedicated persistent crew for the data-parallel batch workers and the
  // validation forecasts, sized to the configured count (NOT the global
  // pool: its size is a determinism input recorded in checkpoints, so it
  // must not be clamped or shared). Constructed once per training run; a
  // size-1 pool spawns no threads.
  ThreadPool batch_pool(config.num_threads);
  const std::size_t checkpoint_every =
      std::max<std::size_t>(1, config.checkpoint_every);
  for (std::size_t epoch = start_epoch; epoch < config.max_epochs; ++epoch) {
    if (has_val && stopper.should_stop()) {
      // Resumed from a checkpoint whose patience budget was already spent.
      report.early_stopped = true;
      break;
    }
    // ---- One training epoch ---------------------------------------------
    std::vector<std::size_t> order = rng.permutation(train_idx.size());
    double epoch_loss = 0.0;
    std::size_t batches = 0;
    for (std::size_t pos = 0; pos < order.size();
         pos += config.batch_size) {
      const std::size_t batch_end =
          std::min(order.size(), pos + config.batch_size);
      optimizer.zero_grad();
      double batch_loss = 0.0;
      if (config.num_threads <= 1) {
        for (std::size_t b = pos; b < batch_end; ++b) {
          const data::Window w = sampler.make_window(train_idx[order[b]]);
          for (std::size_t c = 0; c < cmult; ++c) {
            serial_tape.reset();
            ad::Var loss = ct == nullptr
                               ? model.training_loss(serial_tape, w)
                               : ct->cluster_training_loss(serial_tape, w, c);
            batch_loss += serial_tape.value(loss)(0, 0);
            serial_tape.backward(loss);
          }
        }
      } else {
        batch_loss = parallel_batch_gradients(
            model, ct, cmult, sampler, train_idx, order, pos, batch_end,
            config.num_threads, batch_pool, worker_tapes);
      }
      // Average the accumulated gradient over the batch's work items (one
      // per window, or per (window, cluster) pair in partitioned mode).
      const double inv = 1.0 / static_cast<double>((batch_end - pos) * cmult);
      for (ad::Parameter* p : params) p->grad() *= inv;
      if (guard.inspect(batch_loss * inv) ==
          NumericalGuard::Verdict::kSkipBatch) {
        continue;  // vetoed: no step; guard handled backoff / rollback
      }
      optimizer.step();
      guard.after_step();
      epoch_loss += batch_loss * inv;
      ++batches;
    }
    report.train_losses.push_back(epoch_loss /
                                  static_cast<double>(std::max<std::size_t>(1, batches)));

    // ---- Validation -----------------------------------------------------------
    // Forecasts run on the batch crew, one worker tape each, and are scored
    // in window order: the MAE is bitwise the serial evaluate_prediction's.
    double val_mae;
    if (!has_val) {
      val_mae = report.train_losses.back();  // degenerate: no val data
    } else {
      val_mae = evaluate_prediction(model, sampler, val_idx,
                                    /*normalizer=*/nullptr, batch_pool,
                                    worker_tapes)
                    .mae;
    }
    report.val_maes.push_back(val_mae);
    ++report.epochs_run;
    if (config.verbose) {
      std::printf("  [%s] epoch %zu: train %.4f, val MAE %.4f\n",
                  model.name().c_str(), epoch + 1,
                  report.train_losses.back(), val_mae);
    }
    if (has_val) {
      if (stopper.update(val_mae)) {
        best_snapshot = nn::snapshot_values(params);
      }
      if (stopper.should_stop()) {
        report.early_stopped = true;
        if (!config.checkpoint_path.empty()) write_checkpoint(epoch + 1);
        break;
      }
    }
    if (!config.checkpoint_path.empty() &&
        ((epoch + 1 - start_epoch) % checkpoint_every == 0 ||
         epoch + 1 == config.max_epochs)) {
      write_checkpoint(epoch + 1);
    }
  }
  if (has_val && config.restore_best && !params.empty()) {
    nn::restore_values(best_snapshot, params);
  }
  report.best_val_mae =
      has_val ? stopper.best()
              : (report.train_losses.empty() ? 0.0 : report.train_losses.back());
  report.guard = guard.counters();
  return report;
}

}  // namespace rihgcn::core
