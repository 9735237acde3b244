// Mini-batch trainer shared by RIHGCN and every neural baseline: Adam with
// gradient clipping (paper §IV-B3: lr 1e-3, batch 64), early stopping on
// validation MAE with patience 6, and best-epoch parameter restoration.
//
// Mini-batching with a per-sample tape: gradients from `batch_size` windows
// accumulate into the parameters (Tape::backward does not zero them), then
// one optimizer step is applied to the averaged gradient.
//
// Fault tolerance (DESIGN.md §11): every step runs behind a NumericalGuard
// (non-finite loss/gradient and loss-spike detection with batch skipping,
// bounded LR backoff, and snapshot rollback), and the loop can write durable
// CRC-verified checkpoints and resume from them bitwise-identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/model.hpp"
#include "core/robust.hpp"
#include "data/windows.hpp"
#include "nn/optim.hpp"

namespace rihgcn::core {

struct TrainConfig {
  std::size_t max_epochs = 30;
  std::size_t batch_size = 8;   ///< must be > 0 (validated)
  double learning_rate = 1e-3;
  double max_grad_norm = 5.0;
  std::size_t patience = 6;  ///< early-stopping patience (paper: 6)
  /// Random subsample caps keeping CPU budgets sane; 0 = use everything.
  std::size_t max_train_windows = 0;
  std::size_t max_val_windows = 0;
  bool verbose = false;
  std::uint64_t seed = 1234;
  /// Restore the best-validation parameters at the end.
  bool restore_best = true;
  /// Data-parallel workers per mini-batch; must be > 0 (validated). Each
  /// worker runs forward/backward for a slice of the batch into a private
  /// gradient sink; sinks are reduced in worker order, so results are
  /// deterministic for a fixed thread count (floating-point addition order
  /// changes with it). The same workers forecast the validation windows,
  /// scored in window order, so the validation MAE does not depend on it.
  std::size_t num_threads = 1;
  /// Numerical health guard (see core/robust.hpp). Enabled by default; on
  /// healthy data it never intervenes and its counters stay zero.
  GuardConfig guard;
  /// Durable checkpointing: when non-empty, a rihgcn-train-ckpt v2 file is
  /// written here after every `checkpoint_every` completed epochs (and after
  /// the final epoch). Writes are atomic (temp file + rename).
  std::string checkpoint_path;
  std::size_t checkpoint_every = 1;
  /// Resume from `checkpoint_path` before training. The checkpoint must
  /// match this config's batch_size / num_threads / seed (determinism
  /// contract — see DESIGN.md §11); training continues at the saved epoch
  /// and, on a clean run, ends with parameters bitwise identical to an
  /// uninterrupted run.
  bool resume = false;
  /// Partitioned (Cluster-GCN-style) training, DESIGN.md §13: when > 1 the
  /// model must implement ClusterTrainable (validated with dynamic_cast,
  /// std::invalid_argument otherwise). prepare_clusters(num_clusters, seed)
  /// runs once before the epoch loop, and each batch window expands into one
  /// work item per (window, cluster) pair; the gradient is averaged over
  /// items, so a full sweep of clusters covers every owned node exactly
  /// once. 0 or 1 = standard full-graph training (bitwise unchanged). The
  /// value is part of the determinism contract but is NOT serialized into
  /// checkpoints — resuming with a different num_clusters is undefined.
  std::size_t num_clusters = 0;
};

struct TrainReport {
  std::size_t epochs_run = 0;  ///< epochs executed THIS run (excl. resumed)
  double best_val_mae = 0.0;
  bool early_stopped = false;
  std::vector<double> train_losses;  ///< mean per epoch (accepted batches)
  std::vector<double> val_maes;      ///< per epoch (normalized units)
  /// Numerical-guard activity (all zero on a clean run).
  GuardCounters guard;
  std::size_t checkpoints_written = 0;
  /// Epoch the run resumed from (0 when starting fresh).
  std::size_t resumed_epoch = 0;
};

/// Train `model` on the train split, early-stop on the validation split.
///
/// Degenerate splits: an empty training split throws std::invalid_argument.
/// An EMPTY VALIDATION split degrades to fixed-epoch training — early
/// stopping and best-epoch restoration are disabled (there is no metric to
/// monitor), all `max_epochs` epochs run, the final parameters are kept, and
/// `val_maes`/`best_val_mae` mirror the training loss for observability.
TrainReport train_model(ForecastModel& model,
                        const data::WindowSampler& sampler,
                        const data::SplitIndices& split,
                        const TrainConfig& config);

}  // namespace rihgcn::core
