#include "core/sharded_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "tensor/parallel.hpp"

namespace rihgcn::core {

ShardedEngine::ShardedEngine(const RihgcnModel& model, Options options)
    : horizon_(model.config().horizon), parallel_(options.parallel) {
  if (options.num_shards == 0) {
    throw std::invalid_argument("ShardedEngine: num_shards must be >= 1");
  }
  InferenceEngine::Options eo;
  eo.max_batch = 1;  // one window, split by NODES — not by batch
  for (RihgcnModel::ClusterSpec& spec :
       model.make_clusters(options.num_shards, options.seed)) {
    Shard sh;
    sh.engine = std::make_unique<InferenceEngine>(model, eo, spec.laps);
    sh.ws = sh.engine->make_workspace();
    spec.laps = {};  // compiled to f32; free the f64 sub-CSRs shard by shard
    sh.nodes = std::move(spec.nodes);
    sh.owned_row = std::move(spec.owned_row);
    n_ += spec.num_owned;  // owned sets partition the nodes
    shards_.push_back(std::move(sh));
  }
}

Matrix ShardedEngine::predict(const data::Window& w) {
  const auto full_rows = [this](const std::vector<Matrix>& ms) {
    return std::all_of(ms.begin(), ms.end(),
                       [this](const Matrix& m) { return m.rows() == n_; });
  };
  if (!full_rows(w.x_obs) || !full_rows(w.x_mask)) {
    throw std::invalid_argument(
        "ShardedEngine::predict: window must have one row per graph node");
  }
  Matrix out(n_, horizon_);
  auto run = [&](std::size_t s0, std::size_t s1) {
    for (std::size_t s = s0; s < s1; ++s) {
      Shard& sh = shards_[s];
      // Forward this shard's rows of the window through its sub-engine,
      // scatter only the OWNED rows — owned sets partition the nodes, so
      // the writes below are disjoint across shards (race-free in parallel).
      const FMatrix& pred = sh.engine->predict_rows(w, sh.nodes, sh.ws);
      for (std::size_t r = 0; r < sh.nodes.size(); ++r) {
        if (!sh.owned_row[r]) continue;
        for (std::size_t h = 0; h < horizon_; ++h) {
          out(sh.nodes[r], h) = static_cast<double>(pred(r, h));
        }
      }
    }
  };
  if (parallel_ && shards_.size() > 1) {
    // Grain 1: one shard per task. Shard bodies run with
    // in_parallel_region() set, so the sub-engines' kernels stay serial —
    // no nested pool dispatch, and bits identical to the serial path.
    ThreadPool::global().parallel_for(0, shards_.size(), 1, run);
  } else {
    run(0, shards_.size());
  }
  return out;
}

}  // namespace rihgcn::core
