#include "core/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

#include "tensor/parallel.hpp"
#include "tensor/simd.hpp"

namespace rihgcn::core {

namespace {

/// C += A·B on raw f32 buffers. `threads` is the Options::num_threads
/// scheduling hint: 0 = adaptive (dispatch only past the ParallelTuning
/// flop thresholds, the fixed-chunk fmatmul_accumulate rule), 1 = serial,
/// K > 1 = always dispatch with row grain ceil(rows / K). Thread-count
/// invariant either way: each output row is computed whole inside one
/// kernel call, so results are independent of chunking.
void gemm_acc(const float* a, std::size_t rows, std::size_t k, const float* b,
              std::size_t m, float* c, std::size_t threads) {
  if (rows == 0 || k == 0 || m == 0) return;
  const simd::Kernels& kern = simd::active_kernels();
  bool dispatch = false;
  std::size_t grain = ParallelTuning::matmul_row_grain;
  if (threads != 1 && !ThreadPool::in_parallel_region()) {
    if (threads == 0) {
      const std::size_t flops = rows * k * m;
      dispatch = flops >= ParallelTuning::min_matmul_flops;
    } else {
      dispatch = true;
      grain = (rows + threads - 1) / threads;
    }
  }
  if (!dispatch) {
    kern.smatmul_rows(a, b, c, k, m, 0, rows);
    return;
  }
  ThreadPool::global().parallel_for(
      0, rows, grain, [&](std::size_t i0, std::size_t i1) {
        kern.smatmul_rows(a, b, c, k, m, i0, i1);
      });
}

/// c[r, :] += bias[0, :] for every row.
void add_bias_rows(float* c, const float* bias, std::size_t rows,
                   std::size_t m) {
  for (std::size_t r = 0; r < rows; ++r) {
    float* row = c + r * m;
    for (std::size_t j = 0; j < m; ++j) row[j] += bias[j];
  }
}

FMatrix to_f32(const Matrix& m) { return FMatrix::from(m); }

}  // namespace

// ---- compilation -----------------------------------------------------------

InferenceEngine::InferenceEngine(const RihgcnModel& model, Options options)
    : InferenceEngine(model, options, model.laps_) {}

InferenceEngine::InferenceEngine(const RihgcnModel& model, Options options,
                                 const HgcnBlock::Laps& laps) {
  // parameters() and the module accessors are logically const (a forward
  // compile never mutates the model); the Module interface just predates a
  // const overload.
  RihgcnModel& m = const_cast<RihgcnModel&>(model);
  const RihgcnConfig& cfg = m.config_;
  n_ = laps.geo.rows();
  f_ = m.num_features_;
  lookback_ = cfg.lookback;
  horizon_ = cfg.horizon;
  gcn_dim_ = cfg.gcn_dim;
  lstm_dim_ = cfg.lstm_dim;
  cheb_order_ = cfg.cheb_order;
  bidirectional_ = cfg.bidirectional;
  attention_head_ = cfg.head == RihgcnConfig::Head::kAttention;
  cell_ = cfg.cell;
  z_width_ = (bidirectional_ ? 2 : 1) * (gcn_dim_ + lstm_dim_);
  steps_per_day_ = m.graphs_.steps_per_day();
  max_batch_ = options.max_batch;
  num_threads_ = options.num_threads;
  if (max_batch_ == 0) {
    throw std::invalid_argument("InferenceEngine: max_batch must be >= 1");
  }

  if (n_ == 0) {
    throw std::invalid_argument(
        "InferenceEngine: graph node count must be >= 1");
  }
  geo_op_ = compile_csr_op(laps.geo);
  temporal_ops_.reserve(laps.temporal.size());
  for (const CsrMatrix& lap : laps.temporal) {
    temporal_ops_.push_back(compile_csr_op(lap));
  }

  const std::size_t per_gcn = cheb_order_ + 1;  // K thetas + bias
  const std::size_t num_temporal = temporal_ops_.size();
  auto parse_hgcn = [&](HgcnBlock& block, std::size_t in_dim) {
    // HgcnBlock::parameters() ordering: geo layer first, then each temporal
    // layer; within a ChebGcnLayer: theta_0..theta_{K-1}, bias.
    const std::vector<ad::Parameter*> params = block.parameters();
    if (params.size() != per_gcn * (1 + num_temporal)) {
      throw std::logic_error("InferenceEngine: unexpected HGCN parameter count");
    }
    HgcnPlan plan;
    plan.in_dim = in_dim;
    plan.geo = compile_gcn(params, 0, cheb_order_);
    plan.temporal.reserve(num_temporal);
    for (std::size_t t = 0; t < num_temporal; ++t) {
      plan.temporal.push_back(
          compile_gcn(params, (t + 1) * per_gcn, cheb_order_));
    }
    return plan;
  };
  hgcn1_ = parse_hgcn(m.hgcn_, f_);
  if (m.hgcn2_) {
    has_hgcn2_ = true;
    hgcn2_ = parse_hgcn(*m.hgcn2_, gcn_dim_);
  }

  // Cell parameters() ordering: {w_ih, w_hh, bias}; Linear: {weight, bias}.
  auto parse_dir = [&](nn::RecurrentCell& cell, nn::Linear& est) {
    const auto cp = cell.parameters();
    const auto ep = est.parameters();
    DirPlan dir;
    dir.w_ih = to_f32(cp.at(0)->value());
    dir.w_hh = to_f32(cp.at(1)->value());
    dir.bias = to_f32(cp.at(2)->value());
    dir.est_w = to_f32(ep.at(0)->value());
    dir.est_b = to_f32(ep.at(1)->value());
    return dir;
  };
  fwd_ = parse_dir(*m.rnn_fwd_, m.est_fwd_);
  if (bidirectional_) bwd_ = parse_dir(*m.rnn_bwd_, m.est_bwd_);

  head_w_ = to_f32(m.head_.parameters().at(0)->value());
  head_b_ = to_f32(m.head_.parameters().at(1)->value());
  if (attention_head_) {
    attn_w_ = to_f32(m.attn_score_.parameters().at(0)->value());
    attn_b_ = to_f32(m.attn_score_.parameters().at(1)->value());
  }

  const std::size_t num_m = temporal_ops_.size();
  interval_w_.resize(steps_per_day_ * num_m);
  for (std::size_t slot = 0; slot < steps_per_day_; ++slot) {
    const std::vector<double> w = m.graphs_.interval_weights(slot);
    for (std::size_t t = 0; t < num_m; ++t) {
      interval_w_[slot * num_m + t] = w[t];
    }
  }

  scratch_ = make_workspace();
}

InferenceEngine::GraphOp InferenceEngine::compile_csr_op(
    const CsrMatrix& lap) const {
  // Transposed-dense cutover: the CSR apply costs ~nnz·width gather-bound
  // MACs, the transposed GEMM width·N²/8 streaming ones — break-even near
  // 1/8 density. The N cap bounds the materialized L̃ᵀ (≤ 16 MiB f32);
  // city-scale k-NN graphs sit far below the density bar anyway.
  if (lap.rows() != n_ || lap.cols() != n_) {
    throw std::invalid_argument(
        "InferenceEngine: every Laplacian must be N x N");
  }
  GraphOp op;
  if (n_ <= 2048 && lap.nnz() * 8 > n_ * n_) {
    // lapT(j, i) = L̃(i, j), narrowed entry-wise exactly as FCsrMatrix::from
    // would — both paths consume the same f32 values.
    op.dense_t = true;
    op.lapT = FMatrix(n_, n_);
    const auto& ptr = lap.row_ptr();
    const auto& idx = lap.col_idx();
    const auto& val = lap.values();
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t p = ptr[i]; p < ptr[i + 1]; ++p) {
        op.lapT(idx[p], i) = static_cast<float>(val[p]);
      }
    }
  } else {
    op.sparse = true;
    op.csr = FCsrMatrix::from(lap);
    op.csr_batch = FCsrMatrix::block_diagonal(op.csr, max_batch_);
  }
  return op;
}

InferenceEngine::GcnPlan InferenceEngine::compile_gcn(
    const std::vector<ad::Parameter*>& params, std::size_t offset,
    std::size_t order) {
  GcnPlan plan;
  plan.theta.reserve(order);
  for (std::size_t k = 0; k < order; ++k) {
    plan.theta.push_back(to_f32(params.at(offset + k)->value()));
  }
  plan.bias = to_f32(params.at(offset + order)->value());
  return plan;
}

InferenceEngine::Workspace InferenceEngine::make_workspace() const {
  Workspace ws;
  const std::size_t rows = max_batch_ * n_;
  const std::size_t cheb_width = std::max(f_, gcn_dim_);
  ws.xobs.reserve(lookback_);
  ws.mask.reserve(lookback_);
  ws.zcat.reserve(lookback_);
  for (std::size_t t = 0; t < lookback_; ++t) {
    ws.xobs.emplace_back(rows, f_);
    ws.mask.emplace_back(rows, f_);
    ws.zcat.emplace_back(rows, z_width_);
  }
  ws.est = FMatrix(rows, f_);
  ws.comp = FMatrix(rows, f_);
  ws.cheb_a = FMatrix(rows, cheb_width);
  ws.cheb_b = FMatrix(rows, cheb_width);
  ws.cheb_p = FMatrix(rows, cheb_width);
  ws.lap_xt = FMatrix(cheb_width, n_);
  ws.lap_ot = FMatrix(cheb_width, n_);
  ws.s = FMatrix(rows, gcn_dim_);
  ws.s2 = FMatrix(rows, gcn_dim_);
  ws.gcn_tmp = FMatrix(rows, gcn_dim_);
  ws.rnn_in = FMatrix(rows, gcn_dim_ + f_);
  ws.gates = FMatrix(rows, 4 * lstm_dim_);
  ws.gates_h = FMatrix(rows, 4 * lstm_dim_);
  ws.h = FMatrix(rows, lstm_dim_);
  ws.c = FMatrix(rows, lstm_dim_);
  ws.zdir = FMatrix(rows, gcn_dim_ + lstm_dim_);
  ws.scores = FMatrix(rows, lookback_);
  ws.mixed = FMatrix(rows, z_width_);
  ws.pred = FMatrix(rows, horizon_);
  ws.slots.assign(max_batch_ * lookback_, 0);
  return ws;
}

// ---- forward ---------------------------------------------------------------

void InferenceEngine::apply_lap(const GraphOp& g, const float* x, float* out,
                                std::size_t batch, std::size_t width,
                                Workspace& ws) const {
  const std::size_t rows = batch * n_;
  const simd::Kernels& kern = simd::active_kernels();
  if (g.sparse) {
    std::fill(out, out + rows * width, 0.0f);
    const std::size_t* ptr = g.csr_batch.row_ptr().data();
    const std::size_t* idx = g.csr_batch.col_idx().data();
    const float* val = g.csr_batch.values().data();
    // Same num_threads scheduling contract as gemm_acc: 0 adaptive on the
    // nnz-proportional work estimate, 1 serial, K always-dispatch.
    bool dispatch = false;
    std::size_t grain = ParallelTuning::matmul_row_grain;
    if (num_threads_ != 1 && !ThreadPool::in_parallel_region()) {
      if (num_threads_ == 0) {
        const std::size_t work = g.csr.nnz() * batch * width;
        dispatch = work >= ParallelTuning::min_matmul_flops;
      } else {
        dispatch = true;
        grain = (rows + num_threads_ - 1) / num_threads_;
      }
    }
    if (!dispatch) {
      kern.sspmm_rows(ptr, idx, val, x, out, width, 0, rows);
      return;
    }
    ThreadPool::global().parallel_for(
        0, rows, grain, [&](std::size_t i0, std::size_t i1) {
          kern.sspmm_rows(ptr, idx, val, x, out, width, i0, i1);
        });
    return;
  }
  // Transposed dense path, one GEMM per diagonal block: outᵀ_b = xᵀ_b·L̃ᵀ
  // keeps the vectorized dimension N wide instead of `width` (typically 4
  // or 8). Each block's rows only see that block's inputs, so this is
  // bitwise-equal to B separate forwards; per element the accumulation is
  // the same ascending-k FMA order as the CSR path (exact-zero terms
  // included, which leave the accumulator bitwise unchanged).
  float* xt = ws.lap_xt.data();
  float* ot = ws.lap_ot.data();
  for (std::size_t b = 0; b < batch; ++b) {
    const float* xb = x + b * n_ * width;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < width; ++j) xt[j * n_ + i] = xb[i * width + j];
    }
    std::fill(ot, ot + width * n_, 0.0f);
    kern.smatmul_panel(xt, g.lapT.data(), ot, width, n_, n_);
    float* ob = out + b * n_ * width;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = 0; j < width; ++j) ob[i * width + j] = ot[j * n_ + i];
    }
  }
}

void InferenceEngine::run_gcn(const GcnPlan& gcn, const GraphOp& graph,
                              const float* x, std::size_t in_dim, FMatrix& out,
                              Workspace& ws, std::size_t batch) const {
  const std::size_t rows = batch * n_;
  // Chebyshev recurrence z_0 = x, z_1 = L̃x, z_k = 2 L̃ z_{k-1} − z_{k-2},
  // accumulating Σ z_k Θ_k into `out` (caller zeroes it) as each term lands.
  gemm_acc(x, rows, in_dim, gcn.theta[0].data(), gcn_dim_, out.data(),
           num_threads_);
  const float* prev2 = x;
  const float* prev = nullptr;
  if (cheb_order_ > 1) {
    apply_lap(graph, x, ws.cheb_a.data(), batch, in_dim, ws);
    gemm_acc(ws.cheb_a.data(), rows, in_dim, gcn.theta[1].data(), gcn_dim_,
             out.data(), num_threads_);
    prev = ws.cheb_a.data();
  }
  for (std::size_t k = 2; k < cheb_order_; ++k) {
    apply_lap(graph, prev, ws.cheb_p.data(), batch, in_dim, ws);
    // Reuse the z_{k-2} buffer for z_k — unless z_{k-2} is the caller's
    // input x, which must stay intact (k == 2 targets cheb_b).
    float* dst =
        prev2 == x ? ws.cheb_b.data() : const_cast<float*>(prev2);
    const float* p = ws.cheb_p.data();
    for (std::size_t i = 0; i < rows * in_dim; ++i) {
      dst[i] = 2.0f * p[i] - prev2[i];
    }
    gemm_acc(dst, rows, in_dim, gcn.theta[k].data(), gcn_dim_, out.data(),
             num_threads_);
    prev2 = prev;
    prev = dst;
  }
  add_bias_rows(out.data(), gcn.bias.data(), rows, gcn_dim_);
}

void InferenceEngine::run_hgcn(const HgcnPlan& plan, const float* x,
                               FMatrix& out, Workspace& ws, std::size_t batch,
                               std::size_t step) const {
  const std::size_t rows = batch * n_;
  const std::size_t num_m = temporal_ops_.size();
  const simd::Kernels& kern = simd::active_kernels();
  std::fill(out.data(), out.data() + rows * gcn_dim_, 0.0f);
  run_gcn(plan.geo, geo_op_, x, plan.in_dim, out, ws, batch);
  for (std::size_t t = 0; t < num_m; ++t) {
    // Per-window mixture weights: the tape path skips graph m entirely when
    // its weight is negligible, so the batched path must apply the skip per
    // diagonal block (and may skip the whole GCN when no window needs it).
    bool any = false;
    for (std::size_t b = 0; b < batch && !any; ++b) {
      const std::size_t slot = ws.slots[b * lookback_ + step];
      any = interval_w_[slot * num_m + t] > 1e-8;
    }
    if (!any) continue;
    std::fill(ws.gcn_tmp.data(), ws.gcn_tmp.data() + rows * gcn_dim_, 0.0f);
    run_gcn(plan.temporal[t], temporal_ops_[t], x, plan.in_dim, ws.gcn_tmp,
            ws, batch);
    for (std::size_t b = 0; b < batch; ++b) {
      const std::size_t slot = ws.slots[b * lookback_ + step];
      const double w = interval_w_[slot * num_m + t];
      if (w <= 1e-8) continue;
      kern.saxpy(out.data() + b * n_ * gcn_dim_, static_cast<float>(w),
                 ws.gcn_tmp.data() + b * n_ * gcn_dim_, n_ * gcn_dim_);
    }
  }
  float* o = out.data();
  for (std::size_t i = 0; i < rows * gcn_dim_; ++i) {
    o[i] = o[i] > 0.0f ? o[i] : 0.0f;
  }
}

void InferenceEngine::run_direction(const DirPlan& dir, Workspace& ws,
                                    std::size_t batch, bool reverse,
                                    std::size_t col0) const {
  const std::size_t rows = batch * n_;
  const std::size_t p = gcn_dim_, hdim = lstm_dim_, f = f_;
  const std::size_t gates_w = (cell_ == nn::CellKind::kLstm ? 4 : 3) * hdim;
  const simd::Kernels& kern = simd::active_kernels();
  std::fill(ws.h.data(), ws.h.data() + rows * hdim, 0.0f);
  std::fill(ws.c.data(), ws.c.data() + rows * hdim, 0.0f);
  bool have_est = false;

  for (std::size_t k = 0; k < lookback_; ++k) {
    const std::size_t t = reverse ? lookback_ - 1 - k : k;
    const float* xo = ws.xobs[t].data();
    const float* mk = ws.mask[t].data();
    float* cp = ws.comp.data();
    if (!have_est) {
      // First visited step: X̂ is zero, so the complement is just x_obs.
      std::memcpy(cp, xo, rows * f * sizeof(float));
    } else {
      const float* e = ws.est.data();
      for (std::size_t i = 0; i < rows * f; ++i) {
        cp[i] = xo[i] + (1.0f - mk[i]) * e[i];
      }
    }
    run_hgcn(hgcn1_, cp, ws.s, ws, batch, t);
    const float* sfeat = ws.s.data();
    if (has_hgcn2_) {
      run_hgcn(hgcn2_, ws.s.data(), ws.s2, ws, batch, t);
      sfeat = ws.s2.data();
    }
    // rnn input [s_t | m_t]
    float* rin = ws.rnn_in.data();
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(rin + r * (p + f), sfeat + r * p, p * sizeof(float));
      std::memcpy(rin + r * (p + f) + p, mk + r * f, f * sizeof(float));
    }
    std::fill(ws.gates.data(), ws.gates.data() + rows * gates_w, 0.0f);
    gemm_acc(rin, rows, p + f, dir.w_ih.data(), gates_w, ws.gates.data(),
             num_threads_);
    if (cell_ == nn::CellKind::kLstm) {
      gemm_acc(ws.h.data(), rows, hdim, dir.w_hh.data(), gates_w,
               ws.gates.data(), num_threads_);
      add_bias_rows(ws.gates.data(), dir.bias.data(), rows, gates_w);
      kern.slstm_step(ws.gates.data(), ws.c.data(), ws.h.data(), rows, hdim);
    } else {  // GRU: [r | z | n], n = tanh(xn + r ⊙ hn + bn)
      std::fill(ws.gates_h.data(), ws.gates_h.data() + rows * gates_w, 0.0f);
      gemm_acc(ws.h.data(), rows, hdim, dir.w_hh.data(), gates_w,
               ws.gates_h.data(), num_threads_);
      kern.sgru_step(ws.gates.data(), ws.gates_h.data(), dir.bias.data(),
                     ws.h.data(), rows, hdim);
    }
    // z_t = [s_t | h_t]: packed for the estimator GEMM, and copied into the
    // head's per-step buffer at this direction's column offset.
    float* zd = ws.zdir.data();
    const std::size_t zw = p + hdim;
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(zd + r * zw, sfeat + r * p, p * sizeof(float));
      std::memcpy(zd + r * zw + p, ws.h.data() + r * hdim,
                  hdim * sizeof(float));
      std::memcpy(ws.zcat[t].data() + r * z_width_ + col0, zd + r * zw,
                  zw * sizeof(float));
    }
    std::fill(ws.est.data(), ws.est.data() + rows * f, 0.0f);
    gemm_acc(zd, rows, zw, dir.est_w.data(), f, ws.est.data(), num_threads_);
    add_bias_rows(ws.est.data(), dir.est_b.data(), rows, f);
    have_est = true;
  }
}

const FMatrix& InferenceEngine::predict_batch(
    const data::Window* const* windows, std::size_t batch,
    Workspace& ws) const {
  if (batch == 0 || batch > max_batch_) {
    throw std::invalid_argument(
        "InferenceEngine::predict_batch: batch must be in [1, max_batch]");
  }
  if (ws.pred.rows() != max_batch_ * n_ || ws.pred.cols() != horizon_ ||
      ws.xobs.size() != lookback_) {
    throw std::invalid_argument(
        "InferenceEngine::predict_batch: workspace from another engine");
  }
  const std::size_t rows = batch * n_;
  // Load: narrow each window's observations and masks into the row-stacked
  // f32 buffers and tabulate its per-step time-of-day slots.
  for (std::size_t b = 0; b < batch; ++b) {
    const data::Window& w = *windows[b];
    if (w.x_obs.size() != lookback_ || w.x_mask.size() != lookback_) {
      throw std::invalid_argument(
          "InferenceEngine::predict_batch: window lookback mismatch");
    }
    for (std::size_t t = 0; t < lookback_; ++t) {
      const Matrix& xo = w.x_obs[t];
      const Matrix& mk = w.x_mask[t];
      if (xo.rows() != n_ || xo.cols() != f_ || mk.rows() != n_ ||
          mk.cols() != f_) {
        throw std::invalid_argument(
            "InferenceEngine::predict_batch: window shape mismatch");
      }
      float* xdst = ws.xobs[t].data() + b * n_ * f_;
      float* mdst = ws.mask[t].data() + b * n_ * f_;
      const double* xsrc = xo.data();
      const double* msrc = mk.data();
      for (std::size_t i = 0; i < n_ * f_; ++i) {
        xdst[i] = static_cast<float>(xsrc[i]);
        mdst[i] = static_cast<float>(msrc[i]);
      }
      ws.slots[b * lookback_ + t] = (w.slot + t) % steps_per_day_;
    }
  }

  run_direction(fwd_, ws, batch, /*reverse=*/false, 0);
  if (bidirectional_) {
    run_direction(bwd_, ws, batch, /*reverse=*/true, gcn_dim_ + lstm_dim_);
  }

  std::fill(ws.pred.data(), ws.pred.data() + rows * horizon_, 0.0f);
  if (!attention_head_) {
    // pred = concat(z_0..z_{T-1}) · W + b, evaluated as Σ_t z_t · W_t with
    // W_t = rows [t·zw, (t+1)·zw) of the head weight — identical FMA order,
    // no (R x T·zw) concat buffer.
    for (std::size_t t = 0; t < lookback_; ++t) {
      gemm_acc(ws.zcat[t].data(), rows, z_width_,
               head_w_.data() + t * z_width_ * horizon_, horizon_,
               ws.pred.data(), num_threads_);
    }
    add_bias_rows(ws.pred.data(), head_b_.data(), rows, horizon_);
  } else {
    // scores[:, t] = z_t · w_a + b_a, then row-softmax over t, then
    // pred = (Σ_t α_t ⊙ z_t) · W + b.
    float* col = ws.cheb_p.data();  // free at head time; ≥ rows floats
    for (std::size_t t = 0; t < lookback_; ++t) {
      std::fill(col, col + rows, 0.0f);
      gemm_acc(ws.zcat[t].data(), rows, z_width_, attn_w_.data(), 1, col,
               num_threads_);
      const float ab = attn_b_.data()[0];
      for (std::size_t r = 0; r < rows; ++r) {
        ws.scores(r, t) = col[r] + ab;
      }
    }
    for (std::size_t r = 0; r < rows; ++r) {
      float* srow = ws.scores.data() + r * lookback_;
      float mx = srow[0];
      for (std::size_t t = 1; t < lookback_; ++t) mx = std::max(mx, srow[t]);
      float sum = 0.0f;
      for (std::size_t t = 0; t < lookback_; ++t) {
        srow[t] = std::exp(srow[t] - mx);
        sum += srow[t];
      }
      for (std::size_t t = 0; t < lookback_; ++t) srow[t] /= sum;
    }
    std::fill(ws.mixed.data(), ws.mixed.data() + rows * z_width_, 0.0f);
    const simd::Kernels& kern = simd::active_kernels();
    for (std::size_t t = 0; t < lookback_; ++t) {
      for (std::size_t r = 0; r < rows; ++r) {
        kern.saxpy(ws.mixed.data() + r * z_width_, ws.scores(r, t),
                   ws.zcat[t].data() + r * z_width_, z_width_);
      }
    }
    gemm_acc(ws.mixed.data(), rows, z_width_, head_w_.data(), horizon_,
             ws.pred.data(), num_threads_);
    add_bias_rows(ws.pred.data(), head_b_.data(), rows, horizon_);
  }
  return ws.pred;
}

Matrix InferenceEngine::predict(const data::Window& w) {
  const data::Window* ptr = &w;
  const FMatrix& out = predict_batch(&ptr, 1, scratch_);
  Matrix res(n_, horizon_);
  const float* src = out.data();
  double* dst = res.data();
  for (std::size_t i = 0; i < n_ * horizon_; ++i) {
    dst[i] = static_cast<double>(src[i]);
  }
  return res;
}

}  // namespace rihgcn::core
