#include "nn/layers.hpp"

#include <cmath>
#include <stdexcept>

#include "tensor/csr.hpp"

namespace rihgcn::nn {

Matrix xavier_uniform(Rng& rng, std::size_t fan_in, std::size_t fan_out) {
  const double a = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  return rng.uniform_matrix(fan_in, fan_out, -a, a);
}

std::size_t Module::num_parameters() {
  std::size_t n = 0;
  for (const Parameter* p : parameters()) n += p->size();
  return n;
}

// ---- Linear -----------------------------------------------------------------

Linear::Linear(std::size_t in_dim, std::size_t out_dim, Rng& rng,
               std::string name)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      weight_(xavier_uniform(rng, in_dim, out_dim), name + ".weight"),
      bias_(Matrix(1, out_dim), name + ".bias") {
  if (in_dim == 0 || out_dim == 0) {
    throw std::invalid_argument("Linear: zero dimension");
  }
}

Var Linear::forward(Tape& tape, Var x) {
  Var w = tape.leaf(weight_);
  Var b = tape.leaf(bias_);
  return tape.add_row_broadcast(tape.matmul(x, w), b);
}

std::vector<Parameter*> Linear::parameters() { return {&weight_, &bias_}; }

// ---- LstmCell -----------------------------------------------------------------

LstmCell::LstmCell(std::size_t input_dim, std::size_t hidden_dim, Rng& rng,
                   std::string name)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_ih_(xavier_uniform(rng, input_dim, 4 * hidden_dim), name + ".w_ih"),
      w_hh_(xavier_uniform(rng, hidden_dim, 4 * hidden_dim), name + ".w_hh"),
      bias_(Matrix(1, 4 * hidden_dim), name + ".bias") {
  if (input_dim == 0 || hidden_dim == 0) {
    throw std::invalid_argument("LstmCell: zero dimension");
  }
  // Forget-gate bias init to 1 keeps early gradients flowing (standard
  // practice; Jozefowicz et al. 2015).
  for (std::size_t c = hidden_dim; c < 2 * hidden_dim; ++c) {
    bias_.value()(0, c) = 1.0;
  }
}

LstmCell::State LstmCell::initial_state(Tape& tape, std::size_t batch) const {
  return State{tape.constant(Matrix(batch, hidden_dim_)),
               tape.constant(Matrix(batch, hidden_dim_))};
}

LstmCell::State LstmCell::step(Tape& tape, Var x, const State& prev) {
  if (x.cols() != input_dim_) {
    throw ShapeError("LstmCell::step: input dim mismatch");
  }
  Var w_ih = tape.leaf(w_ih_);
  Var w_hh = tape.leaf(w_hh_);
  Var b = tape.leaf(bias_);
  if (fused()) {
    Tape::LstmState s = tape.lstm_cell(x, prev.h, prev.c, w_ih, w_hh, b);
    return State{s.h, s.c};
  }
  // Unfused reference chain. One statement per node pins the tape creation
  // order (C++ argument evaluation order is unspecified); the fused kernel's
  // backward replays the reverse of exactly this sequence, which is what
  // makes the bitwise fused/unfused parity tests possible.
  const std::size_t H = hidden_dim_;
  Var mm1 = tape.matmul(x, w_ih);
  Var mm2 = tape.matmul(prev.h, w_hh);
  Var pre = tape.add(mm1, mm2);
  Var gates = tape.add_row_broadcast(pre, b);
  Var i = tape.sigmoid(tape.slice_cols(gates, 0, H));
  Var f = tape.sigmoid(tape.slice_cols(gates, H, 2 * H));
  Var o = tape.sigmoid(tape.slice_cols(gates, 2 * H, 3 * H));
  Var g = tape.tanh(tape.slice_cols(gates, 3 * H, 4 * H));
  Var fc = tape.mul(f, prev.c);
  Var ig = tape.mul(i, g);
  Var c = tape.add(fc, ig);
  Var h = tape.mul(o, tape.tanh(c));
  return State{h, c};
}

std::vector<Parameter*> LstmCell::parameters() {
  return {&w_ih_, &w_hh_, &bias_};
}

// ---- GruCell -----------------------------------------------------------------

GruCell::GruCell(std::size_t input_dim, std::size_t hidden_dim, Rng& rng,
                 std::string name)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_ih_(xavier_uniform(rng, input_dim, 3 * hidden_dim), name + ".w_ih"),
      w_hh_(xavier_uniform(rng, hidden_dim, 3 * hidden_dim), name + ".w_hh"),
      bias_(Matrix(1, 3 * hidden_dim), name + ".bias") {
  if (input_dim == 0 || hidden_dim == 0) {
    throw std::invalid_argument("GruCell: zero dimension");
  }
}

RecurrentCell::State GruCell::initial_state(Tape& tape,
                                            std::size_t batch) const {
  Var h = tape.constant(Matrix(batch, hidden_dim_));
  return State{h, h};
}

RecurrentCell::State GruCell::step(Tape& tape, Var x, const State& prev) {
  if (x.cols() != input_dim_) {
    throw ShapeError("GruCell::step: input dim mismatch");
  }
  Var w_ih = tape.leaf(w_ih_);
  Var w_hh = tape.leaf(w_hh_);
  Var b = tape.leaf(bias_);
  if (fused()) {
    Var h = tape.gru_cell(x, prev.h, w_ih, w_hh, b);
    return State{h, h};
  }
  // Unfused reference chain; statement-per-node pins the tape order the
  // fused kernel's backward mirrors (see LstmCell::step).
  const std::size_t H = hidden_dim_;
  Var xi = tape.matmul(x, w_ih);  // batch x 3H
  Var hh = tape.matmul(prev.h, w_hh);
  Var xr = tape.slice_cols(xi, 0, H);
  Var hr = tape.slice_cols(hh, 0, H);
  Var ar = tape.add(xr, hr);
  Var br = tape.slice_cols(b, 0, H);
  Var r = tape.sigmoid(tape.add_row_broadcast(ar, br));
  Var xz = tape.slice_cols(xi, H, 2 * H);
  Var hz = tape.slice_cols(hh, H, 2 * H);
  Var az = tape.add(xz, hz);
  Var bz = tape.slice_cols(b, H, 2 * H);
  Var z = tape.sigmoid(tape.add_row_broadcast(az, bz));
  Var xn = tape.slice_cols(xi, 2 * H, 3 * H);
  Var hn = tape.slice_cols(hh, 2 * H, 3 * H);
  Var rn = tape.mul(r, hn);
  Var an = tape.add(xn, rn);
  Var bn = tape.slice_cols(b, 2 * H, 3 * H);
  Var n = tape.tanh(tape.add_row_broadcast(an, bn));
  // h' = (1 - z) ⊙ n + z ⊙ h = n − z⊙n + z⊙h
  Var zn = tape.mul(z, n);
  Var nm = tape.sub(n, zn);
  Var zh = tape.mul(z, prev.h);
  Var h = tape.add(nm, zh);
  return State{h, h};
}

std::vector<Parameter*> GruCell::parameters() {
  return {&w_ih_, &w_hh_, &bias_};
}

std::unique_ptr<RecurrentCell> make_recurrent_cell(CellKind kind,
                                                   std::size_t input_dim,
                                                   std::size_t hidden_dim,
                                                   Rng& rng,
                                                   std::string name) {
  switch (kind) {
    case CellKind::kLstm:
      return std::make_unique<LstmCell>(input_dim, hidden_dim, rng,
                                        std::move(name));
    case CellKind::kGru:
      return std::make_unique<GruCell>(input_dim, hidden_dim, rng,
                                       std::move(name));
  }
  throw std::logic_error("make_recurrent_cell: bad kind");
}

// ---- ChebGcnLayer -------------------------------------------------------------

ChebGcnLayer::ChebGcnLayer(std::size_t in_dim, std::size_t out_dim,
                           std::size_t order, Rng& rng, std::string name)
    : in_dim_(in_dim),
      out_dim_(out_dim),
      order_(order),
      bias_(Matrix(1, out_dim), name + ".bias") {
  if (order == 0) throw std::invalid_argument("ChebGcnLayer: order must be >=1");
  theta_.reserve(order);
  for (std::size_t k = 0; k < order; ++k) {
    theta_.emplace_back(xavier_uniform(rng, in_dim, out_dim),
                        name + ".theta" + std::to_string(k));
  }
}

Var ChebGcnLayer::forward(Tape& tape, Var x, const CsrMatrix& lap) {
  if (x.cols() != in_dim_) {
    throw ShapeError("ChebGcnLayer::forward: input dim mismatch");
  }
  if (lap.rows() != x.rows() || lap.cols() != x.rows()) {
    throw ShapeError("ChebGcnLayer::forward: Laplacian/input size mismatch");
  }
  // Chebyshev recurrence: Z0 = x, Z1 = L̃x, Zk = 2 L̃ Z_{k-1} − Z_{k-2},
  // then Σ_k Z_k Θ_k + b.
  std::vector<Var> z;
  z.reserve(order_);
  z.push_back(x);
  if (order_ > 1) z.push_back(tape.spmm(lap, x));
  for (std::size_t k = 2; k < order_; ++k) {
    z.push_back(tape.sub(tape.scale(tape.spmm(lap, z[k - 1]), 2.0), z[k - 2]));
  }
  Var acc = tape.matmul(z[0], tape.leaf(theta_[0]));
  for (std::size_t k = 1; k < order_; ++k) {
    acc = tape.add(acc, tape.matmul(z[k], tape.leaf(theta_[k])));
  }
  return tape.add_row_broadcast(acc, tape.leaf(bias_));
}

std::vector<Parameter*> ChebGcnLayer::parameters() {
  std::vector<Parameter*> out;
  out.reserve(theta_.size() + 1);
  for (auto& t : theta_) out.push_back(&t);
  out.push_back(&bias_);
  return out;
}

// ---- Attention pooling ------------------------------------------------------

Var attention_pool(Tape& tape, Linear& score, const std::vector<Var>& zs) {
  std::vector<Var> scores(zs.size());
  for (std::size_t t = 0; t < zs.size(); ++t) {
    scores[t] = score.forward(tape, zs[t]);
  }
  Var alpha = tape.softmax_rows(tape.concat_cols_many(scores));  // N x T
  Var mixed;
  for (std::size_t t = 0; t < zs.size(); ++t) {
    Var weighted =
        tape.mul_col_broadcast(zs[t], tape.slice_cols(alpha, t, t + 1));
    mixed = t == 0 ? weighted : tape.add(mixed, weighted);
  }
  return mixed;
}

std::vector<Parameter*> collect_parameters(
    const std::vector<Module*>& modules) {
  std::vector<Parameter*> out;
  for (Module* m : modules) {
    for (Parameter* p : m->parameters()) out.push_back(p);
  }
  return out;
}

}  // namespace rihgcn::nn
