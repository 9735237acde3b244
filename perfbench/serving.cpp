// district_ticks and campus_fanout: forecasts served by serve::ForecastServer
// to an open-loop load generator, then a separate closed-loop capacity
// phase. Latency is only ever taken from the open loop, which runs below
// saturation; the closed loop only yields capacity_rps.
//
// Per read, the load generator records its due time, the ingest and
// forecast_async calls, and (collector thread) when the future became
// ready. The traced run serves through TracingEngine, a subclass of
// core::InferenceEngine that times each predict_batch call and notes the
// fingerprint of every window in it; requests are matched to the calls
// that answered them through admission order (see attribute()).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hpp"
#include "core/engine.hpp"
#include "core/hetero_graphs.hpp"
#include "core/rihgcn.hpp"
#include "core/robust.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "data/windows.hpp"
#include "pipeline.hpp"
#include "serve/server.hpp"
#include "tensor/parallel.hpp"
#include "tensor/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rihgcn;

// ---- workload definitions -------------------------------------------------

struct ServingSpec {
  std::string name;
  bool campus = false;
  // Open-loop traffic.
  std::size_t streams = 16;
  double offered_rps = 90.0;  ///< forecast reads per second
  std::size_t reads_per_ingest = 1;
  bool poisson = false;  ///< Poisson arrivals (else evenly spaced ticks)
  bool random_read_stream = false;
  std::size_t publishes = 0;
  double latency_limit_ms = 50.0;
  // Closed-loop capacity phase (one thread).
  std::size_t capacity_depth = 16;
  double capacity_seconds = 3.0;
  /// capacity_rps is the median rate over runs of this many completions.
  std::size_t capacity_group = 16;
  // Stream replay: each stream cycles through this many days of readings.
  std::size_t cycle_days = 1;
  // Quality.
  double mae_ceiling = 0.0;  ///< both MAEs, original units
  std::size_t impute_windows = 8;
  std::size_t sample_every = 16;  ///< correctness sample stride (reads)
  core::HeteroGraphsConfig graphs;
  core::RihgcnConfig model;
  core::TrainConfig train;
  serve::ServeConfig serve;
};

ServingSpec district_spec() {
  ServingSpec s;
  s.name = "district_ticks";
  s.streams = 16;
  s.offered_rps = 75.0;
  s.reads_per_ingest = 1;
  s.latency_limit_ms = 50.0;
  s.capacity_depth = 16;  // two full batches: one runs while one forms
  s.capacity_seconds = 12.0;
  s.capacity_group = 16;
  s.cycle_days = 1;
  s.mae_ceiling = 15.0;  // mph
  s.impute_windows = 32;
  s.sample_every = 17;  // coprime with the stream count: samples every stream
  s.graphs.num_temporal_graphs = 2;
  s.model.lookback = 12;
  s.model.horizon = 12;
  s.model.gcn_dim = 8;
  s.model.lstm_dim = 16;
  s.model.cheb_order = 2;
  s.train.max_epochs = 2;
  s.train.batch_size = 8;
  s.train.max_train_windows = 64;
  s.train.max_val_windows = 16;
  s.train.patience = 100;
  s.train.num_threads = 4;
  s.serve.num_workers = 0;  // inline flush
  return s;
}

ServingSpec campus_spec() {
  ServingSpec s;
  s.name = "campus_fanout";
  s.campus = true;
  s.streams = 4;
  s.offered_rps = 6000.0;
  s.reads_per_ingest = 64;
  s.poisson = true;
  s.random_read_stream = true;
  s.publishes = 4;
  s.latency_limit_ms = 10.0;
  s.capacity_depth = 2048;
  s.capacity_group = 4096;
  s.cycle_days = 2;
  s.mae_ceiling = 200.0;  // seconds of travel time
  s.impute_windows = 256;  // structural gaps leave few observed entries
  s.sample_every = 509;
  s.graphs.num_temporal_graphs = 2;
  s.model.lookback = 12;
  s.model.horizon = 12;
  s.model.gcn_dim = 8;
  s.model.lstm_dim = 8;
  s.model.cheb_order = 2;
  s.train.max_epochs = 3;
  s.train.batch_size = 8;
  s.train.max_train_windows = 1024;
  s.train.max_val_windows = 64;
  s.train.patience = 100;
  s.train.num_threads = 4;
  s.serve.num_workers = 1;  // pooled, pipelined flush
  return s;
}

const ServingSpec& spec_for(const std::string& workload) {
  static const ServingSpec district = district_spec();
  static const ServingSpec campus = campus_spec();
  return workload == "campus_fanout" ? campus : district;
}

data::TrafficDataset generate(const ServingSpec& spec, std::uint64_t seed) {
  if (spec.campus) {
    data::StampedeLikeConfig c;  // 12 segments, structural missingness
    c.seed = seed;
    return data::generate_stampede_like(c);
  }
  data::PemsLikeConfig c;
  c.num_nodes = 256;
  c.num_features = 4;
  c.num_corridors = 16;
  c.num_days = 14;
  c.steps_per_day = 96;  // 15-minute bins
  c.seed = seed;
  data::TrafficDataset ds = data::generate_pems_like(c);
  Rng rng(seed ^ 0x6d636172ULL);
  data::inject_mcar_readings(ds, 0.4, rng);
  return ds;
}

core::InferenceEngine::Options engine_options(const ServingSpec& spec) {
  core::InferenceEngine::Options o;
  o.max_batch = spec.serve.max_batch;
  o.num_threads = 1;
  return o;
}

/// Identity of a window as the server materializes it: its slot and its
/// newest reading. Streams replay distinct timesteps, so this names one
/// (stream, ingest version).
std::uint64_t fingerprint(std::size_t slot, const Matrix& obs,
                          const Matrix& mask) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ static_cast<std::uint64_t>(slot);
  const auto mix = [&h](const Matrix& m) {
    for (std::size_t i = 0; i < m.size(); ++i) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, m.data() + i, sizeof bits);
      h = (h ^ bits) * 0x100000001b3ULL;
    }
  };
  mix(obs);
  mix(mask);
  return h;
}

// ---- traced engine --------------------------------------------------------

/// predict_batch calls seen by TracingEngine, in execution order.
class CallLog {
 public:
  struct Call {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::size_t first;  ///< index of the call's first window in fps
    std::size_t batch;
  };
  /// Calls from `thread` (the load generator running publish canaries) are
  /// not served requests and are left out.
  explicit CallLog(std::thread::id skip) : skip_(skip) {}

  void record(std::int64_t start, std::int64_t end,
              const data::Window* const* windows, std::size_t batch) {
    if (std::this_thread::get_id() == skip_) return;
    std::lock_guard<std::mutex> lock(mu_);
    calls_.push_back(Call{start, end, fps_.size(), batch});
    for (std::size_t b = 0; b < batch; ++b) {
      const data::Window& w = *windows[b];
      fps_.push_back(fingerprint(w.slot, w.x_obs.back(), w.x_mask.back()));
    }
  }
  /// Read once every request of a phase has resolved.
  [[nodiscard]] std::vector<Call> calls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }
  [[nodiscard]] std::vector<std::uint64_t> fps() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fps_;
  }

 private:
  std::thread::id skip_;
  mutable std::mutex mu_;
  std::vector<Call> calls_;
  std::vector<std::uint64_t> fps_;
};

class TracingEngine final : public core::InferenceEngine {
 public:
  TracingEngine(const core::RihgcnModel& model, Options options, CallLog& log)
      : core::InferenceEngine(model, options), log_(log) {}

  const FMatrix& predict_batch(const data::Window* const* windows,
                               std::size_t batch,
                               Workspace& ws) const override {
    const std::int64_t start = now_ns();
    const FMatrix& out =
        core::InferenceEngine::predict_batch(windows, batch, ws);
    log_.record(start, now_ns(), windows, batch);
    return out;
  }

 private:
  CallLog& log_;
};

// ---- traffic --------------------------------------------------------------

struct Reading {
  Matrix values;  ///< original units, zero where missing
  Matrix mask;
};

/// One forecast read, optionally preceded by an ingest; or a publish.
struct Read {
  std::int64_t due_ns = 0;  ///< offset from the phase start (open loop)
  std::uint32_t stream = 0;
  std::uint32_t ingest_stream = 0;
  std::int64_t reading = -1;  ///< index into the readings; -1 = no ingest
  int publish = -1;           ///< >= 0: publish engine #publish instead
  std::size_t t_last = 0;     ///< timestep of the stream's newest reading
  std::uint64_t fp = 0;       ///< fingerprint of the window it will read
  std::int64_t sample = -1;   ///< index into the correctness samples
};

/// A sampled read: the window rebuilt from the readings sent, and what the
/// server answered.
struct Sample {
  data::Window window;
  Matrix served;
  bool answered = false;
};

/// Seeded stream feeds plus a benchmark-side mirror of each stream's
/// buffer (the same public sanitize and stuck-sensor steps the server runs
/// on ingest), so every read's window can be rebuilt without asking the
/// server.
class Traffic {
 public:
  Traffic(const ServingSpec& spec, const data::TrafficDataset& ds,
          const data::ZScoreNormalizer& norm, std::size_t first_t,
          std::uint64_t seed)
      : spec_(spec), ds_(ds), norm_(norm), rng_(seed ^ 0x74726166ULL) {
    const std::size_t spd = ds.steps_per_day;
    cycle_ = spd * spec.cycle_days;
    const std::size_t horizon = spec.model.horizon;
    const std::size_t last_base = ds.num_timesteps() - cycle_ - horizon - 1;
    if (last_base <= first_t) {
      throw std::runtime_error("Traffic: series too short for the replay");
    }
    const std::size_t stride = (last_base - first_t) / spec.streams;
    for (std::size_t s = 0; s < spec.streams; ++s) {
      Feed f;
      f.base = first_t + s * stride;
      f.detector =
          core::StuckSensorDetector(ds.num_nodes(), spec.serve.stuck_threshold);
      feeds_.push_back(std::move(f));
    }
  }

  [[nodiscard]] std::size_t start_slot(std::size_t s) const {
    return ds_.slot_of(feeds_[s].base);
  }
  /// True while no feed has wrapped around its replay cycle.
  [[nodiscard]] bool unwrapped() const {
    for (const Feed& f : feeds_) {
      if (f.cursor > cycle_) return false;
    }
    return true;
  }

  /// Next reading of stream `s`; the mirror sees it as the server will.
  Reading ingest(std::size_t s) {
    Feed& f = feeds_[s];
    // Cycles are whole days, so the time-of-day slot stays continuous.
    const std::size_t t = f.base + f.cursor % cycle_;
    ++f.cursor;
    const std::size_t n = ds_.num_nodes();
    const std::size_t d = ds_.num_features();
    Reading r{Matrix(n, d), Matrix(n, d)};
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < d; ++c) {
        const double m = ds_.mask[t](i, c);
        r.mask(i, c) = m;
        r.values(i, c) = m * norm_.denormalize(ds_.truth[t](i, c), c);
      }
    }
    Matrix nv(n, d);
    Matrix nm(n, d);
    core::sanitize_reading(r.values, r.mask, norm_, nv, nm);
    f.detector.observe_and_demote(nv, nm);
    f.values.push_back(std::move(nv));
    f.masks.push_back(std::move(nm));
    if (f.values.size() > spec_.model.lookback) {
      f.values.pop_front();
      f.masks.pop_front();
    }
    ++f.seen;
    f.t_last = t;
    return r;
  }

  /// Due time of the next read, offset from the phase start. Drawn once and
  /// kept until next() hands the read out, so peeking consumes no input.
  std::int64_t peek_due_ns() {
    if (!drawn_) {
      if (spec_.poisson) {
        clock_s_ += -std::log(1.0 - rng_.uniform()) / spec_.offered_rps;
      } else {
        clock_s_ = static_cast<double>(reads_) / spec_.offered_rps;
      }
      drawn_ = true;
    }
    return std::llround(clock_s_ * 1e9);
  }

  /// Next read of the schedule. Its ingest reading, if any, is appended to
  /// `readings`; a sampled read's rebuilt window to `samples` while it holds
  /// fewer than `max_samples`.
  Read next(std::vector<Reading>& readings, std::vector<Sample>& samples,
            std::size_t max_samples) {
    Read r;
    r.due_ns = peek_due_ns();
    drawn_ = false;
    const std::size_t k = reads_++;
    const std::size_t streams = feeds_.size();
    if (k % spec_.reads_per_ingest == 0) {
      r.ingest_stream =
          static_cast<std::uint32_t>((k / spec_.reads_per_ingest) % streams);
      readings.push_back(ingest(r.ingest_stream));
      r.reading = static_cast<std::int64_t>(readings.size()) - 1;
    }
    r.stream = spec_.random_read_stream
                   ? static_cast<std::uint32_t>(rng_.uniform_index(streams))
                   : static_cast<std::uint32_t>(k % streams);
    const Feed& f = feeds_[r.stream];
    r.t_last = f.t_last;
    r.fp = fingerprint(window_slot(f), f.values.back(), f.masks.back());
    if (k % spec_.sample_every == 0 && samples.size() < max_samples) {
      samples.push_back(Sample{window(f), Matrix(), false});
      r.sample = static_cast<std::int64_t>(samples.size()) - 1;
    }
    return r;
  }

 private:
  struct Feed {
    std::size_t base = 0;
    std::size_t cursor = 0;
    std::size_t seen = 0;
    std::size_t t_last = 0;
    core::StuckSensorDetector detector;
    std::deque<Matrix> values;  ///< normalized, as the server holds them
    std::deque<Matrix> masks;
  };

  // The server's window layout (ForecastServer::make_window): left-padded
  // with fully missing steps while the buffer is short.
  [[nodiscard]] std::size_t window_slot(const Feed& f) const {
    const std::size_t spd = ds_.steps_per_day;
    const std::size_t lookback = spec_.model.lookback;
    const std::size_t pad = lookback - f.values.size();
    return (start_slot_of(f) + f.seen - f.values.size() + spd * lookback -
            pad) %
           spd;
  }
  [[nodiscard]] std::size_t start_slot_of(const Feed& f) const {
    return ds_.slot_of(f.base);
  }
  [[nodiscard]] data::Window window(const Feed& f) const {
    const std::size_t n = ds_.num_nodes();
    const std::size_t d = ds_.num_features();
    data::Window w;
    w.slot = window_slot(f);
    const std::size_t pad = spec_.model.lookback - f.values.size();
    for (std::size_t k = 0; k < pad; ++k) {
      w.x_obs.emplace_back(n, d);
      w.x_mask.emplace_back(n, d);
      w.x_truth.emplace_back(n, d);
    }
    for (std::size_t k = 0; k < f.values.size(); ++k) {
      w.x_obs.push_back(f.values[k]);
      w.x_mask.push_back(f.masks[k]);
      w.x_truth.push_back(f.values[k]);
    }
    for (std::size_t k = 0; k < spec_.model.horizon; ++k) {
      w.y.emplace_back(n, 1);
      w.y_mask.emplace_back(n, 1);
    }
    return w;
  }

  const ServingSpec& spec_;
  const data::TrafficDataset& ds_;
  const data::ZScoreNormalizer& norm_;
  Rng rng_;
  std::size_t cycle_ = 0;
  std::vector<Feed> feeds_;
  std::size_t reads_ = 0;
  double clock_s_ = 0.0;
  bool drawn_ = false;  ///< clock_s_ already holds the next read's arrival
};

/// The open-loop schedule of one phase, inputs included.
struct Plan {
  std::vector<Read> events;  ///< reads and publishes, by due time
  std::vector<Reading> readings;
  std::vector<Sample> samples;
  std::size_t reads = 0;
};

Plan plan_open_loop(const ServingSpec& spec, Traffic& traffic, double seconds,
                    std::uint64_t seed) {
  Plan plan;
  const auto horizon_ns = static_cast<std::int64_t>(seconds * 1e9);
  while (traffic.peek_due_ns() < horizon_ns) {
    plan.events.push_back(traffic.next(plan.readings, plan.samples, SIZE_MAX));
    ++plan.reads;
  }
  // Publish points: seeded, strictly inside the phase.
  Rng rng(seed ^ 0x7075626cULL);
  std::vector<std::int64_t> at;
  for (std::size_t p = 0; p < spec.publishes; ++p) {
    at.push_back(std::llround(rng.uniform(0.1, 0.9) * seconds * 1e9));
  }
  std::sort(at.begin(), at.end());
  for (std::size_t p = 0; p < at.size(); ++p) {
    Read pub;
    pub.due_ns = at[p];
    pub.publish = static_cast<int>(p);
    const auto pos = std::upper_bound(
        plan.events.begin(), plan.events.end(), pub,
        [](const Read& a, const Read& b) { return a.due_ns < b.due_ns; });
    plan.events.insert(pos, pub);
  }
  return plan;
}

// ---- the service under test -----------------------------------------------

struct Env {
  data::TrafficDataset ds;
  std::size_t train_end = 0;
  std::unique_ptr<data::ZScoreNormalizer> norm;
  std::unique_ptr<data::WindowSampler> sampler;
  data::SplitIndices split;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  std::unique_ptr<core::RihgcnModel> model;
  core::TrainReport train_report;
};

/// One running server with its engines and its traffic mirror.
struct Service {
  std::shared_ptr<core::InferenceEngine> engine;
  std::vector<std::shared_ptr<core::InferenceEngine>> publish;
  std::unique_ptr<Traffic> traffic;
  std::unique_ptr<serve::ForecastServer> server;  ///< destroyed first
};

using EngineFactory =
    std::function<std::shared_ptr<core::InferenceEngine>()>;

void compile_engines(Service& svc, const ServingSpec& spec,
                     const EngineFactory& make) {
  svc.engine = make();
  for (std::size_t p = 0; p < spec.publishes; ++p) {
    svc.publish.push_back(make());
  }
}

void start_server(Service& svc, const ServingSpec& spec, const Env& env,
                  std::uint64_t seed) {
  svc.traffic = std::make_unique<Traffic>(spec, env.ds, *env.norm,
                                          env.train_end, seed);
  svc.server =
      std::make_unique<serve::ForecastServer>(svc.engine, *env.norm, spec.serve);
  for (std::size_t s = 0; s < spec.streams; ++s) {
    if (svc.server->add_stream(svc.traffic->start_slot(s)) != s) {
      throw std::runtime_error("ForecastServer: unexpected stream id");
    }
  }
}

/// Fills every stream's lookback and answers one forecast per stream.
void warm_up(Service& svc, const ServingSpec& spec) {
  for (std::size_t s = 0; s < spec.streams; ++s) {
    for (std::size_t k = 0; k < spec.model.lookback; ++k) {
      const Reading r = svc.traffic->ingest(s);
      svc.server->ingest(s, r.values, r.mask);
    }
  }
  std::vector<std::future<Matrix>> futs;
  for (std::size_t s = 0; s < spec.streams; ++s) {
    futs.push_back(svc.server->forecast_async(s));
  }
  for (auto& f : futs) {
    if (f.get().has_non_finite()) {
      throw std::runtime_error("warm-up forecast is not finite");
    }
  }
}

std::unique_ptr<Env> set_up(const ServingSpec& spec, std::uint64_t seed,
                            Service& svc, SetupRecord& rec) {
  auto env = std::make_unique<Env>();
  rec.start_ns = now_ns();
  rec.stage("data.generate", [&] {
    env->ds = generate(spec, seed);
    env->train_end = env->ds.num_timesteps() * 7 / 10;
    env->norm = std::make_unique<data::ZScoreNormalizer>(env->ds,
                                                         env->train_end);
    env->norm->normalize(env->ds);
    env->sampler = std::make_unique<data::WindowSampler>(
        env->ds, spec.model.lookback, spec.model.horizon);
    env->split = env->sampler->split(0.7, 0.2);
  });
  rec.stage("core.graphs.build", [&] {
    Rng rng(seed ^ 0x67726166ULL);
    env->graphs = std::make_unique<core::HeterogeneousGraphs>(
        env->ds, env->train_end, spec.graphs, rng);
  });
  // Model initialization and training keep their fixed default seeds: the
  // workload seed varies the inputs, not the program.
  rec.stage("core.model.init", [&] {
    env->model = std::make_unique<core::RihgcnModel>(
        *env->graphs, env->ds.num_nodes(), env->ds.num_features(), spec.model);
  });
  rec.stage("core.trainer.train", [&] {
    env->train_report =
        core::train_model(*env->model, *env->sampler, env->split, spec.train);
  });
  rec.train_windows =
      trained_windows(env->train_report, env->split, spec.train);
  rec.stage("core.engine.compile", [&] {
    compile_engines(svc, spec, [&] {
      return std::make_shared<core::InferenceEngine>(*env->model,
                                                     engine_options(spec));
    });
  });
  rec.stage("serve.start", [&] { start_server(svc, spec, *env, seed); });
  rec.stage("serve.warmup", [&] { warm_up(svc, spec); });
  rec.end_ns = now_ns();
  return env;
}

// ---- phases ---------------------------------------------------------------

struct RequestRec {
  std::int64_t due = 0, send = 0, ingest0 = 0, ingest1 = 0;
  std::int64_t submit0 = 0, submit1 = 0, ready = 0;
  std::uint32_t stream = 0;
  std::size_t t_last = 0;
  std::uint64_t fp = 0;
  std::int64_t sample = -1;
  bool ingest = false;
  bool answered = false;  ///< a finite forecast of the right shape
};

struct PhaseResult {
  std::vector<RequestRec> reqs;
  std::vector<double> publish_ms;
  std::size_t publish_ok = 0;
  serve::ServerStats before, after;
  std::int64_t start_ns = 0, end_ns = 0;
  std::size_t ingests = 0;
  std::size_t answered = 0, failed = 0;
  double mae_sum = 0.0;
  std::size_t mae_entries = 0;
};

/// Scores a served forecast against the ground truth after t_last.
void score_forecast(const Matrix& m, std::size_t t_last, const Env& env,
                    PhaseResult& res) {
  for (std::size_t i = 0; i < m.rows(); ++i) {
    for (std::size_t h = 0; h < m.cols(); ++h) {
      const double truth =
          env.norm->denormalize(env.ds.truth[t_last + 1 + h](i, 0), 0);
      res.mae_sum += std::fabs(m(i, h) - truth);
    }
  }
  res.mae_entries += m.size();
}

bool answer_ok(const Matrix& m, const serve::ForecastServer& server) {
  return m.rows() == server.num_nodes() && m.cols() == server.horizon() &&
         !m.has_non_finite();
}

PhaseResult run_open_loop(const Env& env, Service& svc, Plan& plan,
                          ThreadPlan& threads) {
  serve::ForecastServer& server = *svc.server;
  PhaseResult res;
  res.reqs.resize(plan.reads);
  std::vector<std::future<Matrix>> futs(plan.reads);
  std::atomic<std::size_t> published{0};

  // Completion collector: waits on the futures in submission order, which
  // is the order the server settles them in.
  std::thread collector([&] {
    for (std::size_t k = 0; k < plan.reads; ++k) {
      std::size_t p = published.load(std::memory_order_acquire);
      while (p <= k) {
        published.wait(p, std::memory_order_acquire);
        p = published.load(std::memory_order_acquire);
      }
      futs[k].wait();
      RequestRec& rec = res.reqs[k];
      rec.ready = now_ns();
      try {
        Matrix m = futs[k].get();
        if (!answer_ok(m, server)) {
          ++res.failed;
          continue;
        }
        rec.answered = true;
        ++res.answered;
        score_forecast(m, rec.t_last, env, res);
        if (rec.sample >= 0) {
          Sample& s = plan.samples[static_cast<std::size_t>(rec.sample)];
          s.served = std::move(m);
          s.answered = true;
        }
      } catch (const std::exception&) {
        ++res.failed;
      }
    }
  });

  res.before = server.stats();
  const std::int64_t t0 = now_ns() + 2'000'000;
  res.start_ns = t0;
  std::size_t k = 0;
  for (const Read& e : plan.events) {
    const std::int64_t due = t0 + e.due_ns;
    if (now_ns() < due) sleep_until_ns(due);
    if (e.publish >= 0) {
      const std::int64_t a = now_ns();
      const bool ok = server.publish(svc.publish[static_cast<std::size_t>(
          e.publish)]);
      res.publish_ms.push_back(to_ms(now_ns() - a));
      res.publish_ok += ok ? 1 : 0;
      continue;
    }
    RequestRec& rec = res.reqs[k];
    rec.due = due;
    rec.send = now_ns();
    rec.stream = e.stream;
    rec.t_last = e.t_last;
    rec.fp = e.fp;
    rec.sample = e.sample;
    if (e.reading >= 0) {
      const Reading& r = plan.readings[static_cast<std::size_t>(e.reading)];
      rec.ingest = true;
      rec.ingest0 = now_ns();
      server.ingest(e.ingest_stream, r.values, r.mask);
      rec.ingest1 = now_ns();
      ++res.ingests;
    }
    rec.submit0 = now_ns();
    try {
      futs[k] = server.forecast_async(e.stream);
    } catch (...) {
      std::promise<Matrix> failed;
      failed.set_exception(std::current_exception());
      futs[k] = failed.get_future();
    }
    rec.submit1 = now_ns();
    published.store(k + 1, std::memory_order_release);
    published.notify_one();
    if ((k + 1) % (plan.reads / 4 + 1) == 0) threads.observe();
    ++k;
  }
  collector.join();
  res.end_ns = now_ns();
  res.after = server.stats();
  return res;
}

struct CapacityResult {
  double rps = 0.0;
  std::size_t completed = 0;  ///< inside the measured window
  std::vector<std::int64_t> done_ns;  ///< their completion times
  double window_s = 0.0;
  std::size_t sent = 0, answered = 0, failed = 0;
  serve::ServerStats before, after;
};

/// Correctness samples kept from a capacity phase: a fixed number, so the
/// phase's memory does not depend on how fast it ran.
constexpr std::size_t kCapacitySamples = 32;

/// Closed loop from one thread: `depth` reads in flight, the workload's
/// read/write mix, a short warm-up, then `seconds` measured.
CapacityResult run_capacity(Service& svc, std::size_t depth, double seconds,
                            std::size_t group, std::vector<Sample>& samples,
                            ThreadPlan& threads) {
  serve::ForecastServer& server = *svc.server;
  CapacityResult res;
  std::deque<std::pair<std::future<Matrix>, std::int64_t>> inflight;
  std::vector<Reading> readings;
  res.before = server.stats();
  const std::int64_t t0 = now_ns();
  const std::int64_t begin = t0 + 500'000'000;
  const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
  const auto settle_front = [&] {
    auto& [fut, sample] = inflight.front();
    fut.wait();
    const std::int64_t t = now_ns();
    try {
      Matrix m = fut.get();
      if (answer_ok(m, server)) {
        ++res.answered;
        if (t >= begin && t < end) res.done_ns.push_back(t);
        if (sample >= 0) {
          samples[static_cast<std::size_t>(sample)].served = std::move(m);
          samples[static_cast<std::size_t>(sample)].answered = true;
        }
      } else {
        ++res.failed;
      }
    } catch (const std::exception&) {
      ++res.failed;
    }
    inflight.pop_front();
  };
  std::size_t issued = 0;
  threads.observe();
  while (now_ns() < end) {
    if (inflight.size() < depth) {
      readings.clear();
      const Read e = svc.traffic->next(readings, samples, kCapacitySamples);
      if (e.reading >= 0) {
        const Reading& r = readings[static_cast<std::size_t>(e.reading)];
        server.ingest(e.ingest_stream, r.values, r.mask);
      }
      inflight.emplace_back(server.forecast_async(e.stream), e.sample);
      ++res.sent;
      if (++issued % 4096 == 0) threads.observe();
      continue;
    }
    settle_front();
  }
  threads.observe();
  while (!inflight.empty()) settle_front();
  res.after = server.stats();
  res.window_s = to_s(end - begin);
  res.completed = res.done_ns.size();
  res.rps = median_rate(res.done_ns, group);
  return res;
}

// ---- checks ---------------------------------------------------------------

void check_accounting(Report& report, const std::string& phase,
                      std::size_t sent, std::size_t answered,
                      std::size_t failed, const serve::ServerStats& before,
                      const serve::ServerStats& after) {
  report.check(sent == answered + failed,
               phase + ": sent (" + std::to_string(sent) +
                   ") = answered (" + std::to_string(answered) +
                   ") + failed (" + std::to_string(failed) + ")");
  report.check(after.requests - before.requests == sent,
               phase + ": ServerStats requests delta (" +
                   std::to_string(after.requests - before.requests) +
                   ") = sent");
}

/// Served forecasts of the sampled reads are bitwise equal to
/// InferenceEngine::predict on the window rebuilt from the readings sent.
void verify_samples(Report& report, const std::string& phase, const Env& env,
                    const ServingSpec& spec,
                    const std::vector<Sample>& samples) {
  core::InferenceEngine ref(*env.model, engine_options(spec));
  std::size_t checked = 0, equal = 0;
  for (const Sample& s : samples) {
    if (!s.answered) continue;
    ++checked;
    const Matrix p = ref.predict(s.window);
    Matrix d(p.rows(), p.cols());
    for (std::size_t i = 0; i < p.rows(); ++i) {
      for (std::size_t h = 0; h < p.cols(); ++h) {
        d(i, h) = env.norm->denormalize(p(i, h), 0);
      }
    }
    if (d.same_shape(s.served) &&
        std::memcmp(d.data(), s.served.data(), d.size() * sizeof(double)) ==
            0) {
      ++equal;
    }
  }
  report.check(checked > 0 && equal == checked,
               phase + ": sampled served forecasts bitwise equal to "
                       "InferenceEngine::predict on the rebuilt window (" +
                   std::to_string(equal) + "/" + std::to_string(checked) +
                   ")");
}

// ---- end-to-end summary ---------------------------------------------------

/// forecast_p99_ms is taken per block of this many consecutive requests
/// (10 samples beyond each p99), median over the blocks.
constexpr std::size_t kP99Block = 1000;

struct ServingE2E {
  double p50_ms = 0.0, p99_ms = 0.0;
  std::size_t n = 0, beyond_p99 = 0, p99_blocks = 0;
  double answered_frac = 0.0;
  double capacity_rps = 0.0;
  double mae = 0.0;
  std::size_t mae_entries = 0;
};

ServingE2E summarize(const PhaseResult& open, const CapacityResult& cap,
                     double limit_ms) {
  ServingE2E e;
  std::vector<double> lat;
  std::size_t in_limit = 0;
  for (const RequestRec& r : open.reqs) {
    const double ms = to_ms(r.ready - r.due);
    lat.push_back(ms);
    if (r.answered && ms <= limit_ms) ++in_limit;
  }
  e.n = lat.size();
  std::size_t block = 0;
  e.p50_ms = quantile(lat, 0.5);
  e.p99_ms = block_quantile(lat, 0.99, kP99Block, &block);
  e.beyond_p99 = samples_beyond(block, 0.99);
  e.p99_blocks = e.n / std::max<std::size_t>(1, block);
  e.answered_frac =
      static_cast<double>(in_limit) / static_cast<double>(std::max<std::size_t>(1, e.n));
  e.capacity_rps = cap.rps;
  e.mae_entries = open.mae_entries;
  e.mae = open.mae_entries == 0
              ? 0.0
              : open.mae_sum / static_cast<double>(open.mae_entries);
  return e;
}

/// Runs one open-loop phase and one capacity phase on `svc`, with every
/// check; `tag` names the phases in the checks.
struct PhasePair {
  PhaseResult open;
  CapacityResult cap;
  ServingE2E e2e;
};

PhasePair run_phases(const Args& args, const ServingSpec& spec, const Env& env,
                     Service& svc, Report& report, const std::string& tag,
                     std::vector<ThreadPlan>& thread_plans) {
  PhasePair out;
  Plan plan = plan_open_loop(spec, *svc.traffic, args.seconds, args.seed);
  report.check(svc.traffic->unwrapped(),
               tag + ": open-loop replay stays inside each stream's cycle");
  const std::size_t kernel_workers = ThreadPool::global().num_threads() - 1;
  ThreadPlan open_threads{tag + ".open_loop",
                          {{"loadgen", 1},
                           {"collector", 1},
                           {"event_loop", 1},
                           {"exec_pool", svc.server->num_workers()},
                           {"kernel_pool", kernel_workers}}};
  out.open = run_open_loop(env, svc, plan, open_threads);
  thread_plans.push_back(open_threads);
  ThreadPlan cap_threads{tag + ".capacity",
                         {{"closed_loop", 1},
                          {"event_loop", 1},
                          {"exec_pool", svc.server->num_workers()},
                          {"kernel_pool", kernel_workers}}};
  std::vector<Sample> cap_samples;
  out.cap = run_capacity(svc, spec.capacity_depth * args.depth_factor,
                         spec.capacity_seconds, spec.capacity_group,
                         cap_samples, cap_threads);
  thread_plans.push_back(cap_threads);
  report.count_attempted(out.open.reqs.size() + out.cap.sent);
  report.count_failed(out.open.failed + out.cap.failed);
  check_accounting(report, tag + ".open_loop", out.open.reqs.size(),
                   out.open.answered, out.open.failed, out.open.before,
                   out.open.after);
  check_accounting(report, tag + ".capacity", out.cap.sent, out.cap.answered,
                   out.cap.failed, out.cap.before, out.cap.after);
  verify_samples(report, tag + ".open_loop", env, spec, plan.samples);
  verify_samples(report, tag + ".capacity", env, spec, cap_samples);
  report.check(out.open.publish_ok == spec.publishes,
               tag + ": every publish passed the canary (" +
                   std::to_string(out.open.publish_ok) + "/" +
                   std::to_string(spec.publishes) + ")");
  out.e2e = summarize(out.open, out.cap, spec.latency_limit_ms);
  report.check(out.e2e.beyond_p99 >= 10,
               tag + ": p99 has at least 10 samples beyond it (" +
                   std::to_string(out.e2e.beyond_p99) + ")");
  return out;
}

// ---- traced run -----------------------------------------------------------

/// Matches every read of a traced open-loop phase to the engine call that
/// answered it. The server admits reads in submission order (one generator
/// thread), runs windows in admission order and settles in admission order.
/// A read either opened a new window -- then it is the next window not yet
/// opened, with the read's fingerprint -- or joined the pending window of
/// its (stream, ingest version), which it can only do if that window's call
/// had not started before the read was submitted.
struct Attribution {
  std::vector<std::int64_t> call;  ///< per read; -1 = not matched
  std::size_t unmatched = 0;
  std::size_t ambiguous = 0;  ///< both readings possible; ready time decided
};

Attribution attribute(const PhaseResult& open,
                      const std::vector<CallLog::Call>& calls,
                      const std::vector<std::uint64_t>& fps) {
  Attribution a;
  std::vector<std::size_t> window_call(fps.size());
  for (std::size_t c = 0; c < calls.size(); ++c) {
    for (std::size_t b = 0; b < calls[c].batch; ++b) {
      window_call[calls[c].first + b] = c;
    }
  }
  std::unordered_map<std::uint64_t, std::size_t> open_window;
  std::size_t next = 0;
  for (const RequestRec& r : open.reqs) {
    const auto it = open_window.find(r.fp);
    const bool next_matches = next < fps.size() && fps[next] == r.fp;
    bool join = false;
    if (it != open_window.end() &&
        calls[window_call[it->second]].start_ns >= r.submit0) {
      join = true;
      if (next_matches) {
        ++a.ambiguous;
        // Opened the next window only if it was not yet answered when the
        // joined window's answer would have reached it.
        join = r.ready < calls[window_call[next]].end_ns;
      }
    }
    if (join) {
      a.call.push_back(static_cast<std::int64_t>(window_call[it->second]));
    } else if (next_matches) {
      open_window[r.fp] = next;
      a.call.push_back(static_cast<std::int64_t>(window_call[next]));
      ++next;
    } else {
      a.call.push_back(-1);
      ++a.unmatched;
    }
  }
  return a;
}

/// Per-layer metrics of the traced open-loop phase, the request spans and
/// their sum check, and the tracing overhead. `calls`/`fps` hold that
/// phase's engine calls only.
void report_traced(Report& report, const ServingSpec& spec,
                   const PhasePair& traced, const PhasePair& untraced,
                   const std::vector<CallLog::Call>& calls,
                   const std::vector<std::uint64_t>& fps, SpanLog& spans) {
  const PhaseResult& open = traced.open;
  const Attribution a = attribute(open, calls, fps);
  report.info("attribution: " + std::to_string(open.reqs.size()) +
              " reads, " + std::to_string(calls.size()) + " engine calls, " +
              std::to_string(a.unmatched) + " unmatched, " +
              std::to_string(a.ambiguous) + " decided by ready time");
  report.check(a.unmatched == 0, "traced: every read matched to an engine call");

  std::vector<double> ingest_us, submit_us, wait_ms, settle_ms, late_ms;
  std::size_t within = 0, judged = 0;
  for (std::size_t k = 0; k < open.reqs.size(); ++k) {
    const RequestRec& r = open.reqs[k];
    late_ms.push_back(to_ms(r.send - r.due));
    if (r.ingest) ingest_us.push_back(to_us(r.ingest1 - r.ingest0));
    submit_us.push_back(to_us(r.submit1 - r.submit0));
    const std::uint64_t id = k + 1;
    spans.add("request", id, 0, r.due, r.ready);
    spans.add("loadgen.late", id, id, r.due, r.send);
    if (r.ingest) spans.add("serve.ingest", id, id, r.ingest0, r.ingest1);
    spans.add("serve.submit", id, id, r.submit0, r.submit1);
    if (a.call[k] < 0) continue;
    const CallLog::Call& c = calls[static_cast<std::size_t>(a.call[k])];
    spans.add("serve.queue_wait", id, id, r.submit1, c.start_ns);
    spans.add("core.engine.predict_batch", id, id, c.start_ns, c.end_ns);
    spans.add("serve.settle", id, id, c.end_ns, r.ready);
    wait_ms.push_back(to_ms(c.start_ns - r.submit1));
    settle_ms.push_back(to_ms(r.ready - c.end_ns));
    // Parts: late, ingest, submit, queue wait, engine, settle. The only
    // uncovered time is the gap between the ingest and submit calls.
    const std::int64_t parts[] = {r.send - r.due,
                                  r.ingest ? r.ingest1 - r.ingest0 : 0,
                                  r.submit1 - r.submit0,
                                  c.start_ns - r.submit1,
                                  c.end_ns - c.start_ns,
                                  r.ready - c.end_ns};
    const std::int64_t whole = r.ready - r.due;
    const std::int64_t tol =
        std::max<std::int64_t>(whole / 100, 20'000);  // 1% or 20 us
    std::int64_t sum = 0;
    bool non_negative = true;
    for (const std::int64_t p : parts) {
      sum += p;
      non_negative = non_negative && p >= -tol;
    }
    ++judged;
    if (non_negative && std::llabs(sum - whole) <= tol) ++within;
  }
  const double share =
      judged == 0 ? 0.0
                  : static_cast<double>(within) / static_cast<double>(judged);
  report.info("request parts sum to due->ready latency within max(1%, 20 us), "
              "no part below -tolerance: " +
              std::to_string(within) + "/" + std::to_string(judged));
  report.check(share >= 0.99,
               "traced: request parts sum to the whole for >= 99% of reads");

  std::vector<double> call_ms;
  std::int64_t busy = 0;
  for (const CallLog::Call& c : calls) {
    call_ms.push_back(to_ms(c.end_ns - c.start_ns));
    busy += c.end_ns - c.start_ns;
  }
  const serve::ServerStats& b = open.before;
  const serve::ServerStats& e = open.after;
  const std::size_t d_calls = e.engine_calls - b.engine_calls;
  const std::size_t d_windows = e.batched_windows - b.batched_windows;
  const std::size_t d_requests = e.requests - b.requests;
  const std::size_t d_failed =
      (e.shed_requests - b.shed_requests) +
      (e.deadline_expired - b.deadline_expired) +
      (e.engine_failures - b.engine_failures) +
      (e.aborted_requests - b.aborted_requests);
  report.per_layer("core.engine.call_ms_p50", quantile(call_ms, 0.5),
                   call_ms.size(), "predict_batch inside the server");
  report.per_layer("core.engine.call_ms_p99", quantile(call_ms, 0.99),
                   call_ms.size(), "predict_batch inside the server");
  report.per_layer("core.engine.busy_frac",
                   static_cast<double>(busy) /
                       static_cast<double>(open.end_ns - open.start_ns),
                   calls.size(), "engine-call time / open-loop wall time");
  report.per_layer("core.engine.windows_per_call",
                   d_calls == 0 ? 0.0
                                : static_cast<double>(d_windows) /
                                      static_cast<double>(d_calls),
                   d_calls,
                   "batched_windows " + std::to_string(d_windows) +
                       " / engine_calls " + std::to_string(d_calls));
  report.per_layer("serve.ingest_us_p50", quantile(ingest_us, 0.5),
                   ingest_us.size(), "client-side ingest call");
  report.per_layer("serve.submit_us_p50", quantile(submit_us, 0.5),
                   submit_us.size(), "client-side forecast_async call");
  report.per_layer("serve.queue_wait_ms_p50", quantile(wait_ms, 0.5),
                   wait_ms.size(), "forecast_async return -> engine call");
  report.per_layer("serve.queue_wait_ms_p99", quantile(wait_ms, 0.99),
                   wait_ms.size(), "forecast_async return -> engine call");
  report.per_layer("serve.settle_ms_p50", quantile(settle_ms, 0.5),
                   settle_ms.size(), "engine call end -> future ready");
  report.per_layer("serve.coalesced_frac",
                   d_requests == 0
                       ? 0.0
                       : static_cast<double>(e.coalesced_requests -
                                             b.coalesced_requests) /
                             static_cast<double>(d_requests),
                   d_requests,
                   "coalesced_requests / requests " +
                       std::to_string(d_requests));
  report.per_layer("serve.windows_per_ingest",
                   open.ingests == 0
                       ? 0.0
                       : static_cast<double>(d_windows) /
                             static_cast<double>(open.ingests),
                   open.ingests,
                   "batched_windows / ingests " +
                       std::to_string(open.ingests) +
                       " (1.0 = no recomputation)");
  report.per_layer("serve.failed", static_cast<double>(d_failed), d_requests,
                   "shed + expired + engine failures + aborted");
  report.per_layer("serve.fallback_responses",
                   static_cast<double>(e.fallback_responses -
                                       b.fallback_responses),
                   d_requests);
  report.per_layer("loadgen.late_p99_ms", quantile(late_ms, 0.99),
                   late_ms.size(), "due -> send; inflates forecast_p99_ms");
  if (spec.publishes > 0) {
    report.per_layer("serve.publish_ms", median(open.publish_ms),
                     open.publish_ms.size(), "publish() incl. canary");
    report.per_layer("serve.snapshot_swaps",
                     static_cast<double>(e.snapshot_swaps - b.snapshot_swaps),
                     spec.publishes);
    report.per_layer("serve.quarantined_publishes",
                     static_cast<double>(e.quarantined_publishes -
                                         b.quarantined_publishes),
                     spec.publishes);
  }

  // Tracing overhead: the same schedule, traced minus untraced.
  report.overhead("forecast_p50_ms", traced.e2e.p50_ms, untraced.e2e.p50_ms);
  report.overhead("forecast_p99_ms", traced.e2e.p99_ms, untraced.e2e.p99_ms);
  report.overhead("answered_frac", traced.e2e.answered_frac,
                  untraced.e2e.answered_frac);
  report.overhead("capacity_rps", traced.e2e.capacity_rps,
                  untraced.e2e.capacity_rps);
  report.overhead("forecast_mae", traced.e2e.mae, untraced.e2e.mae);
  report.check(traced.e2e.mae == untraced.e2e.mae,
               "traced and untraced phases serve identical forecasts "
               "(forecast_mae equal)");
}

/// predict_batch at batch 1 and at max_batch, outside the server.
void time_engine(Report& report, const Env& env, const ServingSpec& spec) {
  core::InferenceEngine engine(*env.model, engine_options(spec));
  core::InferenceEngine::Workspace ws = engine.make_workspace();
  std::vector<data::Window> windows;
  for (std::size_t b = 0; b < engine.max_batch(); ++b) {
    windows.push_back(
        env.sampler->make_window(env.split.test[b % env.split.test.size()]));
  }
  std::vector<const data::Window*> ptrs;
  for (const data::Window& w : windows) ptrs.push_back(&w);
  std::vector<double> b1, bmax;
  for (std::size_t r = 0; r < 24; ++r) {
    const std::int64_t a = now_ns();
    (void)engine.predict_batch(ptrs.data(), 1, ws);
    b1.push_back(to_ms(now_ns() - a));
  }
  for (std::size_t r = 0; r < 8; ++r) {
    const std::int64_t a = now_ns();
    (void)engine.predict_batch(ptrs.data(), ptrs.size(), ws);
    bmax.push_back(to_ms(now_ns() - a) / static_cast<double>(ptrs.size()));
  }
  report.per_layer("core.engine.predict_ms_b1", median(b1), b1.size(),
                   "predict_batch, batch 1");
  report.per_layer("core.engine.window_ms_bmax", median(bmax), bmax.size(),
                   "predict_batch at max_batch " +
                       std::to_string(ptrs.size()) + ", per window");
}

}  // namespace

void run_serving(const Args& args, Report& report) {
  const ServingSpec& spec = spec_for(args.workload);
  std::vector<ThreadPlan> thread_plans;
  SpanLog spans;
  const std::size_t kernel_workers = ThreadPool::global().num_threads() - 1;
  ThreadPlan setup_threads{"setup",
                           {{"main", 1},
                            {"trainer_workers", spec.train.num_threads - 1},
                            {"kernel_pool", kernel_workers}}};

  // Set-up, kSetups times; the last one is kept and measured.
  std::vector<SetupRecord> setups(kSetups);
  std::unique_ptr<Env> env;
  Service svc;
  for (SetupRecord& rec : setups) {
    svc = Service{};  // the previous server drains before the next set-up
    env.reset();
    env = set_up(spec, args.seed, svc, rec);
    setup_threads.observe();
    report.info("set-up: " + std::to_string(to_s(rec.end_ns - rec.start_ns)) +
                " s, peak RSS so far " + std::to_string(peak_rss_mib()) +
                " MiB");
  }
  thread_plans.push_back(setup_threads);
  report_setups(report, setups, "core.engine.compile",
                "core.engine.compile_ms", args.trace ? &spans : nullptr);
  const core::GuardCounters& g = env->train_report.guard;
  const double guard_events = static_cast<double>(
      g.batches_skipped + g.nonfinite_losses + g.nonfinite_grads);
  report.per_layer("core.trainer.guard_events", guard_events, 1,
                   "TrainReport::guard counts");
  report.check(guard_events == 0.0, "training guard never intervened");
  const ts::KnnStats& knn = env->graphs->temporal_knn_stats();
  report.per_layer("timeseries.dtw_started_frac",
                   knn.pairs == 0 ? 0.0
                                  : static_cast<double>(knn.dtw_started) /
                                        static_cast<double>(knn.pairs),
                   knn.pairs,
                   knn.pairs == 0 ? "dense DTW graphs: no pruned k-NN scan"
                                  : "dtw_started / pairs");

  // Untraced phases: the end-to-end metrics.
  const PhasePair base = run_phases(args, spec, *env, svc, report, "untraced",
                                    thread_plans);
  const double rss_untraced = peak_rss_mib();
  const ImputeScore imp =
      score_imputation(*env->model, env->ds, *env->norm, env->train_end,
                       spec.impute_windows, 0.2, args.seed ^ 0x686f6c64ULL);
  report.end_to_end("peak_rss_mb", rss_untraced, 1, "getrusage ru_maxrss");
  report.end_to_end("forecast_p50_ms", base.e2e.p50_ms, base.e2e.n,
                    "open loop, due -> future ready");
  report.ungated("forecast_p99_ms", base.e2e.p99_ms, "ms", base.e2e.n,
                    "median over " + std::to_string(base.e2e.p99_blocks) +
                        " blocks of consecutive requests, " +
                        std::to_string(base.e2e.beyond_p99) +
                        " samples beyond each p99");
  report.end_to_end("answered_frac", base.e2e.answered_frac, base.e2e.n,
                    "finite and within " +
                        std::to_string(spec.latency_limit_ms) + " ms");
  report.end_to_end("capacity_rps", base.e2e.capacity_rps,
                    base.cap.completed,
                    "closed loop, depth " +
                        std::to_string(spec.capacity_depth * args.depth_factor) +
                        "; median rate over runs of " +
                        std::to_string(spec.capacity_group) + " completions");
  report.end_to_end("forecast_mae", base.e2e.mae, base.e2e.mae_entries,
                    spec.campus ? "seconds of travel time" : "mph");
  report.end_to_end("impute_mae", imp.mae, imp.entries,
                    std::to_string(imp.windows) + " windows, 20% held out");
  report.check(base.e2e.mae < spec.mae_ceiling && imp.mae < spec.mae_ceiling &&
                   imp.entries > 0,
               "forecast_mae and impute_mae are finite and under " +
                   std::to_string(spec.mae_ceiling));
  report.per_layer("data.make_window_ms", median(imp.make_window_ms),
                   imp.make_window_ms.size(), "WindowSampler::make_window");

  if (args.trace) {
    // A fresh server whose engines time every predict_batch call, replaying
    // the identical schedule from an identical warm-up.
    svc = Service{};
    CallLog log(std::this_thread::get_id());
    compile_engines(svc, spec, [&] {
      return std::make_shared<TracingEngine>(*env->model, engine_options(spec),
                                             log);
    });
    start_server(svc, spec, *env, args.seed);
    warm_up(svc, spec);
    const std::size_t warm_calls = log.calls().size();
    const PhasePair traced = run_phases(args, spec, *env, svc, report,
                                        "traced", thread_plans);
    // The open-loop phase's calls: after the warm-up's, and started before
    // the phase ended (the capacity phase only begins after that).
    std::size_t open_calls = 0;
    const std::vector<CallLog::Call> calls = log.calls();
    for (const CallLog::Call& c : calls) {
      if (c.start_ns < traced.open.end_ns) ++open_calls;
    }
    std::vector<CallLog::Call> trimmed(calls.begin() + warm_calls,
                                       calls.begin() + open_calls);
    const std::vector<std::uint64_t> all_fps = log.fps();
    std::vector<std::uint64_t> fps;
    for (CallLog::Call& c : trimmed) {
      const std::size_t first = fps.size();
      fps.insert(fps.end(), all_fps.begin() + c.first,
                 all_fps.begin() + c.first + c.batch);
      c.first = first;
    }
    report_traced(report, spec, traced, base, trimmed, fps, spans);
    time_engine(report, *env, spec);
    report_train_steps(report,
                       time_train_steps(*env->model, *env->sampler,
                                        env->split.train, 16, spec.train));
    report.info("tracing overhead peak_rss_mb: traced " +
                std::to_string(peak_rss_mib()) + " - untraced " +
                std::to_string(rss_untraced));
    report.info("tracing overhead setup_s, train_samples_per_s, impute_mae: "
                "0 (set-up and imputation run once per process, timed the "
                "same way in both modes)");
    report.check(spans.write(args.trace_out),
                 "spans written to " + args.trace_out);
    report.info("spans: " + std::to_string(spans.size()) + " written to " +
                args.trace_out);
  }
  for (const ThreadPlan& t : thread_plans) t.check(report);
}

}  // namespace perfbench
