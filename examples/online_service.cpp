// Live forecasting service — simulates the deployment loop the paper's
// abstract targets: a trained RIHGCN compiled into a tape-free f32
// core::InferenceEngine behind a serve::ForecastServer (DESIGN.md §14, §15).
//
// Act one feeds one sensor stream the way a misbehaving field deployment
// would: a sensor emitting NaN, a register frozen on one value and a 3-tick
// feed outage, while next-hour forecasts are served on demand. Ingest
// sanitization and stuck-sensor demotion turn the bad readings into gaps,
// and the recurrent imputation machinery absorbs them.
//
// Act two adds streams and four concurrent clients, and a "retrain" thread
// publishes a refreshed engine mid-traffic: micro-batching, request
// coalescing and a zero-pause, canary-gated snapshot swap. The run ends with
// the ServerStats counters an ops dashboard would scrape.
//
// Also prints the model-summary parameter inventory, the kind of artifact
// an ops team wants in the service logs at startup.
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/rihgcn.hpp"
#include "core/trainer.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "serve/server.hpp"

using namespace rihgcn;

int main() {
  // ---- Offline phase: train the model on historical data -------------------
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 12;
  cfg.num_days = 8;
  cfg.steps_per_day = 96;  // 15-minute bins for a snappy demo
  cfg.seed = 321;
  data::TrafficDataset ds = data::generate_pems_like(cfg);
  Rng rng(13);
  data::inject_mcar_readings(ds, 0.3, rng);
  const std::size_t train_end = ds.num_timesteps() * 7 / 10;
  const data::ZScoreNormalizer nz(ds, train_end);

  data::TrafficDataset norm = ds;  // keep `ds` in original units for the feed
  nz.normalize(norm);
  const data::WindowSampler sampler(norm, 8, 4);
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = 3;
  const core::HeterogeneousGraphs graphs(norm, train_end, gcfg, rng);
  core::RihgcnConfig mc;
  mc.lookback = 8;
  mc.horizon = 4;
  mc.gcn_dim = 8;
  mc.lstm_dim = 16;
  core::RihgcnModel model(graphs, ds.num_nodes(), ds.num_features(), mc);
  core::TrainConfig tc;
  tc.max_epochs = 8;
  tc.max_train_windows = 120;
  tc.max_val_windows = 40;
  tc.num_threads = 2;  // data-parallel gradient workers
  core::train_model(model, sampler, sampler.split(), tc);

  std::printf("%s\n", core::model_summary(model).c_str());

  // ---- Online phase: compile, serve, stream readings ------------------------
  // The trained model becomes a frozen f32 plan (no tape, no steady-state
  // allocations) behind one micro-batching event loop.
  serve::ServeConfig scfg;
  scfg.max_batch = 4;
  scfg.max_delay_us = 200;
  scfg.stuck_threshold = 4;  // 4 identical readings flag a frozen register
  serve::ForecastServer server(std::make_shared<core::InferenceEngine>(model),
                               nz, scfg);

  const std::size_t stream_start = train_end + 100;
  const std::size_t feed = server.add_stream(stream_start % ds.steps_per_day);
  std::printf("service started at slot %zu (%.1f h)\n",
              stream_start % ds.steps_per_day,
              static_cast<double>(stream_start % ds.steps_per_day) * 24.0 /
                  static_cast<double>(ds.steps_per_day));

  for (std::size_t tick = 0; tick < 16; ++tick) {
    const std::size_t t = stream_start + tick;
    if (tick >= 6 && tick < 9) {
      server.ingest_gap(feed);  // total feed outage for 3 ticks
    } else {
      // A misbehaving field deployment: sensor #1 emits NaN for a stretch
      // and sensor #2's register freezes — both while the feed still claims
      // the readings are valid. Ingest sanitization + stuck detection demote
      // them to missing; the imputation machinery absorbs the rest.
      Matrix values = ds.truth[t];
      Matrix mask = ds.mask[t];
      if (tick >= 2 && tick < 5) {
        values(1, 0) = std::numeric_limits<double>::quiet_NaN();
        mask(1, 0) = 1.0;
      }
      if (tick >= 2) {
        values(2, 0) = 42.0;  // frozen register
        mask(2, 0) = 1.0;
      }
      server.ingest(feed, values, mask);
    }
    if (tick % 4 == 3) {
      const Matrix f = server.forecast(feed);
      const double truth_next =
          t + 1 < ds.num_timesteps() ? ds.truth[t + 1](0, 0) : -1.0;
      std::printf(
          "tick %2zu  sensor#0 forecast +15min %5.1f mph (truth %5.1f), "
          "+60min %5.1f mph\n",
          tick, f(0, 0), truth_next, f(0, 3));
    }
  }

  // ---- Many streams, many clients, a publish mid-traffic --------------------
  constexpr std::size_t kExtraStreams = 2;
  std::vector<std::size_t> ids{feed};
  for (std::size_t s = 1; s <= kExtraStreams; ++s) {
    ids.push_back(server.add_stream((stream_start + 7 * s) %
                                    ds.steps_per_day));
    for (std::size_t tick = 0; tick < mc.lookback; ++tick) {
      const std::size_t t = stream_start + 7 * s + tick;
      server.ingest(ids.back(), ds.truth[t], ds.mask[t]);
    }
  }

  // Concurrent clients hammer forecasts while a retrain thread publishes a
  // refreshed engine mid-traffic. publish() never pauses serving: the swap
  // is posted to the loop and in-flight batches finish on their snapshot.
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < 25; ++q) {
        (void)server.forecast(ids[(c + q) % ids.size()]);
      }
    });
  }
  bool published = false;  // the canary may quarantine the candidate
  std::thread retrainer([&] {
    published = server.publish(std::make_shared<core::InferenceEngine>(model));
  });
  for (auto& t : clients) t.join();
  retrainer.join();
  (void)server.forecast(ids[0]);  // round-trip so the swap is reflected below

  const serve::ServerStats st = server.stats();
  std::printf("\nforecast server (%zu streams, 4 clients):\n", ids.size());
  auto row = [](const char* label, std::size_t value, const char* note) {
    std::printf("  %-22s %5zu%s%s\n", label, value, *note ? "  " : "", note);
  };
  row("requests", st.requests, "");
  row("responses", st.responses, "(every future answered)");
  row("engine calls", st.engine_calls, "");
  row("batched windows", st.batched_windows, "(micro-batching)");
  row("pooled flushes", st.pooled_flushes, "(0: the loop thread executes)");
  row("coalesced requests", st.coalesced_requests, "");
  row("snapshot swaps", st.snapshot_swaps,
      published ? "(mid-traffic publish applied)"
                : "(mid-traffic publish quarantined)");
  row("quarantined publishes", st.quarantined_publishes, "");
  row("sanitized entries", st.sanitized_entries, "(NaN readings -> missing)");
  row("coerced mask entries", st.coerced_mask_entries, "");
  row("stuck demotions", st.stuck_demotions, "(frozen register -> missing)");
  row("engine failures", st.engine_failures, "");
  row("fallback responses", st.fallback_responses, "");
  row("scrubbed entries", st.scrubbed_entries, "");
  row("breaker opens", st.breaker_opens, "");
  row("breaker probes", st.breaker_probes, "");
  row("breaker closes", st.breaker_closes, "");
  row("shed requests", st.shed_requests, "");
  row("deadline expired", st.deadline_expired, "");
  row("aborted requests", st.aborted_requests, "");
  return 0;
}
