// Live forecasting service — simulates the deployment loop the paper's
// abstract targets: a trained RIHGCN behind an OnlineForecaster, fed a
// stream of partial readings (including a complete feed outage, a sensor
// emitting NaN, and a sensor stuck on one value), serving next-hour
// forecasts and completed history on demand. A HistoricalAverage fallback
// (set_fallback) covers the degraded path, and the run ends with the
// HealthReport an ops dashboard would scrape.
//
// Also prints the model-summary parameter inventory, the kind of artifact
// an ops team wants in the service logs at startup.
//
// The final act scales the same loop up to production shape (DESIGN.md
// §14): the trained model is compiled into a tape-free f32
// core::InferenceEngine and put behind a serve::ForecastServer —
// micro-batching, request coalescing, and a zero-pause engine swap
// published from a "retrain" thread while clients keep querying.
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "baselines/classical.hpp"
#include "core/engine.hpp"
#include "core/online.hpp"
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

  // ---- Online phase: stream readings, serve forecasts ----------------------
  const std::size_t stream_start = train_end + 100;
  core::OnlineForecaster service(model, nz, ds.num_nodes(),
                                 ds.num_features(), mc.lookback, mc.horizon,
                                 ds.steps_per_day,
                                 stream_start % ds.steps_per_day);
  // Degraded-path insurance: if the primary ever throws or emits a
  // non-finite forecast, serve the historical time-of-day average instead.
  baselines::HistoricalAverageModel ha(norm, train_end, mc.lookback,
                                       mc.horizon);
  service.set_fallback(&ha);
  service.set_stuck_threshold(4);
  std::printf("service started at slot %zu (%.1f h)\n", service.next_slot(),
              static_cast<double>(service.next_slot()) * 24.0 /
                  static_cast<double>(ds.steps_per_day));

  for (std::size_t tick = 0; tick < 16; ++tick) {
    const std::size_t t = stream_start + tick;
    if (tick >= 6 && tick < 9) {
      service.push_gap();  // total feed outage for 3 ticks
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
      service.push_reading(values, mask);
    }
    if (tick < 1) continue;  // need at least one reading for a forecast
    if (tick % 4 == 3) {
      const Matrix f = service.forecast();
      const double truth_next =
          t + 1 < ds.num_timesteps() ? ds.truth[t + 1](0, 0) : -1.0;
      std::printf(
          "tick %2zu  coverage %4.0f%%  sensor#0 forecast +15min %5.1f mph "
          "(truth %5.1f), +60min %5.1f mph\n",
          tick, 100.0 * service.buffer_coverage(), f(0, 0), truth_next,
          f(0, 3));
    }
  }

  // ---- Completed history across the outage --------------------------------
  const auto history = service.completed_history();
  std::printf("\ncompleted history (sensor #0, last %zu ticks, mph):\n  ",
              history.size());
  for (const Matrix& h : history) std::printf("%5.1f ", h(0, 0));
  std::printf("\n(the outage ticks above were imputed by the model)\n");

  // ---- Serving health ------------------------------------------------------
  const core::HealthReport hr = service.health();
  std::printf("\nhealth report:\n");
  std::printf("  readings seen        %zu\n", hr.readings_seen);
  std::printf("  buffer coverage      %.0f%%\n", 100.0 * hr.buffer_coverage);
  std::printf("  sanitized entries    %zu (non-finite readings -> missing)\n",
              hr.sanitized_entries);
  std::printf("  coerced mask entries %zu\n", hr.coerced_mask_entries);
  std::printf("  stuck demotions      %zu\n", hr.stuck_demotions);
  std::printf("  forecasts            %zu model / %zu fallback (%zu scrubbed)\n",
              hr.model_forecasts, hr.fallback_forecasts, hr.scrubbed_outputs);
  std::printf("  suspect sensors      ");
  if (hr.suspect_sensors.empty()) {
    std::printf("none");
  } else {
    for (std::size_t i : hr.suspect_sensors) std::printf("#%zu ", i);
  }
  std::printf("\n");

  // ---- Production shape: compiled engine behind a ForecastServer -----------
  // Compile the trained model into a frozen f32 plan (no tape, no steady-
  // state allocations) and serve many streams / many clients through one
  // micro-batching event loop.
  auto engine = std::make_shared<core::InferenceEngine>(model);
  serve::ServeConfig scfg;
  scfg.max_batch = 4;
  scfg.max_delay_us = 200;
  serve::ForecastServer server(engine, nz, scfg);

  constexpr std::size_t kStreams = 3;
  std::vector<std::size_t> ids;
  for (std::size_t s = 0; s < kStreams; ++s) {
    ids.push_back(server.add_stream((stream_start + 7 * s) %
                                    ds.steps_per_day));
  }
  for (std::size_t tick = 0; tick < mc.lookback; ++tick) {
    for (std::size_t s = 0; s < kStreams; ++s) {
      const std::size_t t = stream_start + 7 * s + tick;
      server.ingest(ids[s], ds.truth[t], ds.mask[t]);
    }
  }

  // Concurrent clients hammer forecasts while a retrain thread publishes a
  // refreshed engine mid-traffic. publish() never pauses serving: the swap
  // is posted to the loop and in-flight batches finish on their snapshot.
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < 25; ++q) {
        (void)server.forecast(ids[(c + q) % kStreams]);
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
  std::printf("forecast server (%zu streams, 4 clients):\n", kStreams);
  std::printf("  requests             %zu\n", st.requests);
  std::printf("  responses            %zu (every future answered)\n",
              st.responses);
  std::printf("  engine calls         %zu (batching: %.1f windows/call)\n",
              st.engine_calls,
              st.engine_calls
                  ? static_cast<double>(st.batched_windows) /
                        static_cast<double>(st.engine_calls)
                  : 0.0);
  std::printf("  coalesced requests   %zu\n", st.coalesced_requests);
  std::printf("  snapshot swaps       %zu (mid-traffic publish %s)\n",
              st.snapshot_swaps, published ? "applied" : "quarantined");
  return 0;
}
