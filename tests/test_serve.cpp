// Serving subsystem (DESIGN.md §14): EventLoop + ForecastServer.
//
//  * EventLoopTest.*   — FIFO posts, (deadline, id) timer ordering, cancel,
//    reentrant scheduling from inside handlers.
//  * ServeBatch.*      — micro-batching admission queue: flush at max_batch,
//    flush at max_delay_us, batched answers bitwise equal to one
//    sanitize_reading + ReadingBuffer + InferenceEngine::predict per stream.
//  * OnlineRobust.*    — degraded ingest: NaN/Inf readings, malformed mask
//    entries and frozen registers become missing entries counted in
//    ServerStats; forecasts stay finite across feed gaps and a throwing
//    engine's first call.
//  * ServeCoalesce.*   — concurrent queries for the same (stream, ingest
//    version) share one engine invocation; an ingest in between splits them.
//  * ServeSnapshot.*   — publish() swaps retrained weights under concurrent
//    query load with zero dropped and zero non-finite responses. Runs under
//    TSan via tools/run_tsan.sh.
//  * ServeShutdown.*   — drain()/destruction delivers a typed outcome to
//    every request (never a broken promise), including a racy shutdown storm.
//  * ServeOverload.*   — bounded admission: reject-new and shed-oldest
//    policies, plus the TSan-covered overload storm against a slow, faulty
//    engine (sheds + deadline expiries counted, zero non-finite, zero hangs,
//    recovery once the faults stop).
//  * ServeDeadline.*   — per-request deadlines fail DEADLINE_EXCEEDED before
//    consuming a batch slot; explicit 0 overrides the config default.
//  * ServeBreaker.*    — engine circuit breaker: opens after K consecutive
//    failures, serves from per-stream fallback (last-good, scrub-to-mean,
//    all-mean) while open, half-open probe closes it.
//  * ServePublish.*    — canary-gated publish quarantines a poisoned
//    candidate without perturbing the serving snapshot.
//  * ExecPool.*        — the §16 engine worker pool: per-worker FIFO order,
//    drain-on-destruction.
//  * ServePool.*       — pooled flush execution: bitwise parity with the
//    loop-thread flush at K = 1/2/4 (under coalescing and mid-flight
//    publish), breaker choreography through the flush gate, one gate rule
//    for a multi-chunk flush at every worker count, drain with a flush in
//    flight, and the TSan-covered worker/publisher/drain storm with exact
//    counter accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.hpp"
#include "core/hetero_graphs.hpp"
#include "core/robust.hpp"
#include "core/rihgcn.hpp"
#include "data/generators.hpp"
#include "data/missing.hpp"
#include "serve/error.hpp"
#include "serve/event_loop.hpp"
#include "serve/exec_pool.hpp"
#include "serve/faulty_engine.hpp"
#include "serve/server.hpp"
#include "tensor/rng.hpp"

namespace rihgcn {
namespace {

// ---- EventLoop -------------------------------------------------------------

TEST(EventLoopTest, PostsRunFifo) {
  serve::EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.post([&order, i] { order.push_back(i); });
  }
  loop.post([&loop] { loop.stop(); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoopTest, TimersFireInDeadlineThenRegistrationOrder) {
  serve::EventLoop loop;
  std::vector<int> order;
  const auto base = serve::EventLoop::Clock::now() +
                    std::chrono::milliseconds(5);
  // Registered out of deadline order; 1 and 2 share a deadline, so they
  // must fire in registration order.
  loop.add_time_handler(base + std::chrono::milliseconds(4),
                        [&order] { order.push_back(3); });
  loop.add_time_handler(base, [&order] { order.push_back(1); });
  loop.add_time_handler(base, [&order] { order.push_back(2); });
  loop.add_time_handler(base - std::chrono::milliseconds(3),
                        [&order] { order.push_back(0); });
  loop.add_time_handler(base + std::chrono::milliseconds(8),
                        [&loop] { loop.stop(); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventLoopTest, CancelDropsPendingTimer) {
  serve::EventLoop loop;
  std::atomic<int> fired{0};
  const auto id = loop.add_time_handler_after(std::chrono::microseconds(2000),
                                              [&fired] { ++fired; });
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));  // already gone
  loop.add_time_handler_after(std::chrono::microseconds(4000),
                              [&loop] { loop.stop(); });
  loop.run();
  EXPECT_EQ(fired.load(), 0);
}

TEST(EventLoopTest, HandlersCanScheduleMoreWork) {
  serve::EventLoop loop;
  std::vector<int> order;
  loop.post([&] {
    order.push_back(0);
    loop.add_time_handler_after(std::chrono::microseconds(500), [&] {
      order.push_back(1);
      loop.post([&] {
        order.push_back(2);
        loop.stop();
      });
    });
  });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(EventLoopTest, StartRunsOnBackgroundThread) {
  serve::EventLoop loop;
  std::promise<void> ran;
  loop.start();
  loop.post([&ran] { ran.set_value(); });
  ran.get_future().wait();
  EXPECT_TRUE(loop.running());
  loop.stop();
}

// ---- ForecastServer fixtures -----------------------------------------------

struct ServeFixture {
  data::TrafficDataset ds;
  std::unique_ptr<core::HeterogeneousGraphs> graphs;
  std::unique_ptr<core::RihgcnModel> model;
  std::unique_ptr<data::ZScoreNormalizer> normalizer;
};

ServeFixture make_fixture(std::size_t seed = 11) {
  ServeFixture s;
  data::PemsLikeConfig cfg;
  cfg.num_nodes = 6;
  cfg.num_days = 2;
  cfg.steps_per_day = 48;
  cfg.seed = seed;
  s.ds = data::generate_pems_like(cfg);
  Rng rng(5);
  data::inject_mcar(s.ds, 0.3, rng);
  const std::size_t train_end = s.ds.num_timesteps() * 7 / 10;
  s.normalizer = std::make_unique<data::ZScoreNormalizer>(s.ds, train_end);
  s.normalizer->normalize(s.ds);
  core::HeteroGraphsConfig gcfg;
  gcfg.num_temporal_graphs = 2;
  gcfg.partition_slots = 24;
  s.graphs = std::make_unique<core::HeterogeneousGraphs>(s.ds, train_end,
                                                         gcfg, rng);
  core::RihgcnConfig mc;
  mc.lookback = 4;
  mc.horizon = 3;
  mc.gcn_dim = 4;
  mc.lstm_dim = 4;
  mc.cheb_order = 2;
  s.model = std::make_unique<core::RihgcnModel>(*s.graphs, s.ds.num_nodes(),
                                                s.ds.num_features(), mc);
  return s;
}

/// One original-units reading (values, mask) taken from the dataset, but
/// denormalized so the server's ingest normalization round-trips it.
std::pair<Matrix, Matrix> reading_at(const ServeFixture& s, std::size_t t) {
  Matrix values(s.ds.num_nodes(), s.ds.num_features());
  Matrix mask(s.ds.num_nodes(), s.ds.num_features());
  for (std::size_t i = 0; i < values.rows(); ++i) {
    for (std::size_t f = 0; f < values.cols(); ++f) {
      mask(i, f) = s.ds.mask[t](i, f);
      values(i, f) =
          s.normalizer->denormalize(s.ds.truth[t](i, f), f) * mask(i, f);
    }
  }
  return {values, mask};
}

// ---- micro-batching --------------------------------------------------------

TEST(ServeBatch, MatchesEnginePredictPerStream) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_us = 200;
  serve::ForecastServer server(engine, *s.normalizer, cfg);

  // Reference: each stream on its own — the shared ingest primitives and a
  // single-window engine call, denormalized like the server does.
  core::InferenceEngine ref_engine(*s.model);
  const std::size_t n = s.ds.num_nodes(), f = s.ds.num_features();
  const std::size_t num_streams = 3;
  std::vector<std::size_t> ids;
  std::vector<core::ReadingBuffer> refs;
  for (std::size_t k = 0; k < num_streams; ++k) {
    const std::size_t slot = 5 * k;
    ids.push_back(server.add_stream(slot));
    refs.emplace_back(n, f, engine->lookback(), engine->steps_per_day(), slot,
                      cfg.stuck_threshold);
  }
  for (std::size_t t = 0; t < 6; ++t) {
    for (std::size_t k = 0; k < num_streams; ++k) {
      auto [values, mask] = reading_at(s, 10 * k + t);
      server.ingest(ids[k], values, mask);
      Matrix z(n, f), m(n, f);
      core::sanitize_reading(values, mask, *s.normalizer, z, m);
      refs[k].push(std::move(z), std::move(m));
    }
  }
  // All three streams queried back-to-back: batched through shared engine
  // invocations, each result bitwise equal to its single-stream reference.
  std::vector<std::future<Matrix>> futs;
  for (std::size_t k = 0; k < num_streams; ++k) {
    futs.push_back(server.forecast_async(ids[k]));
  }
  for (std::size_t k = 0; k < num_streams; ++k) {
    const Matrix got = futs[k].get();
    Matrix want = ref_engine.predict(refs[k].window());
    for (std::size_t i = 0; i < want.size(); ++i) {
      want.data()[i] = s.normalizer->denormalize(want.data()[i], 0);
    }
    ASSERT_TRUE(got.same_shape(want));
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(double)),
              0)
        << "stream " << k;
    EXPECT_FALSE(got.has_non_finite());
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.requests, num_streams);
  EXPECT_EQ(st.responses, num_streams);
  EXPECT_EQ(st.batched_windows, num_streams);
}

TEST(ServeBatch, FlushesAtMaxBatchWithoutWaitingForTimer) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_us = 60'000'000;  // a timer-based flush would hang the test
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  std::vector<std::size_t> ids;
  for (std::size_t k = 0; k < cfg.max_batch; ++k) {
    ids.push_back(server.add_stream(k));
    auto [values, mask] = reading_at(s, 3 * k);
    server.ingest(ids[k], values, mask);
  }
  std::vector<std::future<Matrix>> futs;
  for (std::size_t id : ids) futs.push_back(server.forecast_async(id));
  for (auto& f : futs) {
    EXPECT_FALSE(f.get().has_non_finite());
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.engine_calls, 1u);  // one shared invocation for all four
  EXPECT_EQ(st.batched_windows, 4u);
}

TEST(ServeBatch, TimerFlushesPartialBatch) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 300;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 0);
  server.ingest(id, values, mask);
  // One lone request can never reach max_batch; only the delay timer
  // releases it.
  Matrix got = server.forecast(id);
  EXPECT_EQ(got.rows(), s.ds.num_nodes());
  EXPECT_FALSE(got.has_non_finite());
  EXPECT_EQ(server.stats().engine_calls, 1u);
}

TEST(ServeBatch, ErrorsSurfaceThroughFutures) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ForecastServer server(engine, *s.normalizer, serve::ServeConfig{});
  EXPECT_THROW((void)server.forecast_async(7), std::invalid_argument);
  const std::size_t id = server.add_stream();
  // No readings yet: the failure rides the future, not the caller thread.
  EXPECT_THROW((void)server.forecast(id), std::logic_error);
  Matrix bad(1, 1);
  EXPECT_THROW(server.ingest(id, bad, bad), ShapeError);
}

// ---- coalescing ------------------------------------------------------------

TEST(ServeCoalesce, SameVersionQueriesShareOneWindow) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 2000;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 1);
  server.ingest(id, values, mask);

  std::vector<std::future<Matrix>> futs;
  for (int k = 0; k < 5; ++k) futs.push_back(server.forecast_async(id));
  std::vector<Matrix> results;
  for (auto& f : futs) results.push_back(f.get());
  for (std::size_t k = 1; k < results.size(); ++k) {
    EXPECT_EQ(results[k], results[0]);
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.requests, 5u);
  EXPECT_EQ(st.responses, 5u);
  EXPECT_EQ(st.engine_calls, 1u);
  EXPECT_EQ(st.batched_windows, 1u);  // five requests, ONE window
  EXPECT_EQ(st.coalesced_requests, 4u);
}

TEST(ServeCoalesce, IngestSplitsCoalescingGenerations) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 2000;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [v0, m0] = reading_at(s, 1);
  server.ingest(id, v0, m0);
  auto f1 = server.forecast_async(id);
  auto f2 = server.forecast_async(id);
  auto [v1, m1] = reading_at(s, 2);
  server.ingest(id, v1, m1);  // bumps the version: no coalescing across it
  auto f3 = server.forecast_async(id);
  const Matrix r1 = f1.get();
  const Matrix r2 = f2.get();
  const Matrix r3 = f3.get();
  EXPECT_EQ(r1, r2);
  EXPECT_NE(r3, r1);  // saw one more reading
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.coalesced_requests, 1u);
  EXPECT_EQ(st.batched_windows, 2u);
}

// ---- snapshot swap under load ----------------------------------------------

TEST(ServeSnapshot, PublishValidatesDimensions) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ForecastServer server(engine, *s.normalizer, serve::ServeConfig{});
  core::RihgcnConfig mc;
  mc.lookback = 4;
  mc.horizon = 5;  // horizon mismatch
  mc.gcn_dim = 4;
  mc.lstm_dim = 4;
  mc.cheb_order = 2;
  core::RihgcnModel other(*s.graphs, s.ds.num_nodes(), s.ds.num_features(),
                          mc);
  EXPECT_THROW(
      (void)server.publish(std::make_shared<core::InferenceEngine>(other)),
      std::invalid_argument);
  EXPECT_THROW((void)server.publish(nullptr), std::invalid_argument);
  EXPECT_EQ(server.stats().snapshot_swaps, 0u);
}

// The acceptance-criteria test, run under TSan by tools/run_tsan.sh: client
// threads hammer forecasts while a "retrain" thread keeps publishing
// perturbed engines. Every request must be answered (zero dropped) with
// finite values (zero non-finite), and at least one response must reflect
// post-swap weights.
TEST(ServeSnapshot, SwapUnderLoad) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_us = 100;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 4);
  server.ingest(id, values, mask);
  const Matrix baseline = server.forecast(id);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 40;
  constexpr std::size_t kSwaps = 6;
  std::atomic<std::size_t> answered{0};
  std::atomic<std::size_t> non_finite{0};
  std::atomic<std::size_t> changed{0};

  std::thread retrainer([&] {
    for (std::size_t r = 0; r < kSwaps; ++r) {
      for (ad::Parameter* p : s.model->parameters()) {
        Matrix& v = p->value();
        for (std::size_t i = 0; i < v.size(); ++i) {
          v.data()[i] += 0.01 * static_cast<double>(r + 1);
        }
      }
      EXPECT_TRUE(
          server.publish(std::make_shared<core::InferenceEngine>(*s.model)));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t q = 0; q < kPerClient; ++q) {
        const Matrix got = server.forecast(id);
        ++answered;
        if (got.has_non_finite()) ++non_finite;
        if (got != baseline) ++changed;
      }
    });
  }
  for (auto& t : clients) t.join();
  retrainer.join();
  // Fence: publish() posts its swap to the loop, so one more round-trip
  // through the (FIFO) loop queue guarantees every swap has been applied
  // before the counters below are read.
  (void)server.forecast(id);

  EXPECT_EQ(answered.load(), kClients * kPerClient);  // zero dropped
  EXPECT_EQ(non_finite.load(), 0u);
  EXPECT_GT(changed.load(), 0u);  // retrained weights actually served
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.snapshot_swaps, kSwaps);
  EXPECT_EQ(st.responses, kClients * kPerClient + 2);
  // Coalescing + batching under concurrency: strictly fewer engine calls
  // than requests.
  EXPECT_LT(st.engine_calls, st.requests);
}

// ---- graceful shutdown -----------------------------------------------------

// Regression: pre-§15 the destructor abandoned queued requests, so .get()
// threw a bare std::future_error{broken_promise}. Now every request queued
// at drain time resolves to a value (final flush) and everything arriving
// after resolves to ServeError{SHUTTING_DOWN} — a .get() always reports a
// meaningful, typed outcome.
TEST(ServeShutdown, QueuedRequestsResolveOnDestruction) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  std::vector<std::future<Matrix>> futs;
  {
    serve::ServeConfig cfg;
    cfg.max_batch = 8;
    cfg.max_delay_us = 60'000'000;  // only drain's final flush can serve these
    serve::ForecastServer server(engine, *s.normalizer, cfg);
    const std::size_t id = server.add_stream();
    auto [values, mask] = reading_at(s, 0);
    server.ingest(id, values, mask);
    futs.push_back(server.forecast_async(id));
    futs.push_back(server.forecast_async(id));
  }  // destructor == drain()
  for (auto& f : futs) {
    EXPECT_FALSE(f.get().has_non_finite());  // served, not abandoned
  }
}

TEST(ServeShutdown, RequestsAfterDrainGetTypedShutdownError) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ForecastServer server(engine, *s.normalizer, serve::ServeConfig{});
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 0);
  server.ingest(id, values, mask);
  server.drain();
  EXPECT_TRUE(server.draining());
  auto fut = server.forecast_async(id);
  try {
    (void)fut.get();
    FAIL() << "expected ServeError{SHUTTING_DOWN}";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::ServeStatus::kShuttingDown);
    EXPECT_NE(std::string(e.what()).find("SHUTTING_DOWN"), std::string::npos);
  }
  EXPECT_THROW(server.ingest(id, values, mask), serve::ServeError);
  EXPECT_THROW((void)server.add_stream(), serve::ServeError);
  EXPECT_EQ(server.stats().aborted_requests, 1u);
  server.drain();  // idempotent
}

// Racy shutdown storm (TSan-covered): clients fire requests while another
// thread drains. Every future must resolve to a finite value or a
// ServeError — a std::future_error anywhere fails the test.
TEST(ServeShutdown, RacyDrainNeverBreaksPromises) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.max_delay_us = 100;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 0);
  server.ingest(id, values, mask);

  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 50;
  std::atomic<std::size_t> values_seen{0};
  std::atomic<std::size_t> typed_errors{0};
  std::atomic<std::size_t> broken{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (std::size_t q = 0; q < kPerClient; ++q) {
        try {
          const Matrix got = server.forecast_async(id).get();
          EXPECT_FALSE(got.has_non_finite());
          ++values_seen;
        } catch (const serve::ServeError&) {
          ++typed_errors;
        } catch (const std::future_error&) {
          ++broken;
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  server.drain();  // races the clients above
  for (auto& t : clients) t.join();
  EXPECT_EQ(broken.load(), 0u);
  EXPECT_EQ(values_seen.load() + typed_errors.load(), kClients * kPerClient);
}

TEST(ServeShutdown, NoReadingsFailsEagerlyWithoutQueueing) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 60'000'000;  // a queued request would hang the test
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto fut = server.forecast_async(id);
  // Resolved on the calling thread, before any loop round-trip: the request
  // never occupied a queue slot.
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_THROW((void)fut.get(), std::logic_error);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.requests, 1u);
  EXPECT_EQ(st.shed_requests, 0u);
}

// ---- bounded admission -----------------------------------------------------

/// Fixture helper: a server whose admission queue can actually fill up —
/// flush thresholds parked far away, `max_queue` distinct streams.
struct OverloadRig {
  ServeFixture s;
  std::unique_ptr<serve::ForecastServer> server;
  std::vector<std::size_t> ids;
};

OverloadRig make_overload_rig(serve::ShedPolicy policy, std::size_t max_queue,
                              std::size_t num_streams) {
  OverloadRig r;
  r.s = make_fixture();
  core::InferenceEngine::Options opts;
  opts.max_batch = 16;
  auto engine = std::make_shared<core::InferenceEngine>(*r.s.model, opts);
  serve::ServeConfig cfg;
  cfg.max_batch = 16;                // never flush on size during the test
  cfg.max_delay_us = 60'000'000;     // nor on the timer
  cfg.max_queue = max_queue;
  cfg.shed_policy = policy;
  r.server = std::make_unique<serve::ForecastServer>(engine, *r.s.normalizer,
                                                     cfg);
  for (std::size_t k = 0; k < num_streams; ++k) {
    r.ids.push_back(r.server->add_stream(k));
    auto [values, mask] = reading_at(r.s, 2 * k);
    r.server->ingest(r.ids[k], values, mask);
  }
  return r;
}

TEST(ServeOverload, RejectNewFailsRequestsBeyondMaxQueue) {
  OverloadRig r = make_overload_rig(serve::ShedPolicy::kRejectNew,
                                    /*max_queue=*/4, /*num_streams=*/6);
  std::vector<std::future<Matrix>> futs;
  for (std::size_t id : r.ids) futs.push_back(r.server->forecast_async(id));
  // Requests 4 and 5 needed a new window slot in a full queue: OVERLOADED.
  for (std::size_t k = 4; k < 6; ++k) {
    try {
      (void)futs[k].get();
      FAIL() << "request " << k << " should have been rejected";
    } catch (const serve::ServeError& e) {
      EXPECT_EQ(e.status(), serve::ServeStatus::kOverloaded);
    }
  }
  // Coalescing attaches never count against max_queue.
  auto coalesced = r.server->forecast_async(r.ids[0]);
  r.server->drain();  // final flush serves the 4 admitted windows
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_FALSE(futs[k].get().has_non_finite());
  }
  EXPECT_FALSE(coalesced.get().has_non_finite());
  const serve::ServerStats st = r.server->stats();
  EXPECT_EQ(st.shed_requests, 2u);
  EXPECT_EQ(st.coalesced_requests, 1u);
  EXPECT_EQ(st.responses, 5u);
}

TEST(ServeOverload, ShedOldestEvictsTheFrontOfTheQueue) {
  OverloadRig r = make_overload_rig(serve::ShedPolicy::kShedOldest,
                                    /*max_queue=*/4, /*num_streams=*/6);
  std::vector<std::future<Matrix>> futs;
  for (std::size_t id : r.ids) futs.push_back(r.server->forecast_async(id));
  // Streams 0 and 1 were at the front when 4 and 5 arrived: they pay.
  for (std::size_t k = 0; k < 2; ++k) {
    try {
      (void)futs[k].get();
      FAIL() << "oldest request " << k << " should have been shed";
    } catch (const serve::ServeError& e) {
      EXPECT_EQ(e.status(), serve::ServeStatus::kOverloaded);
    }
  }
  r.server->drain();
  for (std::size_t k = 2; k < 6; ++k) {
    EXPECT_FALSE(futs[k].get().has_non_finite());
  }
  EXPECT_EQ(r.server->stats().shed_requests, 2u);
}

// The §15 acceptance storm, run under TSan by tools/run_tsan.sh: 4 client
// threads hammer a deliberately slow, fault-injecting engine behind a tiny
// queue with tight deadlines. Every request must resolve to a typed outcome
// (value / OVERLOADED / DEADLINE_EXCEEDED — never a broken promise or a
// hang), values must be finite even when the engine throws or emits NaN,
// and once the faults stop the server must recover to genuine engine
// serving.
TEST(ServeOverload, OverloadStormShedsFailsFastAndRecovers) {
  ServeFixture s = make_fixture();
  core::InferenceEngine::Options opts;
  opts.max_batch = 2;
  serve::FaultyEngine::FaultConfig faults;
  faults.latency_us = 1500;  // ~2x over capacity at the client rates below
  faults.throw_rate = 0.10;
  faults.nan_rate = 0.10;
  faults.seed = 0xdecafULL;
  auto engine =
      std::make_shared<serve::FaultyEngine>(*s.model, opts, faults);
  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.max_delay_us = 200;
  // max_queue below max_batch: only the delay timer flushes, so concurrent
  // distinct-stream arrivals genuinely contend for the one queue slot.
  cfg.max_queue = 1;
  cfg.default_deadline_us = 4'000;
  cfg.breaker_threshold = 3;
  cfg.breaker_cooldown_us = 2'000;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 40;
  std::vector<std::size_t> ids;
  for (std::size_t c = 0; c < kClients; ++c) {
    ids.push_back(server.add_stream(c));
    auto [values, mask] = reading_at(s, 3 * c);
    server.ingest(ids[c], values, mask);
  }
  std::atomic<std::size_t> values_seen{0};
  std::atomic<std::size_t> shed{0};
  std::atomic<std::size_t> expired{0};
  std::atomic<std::size_t> other_errors{0};
  std::atomic<std::size_t> non_finite{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < kPerClient; ++q) {
        try {
          // Every 4th request carries a deadline tighter than one engine
          // call — under sustained load some of these MUST expire.
          const std::optional<std::uint64_t> deadline =
              (q % 4 == 3) ? std::optional<std::uint64_t>(300) : std::nullopt;
          const Matrix got = server.forecast_async(ids[c], deadline).get();
          if (got.has_non_finite()) ++non_finite;
          ++values_seen;
        } catch (const serve::ServeError& e) {
          if (e.status() == serve::ServeStatus::kOverloaded) {
            ++shed;
          } else if (e.status() == serve::ServeStatus::kDeadlineExceeded) {
            ++expired;
          } else {
            ++other_errors;
          }
        }
        if (q % 8 == 7) {  // fresh ingests keep the windows splitting
          auto [values, mask] = reading_at(s, (q + 5 * c) % 40);
          try {
            server.ingest(ids[c], values, mask);
          } catch (const serve::ServeError&) {
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  // Zero hangs is implicit (the joins returned); every request resolved.
  EXPECT_EQ(values_seen.load() + shed.load() + expired.load() +
                other_errors.load(),
            kClients * kPerClient);
  EXPECT_EQ(non_finite.load(), 0u);
  EXPECT_EQ(other_errors.load(), 0u);
  const serve::ServerStats mid = server.stats();
  EXPECT_EQ(mid.shed_requests, shed.load());
  EXPECT_EQ(mid.deadline_expired, expired.load());
  EXPECT_GT(mid.shed_requests + mid.deadline_expired, 0u);  // storm really bit
  // Recovery: with the injected faults a matter of rate, keep asking until
  // one response is served by the engine itself (fallback counter flat).
  bool recovered = false;
  for (int attempt = 0; attempt < 100 && !recovered; ++attempt) {
    const std::size_t fallback_before = server.stats().fallback_responses;
    try {
      const Matrix got = server.forecast_async(ids[0], /*deadline_us=*/0).get();
      EXPECT_FALSE(got.has_non_finite());
      recovered = server.stats().fallback_responses == fallback_before;
    } catch (const serve::ServeError&) {
    }
    if (!recovered) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_TRUE(recovered);
}

// ---- deadlines -------------------------------------------------------------

TEST(ServeDeadline, ExpiresInQueueWithTypedError) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 60'000'000;  // the flush timer never saves it
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 0);
  server.ingest(id, values, mask);
  auto fut = server.forecast_async(id, /*deadline_us=*/500);
  try {
    (void)fut.get();
    FAIL() << "expected DEADLINE_EXCEEDED";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::ServeStatus::kDeadlineExceeded);
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.deadline_expired, 1u);
  EXPECT_EQ(st.engine_calls, 0u);  // never consumed a batch slot
}

TEST(ServeDeadline, ConfigDefaultAppliesAndExplicitZeroDisables) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 20'000;        // flush well after the default deadline
  cfg.default_deadline_us = 1'000;  // inherited by plain forecast_async
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 0);
  server.ingest(id, values, mask);
  auto inherited = server.forecast_async(id);
  EXPECT_THROW((void)inherited.get(), serve::ServeError);
  // Explicit 0 opts this request out of the default: the (slow) flush timer
  // serves it.
  auto unbounded = server.forecast_async(id, /*deadline_us=*/0);
  EXPECT_FALSE(unbounded.get().has_non_finite());
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.deadline_expired, 1u);
  EXPECT_EQ(st.responses, 1u);
}

// ---- circuit breaker + fallback --------------------------------------------

TEST(ServeBreaker, OpensServesFallbackAndClosesViaProbe) {
  ServeFixture s = make_fixture();
  serve::FaultyEngine::FaultConfig faults;  // forced faults only
  auto engine = std::make_shared<serve::FaultyEngine>(
      *s.model, core::InferenceEngine::Options{}, faults);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown_us = 200'000;  // long enough to observe OPEN behavior
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 0);
  server.ingest(id, values, mask);
  const Matrix baseline = server.forecast(id);  // engine success → last_good
  EXPECT_EQ(server.breaker_state(), serve::BreakerState::kClosed);

  engine->force_throw_next(2);
  const Matrix fb1 = server.forecast(id);
  EXPECT_EQ(server.breaker_state(), serve::BreakerState::kClosed);  // 1 of 2
  const Matrix fb2 = server.forecast(id);
  EXPECT_EQ(server.breaker_state(), serve::BreakerState::kOpen);
  EXPECT_EQ(fb1, baseline);  // degraded path = last good forecast
  EXPECT_EQ(fb2, baseline);

  // While OPEN, requests are answered from fallback WITHOUT touching the
  // engine.
  const std::size_t calls_before = engine->calls();
  const Matrix fb3 = server.forecast(id);
  EXPECT_EQ(fb3, baseline);
  EXPECT_EQ(engine->calls(), calls_before);

  std::this_thread::sleep_for(std::chrono::microseconds(
      cfg.breaker_cooldown_us + 50'000));
  const Matrix probe = server.forecast(id);  // half-open probe, succeeds
  EXPECT_EQ(probe, baseline);                // same window, same engine
  EXPECT_EQ(server.breaker_state(), serve::BreakerState::kClosed);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.engine_failures, 2u);
  EXPECT_EQ(st.breaker_opens, 1u);
  EXPECT_EQ(st.breaker_probes, 1u);
  EXPECT_EQ(st.breaker_closes, 1u);
  EXPECT_EQ(st.fallback_responses, 3u);
  EXPECT_EQ(st.responses, 5u);  // every request answered with a value
}

TEST(ServeBreaker, NanOutputScrubsToMeanThenPrefersLastGood) {
  ServeFixture s = make_fixture();
  serve::FaultyEngine::FaultConfig faults;
  auto engine = std::make_shared<serve::FaultyEngine>(
      *s.model, core::InferenceEngine::Options{}, faults);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 0);
  server.ingest(id, values, mask);

  // First forecast EVER is poisoned: no last-good yet, so the engine output
  // is scrubbed entry-wise — the one NaN becomes the historical mean, the
  // rest of the matrix is the engine's own (finite) prediction.
  engine->force_nan_next(1);
  const Matrix scrubbed = server.forecast(id);
  EXPECT_FALSE(scrubbed.has_non_finite());
  EXPECT_DOUBLE_EQ(scrubbed(0, 0), s.normalizer->denormalize(0.0, 0));
  serve::ServerStats st = server.stats();
  EXPECT_EQ(st.scrubbed_entries, 1u);
  EXPECT_EQ(st.fallback_responses, 1u);

  const Matrix good = server.forecast(id);  // clean call → last_good
  EXPECT_FALSE(good.has_non_finite());
  engine->force_nan_next(1);
  const Matrix fb = server.forecast(id);
  EXPECT_EQ(fb, good);  // last-good now outranks the scrub path
  st = server.stats();
  EXPECT_EQ(st.scrubbed_entries, 1u);  // unchanged — no scrub this time
  EXPECT_EQ(st.fallback_responses, 2u);
  EXPECT_EQ(st.engine_failures, 2u);
}

TEST(ServeBreaker, DisabledDegradedServingSurfacesEngineFailure) {
  ServeFixture s = make_fixture();
  serve::FaultyEngine::FaultConfig faults;
  auto engine = std::make_shared<serve::FaultyEngine>(
      *s.model, core::InferenceEngine::Options{}, faults);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  cfg.degraded_serving = false;  // typed error beats a stale number
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 0);
  server.ingest(id, values, mask);
  engine->force_throw_next(1);
  auto fut = server.forecast_async(id);
  try {
    (void)fut.get();
    FAIL() << "expected ENGINE_FAILURE";
  } catch (const serve::ServeError& e) {
    EXPECT_EQ(e.status(), serve::ServeStatus::kEngineFailure);
  }
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.engine_failures, 1u);
  EXPECT_EQ(st.fallback_responses, 0u);
  EXPECT_EQ(st.responses, 0u);
}

// ---- degraded ingest (OnlineRobust) ----------------------------------------
//
// A live feed carries NaN/Inf readings, malformed mask bits, frozen registers
// and outages. Each case is checked against a second stream fed what the
// server should turn the bad reading into: the two forecasts must be equal.

/// A flat original-units reading: every entry `value`, every mask bit set.
std::pair<Matrix, Matrix> flat_reading(const ServeFixture& s, double value) {
  return {Matrix(s.ds.num_nodes(), s.ds.num_features(), value),
          Matrix(s.ds.num_nodes(), s.ds.num_features(), 1.0)};
}

TEST(OnlineRobust, SanitizesNonFiniteReadings) {
  ServeFixture s = make_fixture();
  serve::ForecastServer server(
      std::make_shared<core::InferenceEngine>(*s.model), *s.normalizer,
      serve::ServeConfig{});
  const std::size_t corrupt = server.add_stream();
  const std::size_t reported = server.add_stream();
  auto [values, mask] = flat_reading(s, 50.0);
  Matrix bad = values;
  bad(0, 0) = std::numeric_limits<double>::quiet_NaN();
  bad(1, 2) = std::numeric_limits<double>::infinity();
  server.ingest(corrupt, bad, mask);
  mask(0, 0) = mask(1, 2) = 0.0;  // what sanitizing turns them into
  server.ingest(reported, values, mask);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.sanitized_entries, 2u);
  EXPECT_EQ(st.coerced_mask_entries, 0u);
  // One reading each: both windows are warm-up padded.
  const Matrix pred = server.forecast(corrupt);
  EXPECT_FALSE(pred.has_non_finite());
  EXPECT_EQ(pred, server.forecast(reported));
}

TEST(OnlineRobust, CoercesMalformedMaskEntries) {
  ServeFixture s = make_fixture();
  serve::ForecastServer server(
      std::make_shared<core::InferenceEngine>(*s.model), *s.normalizer,
      serve::ServeConfig{});
  const std::size_t malformed = server.add_stream();
  const std::size_t reported = server.add_stream();
  auto [values, mask] = flat_reading(s, 50.0);
  Matrix bad = mask;
  bad(0, 0) = 0.7;   // not in {0,1} but > 0.5 -> treated observed
  bad(1, 1) = -3.0;  // -> treated missing
  bad(2, 2) = std::numeric_limits<double>::quiet_NaN();  // -> missing
  server.ingest(malformed, values, bad);
  mask(1, 1) = mask(2, 2) = 0.0;
  server.ingest(reported, values, mask);
  EXPECT_EQ(server.stats().coerced_mask_entries, 3u);
  EXPECT_EQ(server.stats().sanitized_entries, 0u);
  EXPECT_EQ(server.forecast(malformed), server.forecast(reported));
}

TEST(OnlineRobust, StuckSensorFlaggedDemotedAndRecovers) {
  ServeFixture s = make_fixture();
  serve::ServeConfig cfg;
  cfg.stuck_threshold = 3;
  serve::ForecastServer server(
      std::make_shared<core::InferenceEngine>(*s.model), *s.normalizer, cfg);
  const std::size_t frozen = server.add_stream();
  const std::size_t reported = server.add_stream();
  for (std::size_t tick = 0; tick < 6; ++tick) {
    auto [values, mask] =
        flat_reading(s, 40.0 + static_cast<double>(tick));  // others jitter
    values(2, 0) = 42.0;  // node 2's register is frozen
    server.ingest(frozen, values, mask);
    if (tick >= 2) {  // flagged from the 3rd repeat on: the row goes missing
      for (std::size_t f = 0; f < mask.cols(); ++f) mask(2, f) = 0.0;
    }
    server.ingest(reported, values, mask);
  }
  // The forecast round trip also fences the loop-side demotion counter.
  EXPECT_EQ(server.forecast(frozen), server.forecast(reported));
  const std::size_t demoted = server.stats().stuck_demotions;
  EXPECT_GE(demoted, 3u);

  // The register thaws: the flag clears on the next changed reading.
  auto [values, mask] = flat_reading(s, 50.0);
  values(2, 0) = 17.0;
  server.ingest(frozen, values, mask);
  server.ingest(reported, values, mask);
  EXPECT_EQ(server.forecast(frozen), server.forecast(reported));
  EXPECT_EQ(server.stats().stuck_demotions, demoted);
}

TEST(OnlineRobust, HealthyStreamReportsNoSuspectsOrFallbacks) {
  ServeFixture s = make_fixture();
  serve::ServeConfig cfg;
  cfg.stuck_threshold = 3;  // armed low: real traffic still never repeats
  serve::ForecastServer server(
      std::make_shared<core::InferenceEngine>(*s.model), *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  for (std::size_t t = 0; t < 8; ++t) {
    auto [values, mask] = reading_at(s, t);
    server.ingest(id, values, mask);
  }
  EXPECT_FALSE(server.forecast(id).has_non_finite());
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.sanitized_entries, 0u);
  EXPECT_EQ(st.coerced_mask_entries, 0u);
  EXPECT_EQ(st.stuck_demotions, 0u);
  EXPECT_EQ(st.engine_failures, 0u);
  EXPECT_EQ(st.fallback_responses, 0u);
  EXPECT_EQ(st.scrubbed_entries, 0u);
  EXPECT_EQ(st.responses, 1u);
}

TEST(OnlineRobust, FallsBackWhenPrimaryThrows) {
  // The engine's very first call throws: there is no last-good forecast and
  // no engine output to scrub, so the answer is the all-mean matrix.
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<serve::FaultyEngine>(
      *s.model, core::InferenceEngine::Options{},
      serve::FaultyEngine::FaultConfig{});
  serve::ForecastServer server(engine, *s.normalizer, serve::ServeConfig{});
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 0);
  server.ingest(id, values, mask);
  engine->force_throw_next(1);
  const Matrix pred = server.forecast(id);
  ASSERT_EQ(pred.rows(), s.ds.num_nodes());
  ASSERT_EQ(pred.cols(), engine->horizon());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    EXPECT_EQ(pred.data()[i], s.normalizer->denormalize(0.0, 0));
  }
  serve::ServerStats st = server.stats();
  EXPECT_EQ(st.engine_failures, 1u);
  EXPECT_EQ(st.fallback_responses, 1u);
  EXPECT_EQ(st.scrubbed_entries, 0u);
  // The next call reaches the engine again and is served by it.
  EXPECT_FALSE(server.forecast(id).has_non_finite());
  st = server.stats();
  EXPECT_EQ(st.fallback_responses, 1u);
  EXPECT_EQ(st.responses, 2u);
}

TEST(OnlineRobust, ForecastAfterFeedGapIsFinite) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ForecastServer server(engine, *s.normalizer, serve::ServeConfig{});
  const std::size_t id = server.add_stream();
  server.ingest_gap(id);  // a gap is a reading: the stream may forecast
  EXPECT_FALSE(server.forecast(id).has_non_finite());
  for (std::size_t t = 1; t < engine->lookback(); ++t) {
    if (t % 2 == 0) {
      auto [values, mask] = reading_at(s, t);
      server.ingest(id, values, mask);
    } else {
      server.ingest_gap(id);
    }
  }
  EXPECT_FALSE(server.forecast(id).has_non_finite());
  // An outage longer than the lookback: no observation left in the window.
  for (std::size_t t = 0; t < engine->lookback(); ++t) server.ingest_gap(id);
  EXPECT_FALSE(server.forecast(id).has_non_finite());
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.fallback_responses, 0u);
  EXPECT_EQ(st.sanitized_entries, 0u);
  EXPECT_EQ(st.coerced_mask_entries, 0u);
  EXPECT_EQ(st.responses, 3u);
}

// ---- canary-gated publish --------------------------------------------------

TEST(ServePublish, CanaryQuarantinesPoisonedCandidate) {
  ServeFixture s = make_fixture();
  auto engine = std::make_shared<core::InferenceEngine>(*s.model);
  serve::ServeConfig cfg;
  cfg.max_batch = 8;
  cfg.max_delay_us = 100;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 0);
  server.ingest(id, values, mask);
  const Matrix before = server.forecast(id);

  // Candidate 1: poisons every output — the canary must catch it.
  serve::FaultyEngine::FaultConfig nan_always;
  nan_always.nan_rate = 1.0;
  EXPECT_FALSE(server.publish(std::make_shared<serve::FaultyEngine>(
      *s.model, core::InferenceEngine::Options{}, nan_always)));
  // Candidate 2: throws on every call.
  serve::FaultyEngine::FaultConfig throw_always;
  throw_always.throw_rate = 1.0;
  EXPECT_FALSE(server.publish(std::make_shared<serve::FaultyEngine>(
      *s.model, core::InferenceEngine::Options{}, throw_always)));

  // Serving is bitwise unaffected: same snapshot, same window, same answer.
  const Matrix after = server.forecast(id);
  EXPECT_EQ(after, before);
  serve::ServerStats st = server.stats();
  EXPECT_EQ(st.quarantined_publishes, 2u);
  EXPECT_EQ(st.snapshot_swaps, 0u);

  // A healthy candidate still goes through.
  EXPECT_TRUE(server.publish(std::make_shared<core::InferenceEngine>(*s.model)));
  (void)server.forecast(id);  // loop round-trip fences the posted swap
  st = server.stats();
  EXPECT_EQ(st.snapshot_swaps, 1u);
  EXPECT_EQ(st.quarantined_publishes, 2u);
}

// ---- ExecPool (DESIGN.md §16) ----------------------------------------------

TEST(ExecPool, RejectsZeroWorkers) {
  EXPECT_THROW(serve::ExecPool pool(0), std::invalid_argument);
}

TEST(ExecPool, PerWorkerFifoOrder) {
  serve::ExecPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::vector<int> order;  // written only by worker 0, read after the fence
  std::promise<void> done;
  for (int i = 0; i < 16; ++i) {
    pool.submit(0, [&order, i] { order.push_back(i); });
  }
  pool.submit(0, [&done] { done.set_value(); });  // FIFO fence
  done.get_future().wait();
  ASSERT_EQ(order.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(ExecPool, DrainsSubmittedTasksOnDestruction) {
  std::atomic<int> ran{0};
  {
    serve::ExecPool pool(3);
    for (int i = 0; i < 60; ++i) {
      pool.submit(static_cast<std::size_t>(i), [&ran] { ++ran; });
    }
    // Destructor: a submitted task is a promise of execution.
  }
  EXPECT_EQ(ran.load(), 60);
}

// ---- pooled flush execution (DESIGN.md §16) --------------------------------

/// Ingests 4 streams, then runs 3 query rounds — each round issues a
/// coalescing pair per stream, round 2 publishes an identically-compiled
/// engine MID-FLIGHT (between issuing and settling) — and returns every
/// response in issue order. Pure function of the fixture: any two servers
/// over engines compiled from the same model must return identical bits.
std::vector<Matrix> run_parity_scenario(serve::ForecastServer& server,
                                        const ServeFixture& s) {
  constexpr std::size_t kStreams = 4;
  std::vector<std::size_t> ids;
  for (std::size_t k = 0; k < kStreams; ++k) {
    ids.push_back(server.add_stream(3 * k));
    for (std::size_t t = 0; t < 4; ++t) {
      auto [values, mask] = reading_at(s, 7 * k + t);
      server.ingest(ids[k], values, mask);
    }
  }
  std::vector<Matrix> outs;
  for (std::size_t round = 0; round < 3; ++round) {
    std::vector<std::future<Matrix>> futs;
    for (std::size_t k = 0; k < kStreams; ++k) {
      futs.push_back(server.forecast_async(ids[k]));  // distinct window
      futs.push_back(server.forecast_async(ids[k]));  // coalesces onto it
    }
    if (round == 2) {
      // Snapshot swap racing the in-flight flush: the published engine is
      // compiled from the same weights, so whichever flush it lands before
      // produces the same bits.
      EXPECT_TRUE(server.publish(
          std::make_shared<core::InferenceEngine>(*s.model)));
    }
    for (auto& f : futs) outs.push_back(f.get());
    for (std::size_t k = 0; k < kStreams; ++k) {
      auto [values, mask] = reading_at(s, 11 + 2 * round + k);
      server.ingest(ids[k], values, mask);  // next round: fresh windows
    }
  }
  return outs;
}

TEST(ServePool, BitwiseMatchesInlineFlushAtFixedK) {
  ServeFixture s = make_fixture();
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_us = 300;

  cfg.num_workers = 0;  // the §14/§15 inline reference
  serve::ForecastServer inline_server(
      std::make_shared<core::InferenceEngine>(*s.model), *s.normalizer, cfg);
  const std::vector<Matrix> want = run_parity_scenario(inline_server, s);
  EXPECT_EQ(inline_server.stats().pooled_flushes, 0u);

  for (std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    cfg.num_workers = workers;
    serve::ForecastServer pooled(
        std::make_shared<core::InferenceEngine>(*s.model), *s.normalizer,
        cfg);
    const std::vector<Matrix> got = run_parity_scenario(pooled, s);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "workers=" << workers << " response " << i;
      EXPECT_FALSE(got[i].has_non_finite());
    }
    const serve::ServerStats st = pooled.stats();
    EXPECT_GT(st.pooled_flushes, 0u) << "workers=" << workers;
    EXPECT_EQ(st.responses, got.size());
  }
}

TEST(ServePool, BreakerOpensServesFallbackAndProbesUnderPool) {
  // Sequential single-window flushes (max_batch = 1, blocking forecasts):
  // every dispatch is exactly one chunk, so the pooled breaker choreography
  // must match the inline ServeBreaker.* semantics step for step.
  ServeFixture s = make_fixture();
  serve::FaultyEngine::FaultConfig faults;  // forced faults only
  auto engine = std::make_shared<serve::FaultyEngine>(
      *s.model, core::InferenceEngine::Options{}, faults);
  serve::ServeConfig cfg;
  cfg.max_batch = 1;
  cfg.max_delay_us = 100;
  cfg.breaker_threshold = 2;
  cfg.breaker_cooldown_us = 200'000;
  cfg.num_workers = 2;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  const std::size_t id = server.add_stream();
  auto [values, mask] = reading_at(s, 0);
  server.ingest(id, values, mask);
  const Matrix baseline = server.forecast(id);
  EXPECT_EQ(server.breaker_state(), serve::BreakerState::kClosed);

  engine->force_throw_next(2);
  EXPECT_EQ(server.forecast(id), baseline);
  EXPECT_EQ(server.breaker_state(), serve::BreakerState::kClosed);  // 1 of 2
  EXPECT_EQ(server.forecast(id), baseline);
  EXPECT_EQ(server.breaker_state(), serve::BreakerState::kOpen);

  const std::size_t calls_before = engine->calls();
  EXPECT_EQ(server.forecast(id), baseline);  // OPEN: fallback, engine idle
  EXPECT_EQ(engine->calls(), calls_before);

  std::this_thread::sleep_for(
      std::chrono::microseconds(cfg.breaker_cooldown_us + 50'000));
  EXPECT_EQ(server.forecast(id), baseline);  // half-open probe succeeds
  EXPECT_EQ(server.breaker_state(), serve::BreakerState::kClosed);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.engine_failures, 2u);
  EXPECT_EQ(st.breaker_opens, 1u);
  EXPECT_EQ(st.breaker_probes, 1u);
  EXPECT_EQ(st.breaker_closes, 1u);
  EXPECT_GT(st.pooled_flushes, 0u);
}

TEST(ServePool, MultiChunkFlushGatesEveryChunkBeforeAnyRuns) {
  // A published engine with max_batch = 1 splits one 4-window flush into
  // four one-window chunks. Every chunk passes the breaker gate before any
  // runs, so the two forced throws open the breaker without gating the
  // later chunks: 4 engine calls, 2 fallbacks — on the loop thread and on
  // the pool alike. (One worker keeps the forced throws on chunks 0 and 1;
  // with two, they land on whichever chunks run first.)
  ServeFixture s = make_fixture();
  std::vector<std::vector<Matrix>> outs;
  for (std::size_t workers : {std::size_t{0}, std::size_t{1}}) {
    serve::ServeConfig cfg;
    cfg.max_batch = 4;
    cfg.max_delay_us = 60'000'000;  // flush at max_batch only
    cfg.breaker_threshold = 2;
    cfg.breaker_cooldown_us = 60'000'000;
    cfg.num_workers = workers;
    serve::ForecastServer server(
        std::make_shared<core::InferenceEngine>(*s.model), *s.normalizer,
        cfg);
    core::InferenceEngine::Options one;
    one.max_batch = 1;
    auto engine = std::make_shared<serve::FaultyEngine>(
        *s.model, one, serve::FaultyEngine::FaultConfig{});
    ASSERT_TRUE(server.publish(engine));
    std::vector<std::size_t> ids;
    for (std::size_t k = 0; k < 4; ++k) {
      ids.push_back(server.add_stream(k));
      auto [values, mask] = reading_at(s, 5 * k);
      server.ingest(ids[k], values, mask);
    }
    engine->force_throw_next(2);
    std::vector<std::future<Matrix>> futs;
    for (std::size_t id : ids) futs.push_back(server.forecast_async(id));
    outs.emplace_back();
    for (auto& f : futs) outs.back().push_back(f.get());
    const serve::ServerStats st = server.stats();
    EXPECT_EQ(st.engine_calls, 4u) << "workers=" << workers;
    EXPECT_EQ(st.engine_failures, 2u) << "workers=" << workers;
    EXPECT_EQ(st.breaker_opens, 1u) << "workers=" << workers;
    EXPECT_EQ(st.fallback_responses, 2u) << "workers=" << workers;
  }
  EXPECT_EQ(outs[0], outs[1]);
}

TEST(ServePool, DrainSettlesInFlightPooledFlush) {
  // Requests dispatched to slow workers, then an immediate drain: the
  // quiesce rendezvous must wait for the in-flight completions, so every
  // future resolves to a value or a typed error — never a broken promise.
  ServeFixture s = make_fixture();
  serve::FaultyEngine::FaultConfig faults;
  faults.latency_us = 4000;
  auto engine = std::make_shared<serve::FaultyEngine>(
      *s.model, core::InferenceEngine::Options{}, faults);
  serve::ServeConfig cfg;
  cfg.max_batch = 2;
  cfg.max_delay_us = 100;
  cfg.num_workers = 2;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  std::vector<std::size_t> ids;
  std::vector<std::future<Matrix>> futs;
  for (std::size_t k = 0; k < 4; ++k) {
    ids.push_back(server.add_stream(k));
    auto [values, mask] = reading_at(s, 2 * k);
    server.ingest(ids[k], values, mask);
    futs.push_back(server.forecast_async(ids[k]));
  }
  server.drain();
  std::size_t settled = 0;
  for (auto& f : futs) {
    try {
      EXPECT_FALSE(f.get().has_non_finite());
      ++settled;
    } catch (const serve::ServeError& e) {
      EXPECT_EQ(e.status(), serve::ServeStatus::kShuttingDown);
      ++settled;
    }
  }
  EXPECT_EQ(settled, futs.size());
}

TEST(ServePool, StormRacesWorkersBreakerPublishAndDrain) {
  // The §16 TSan storm: pooled workers execute a faulty, slow engine while
  // client threads race coalescing queries, a publisher floods canary-
  // rejected candidates, and the whole thing drains mid-traffic. Invariants:
  // every request resolves (zero broken promises), zero non-finite values
  // escape, and counter accounting is exact — the serving engine never
  // changes, so server-side engine_failures must equal the faults the
  // FaultyEngine actually injected into serving calls.
  ServeFixture s = make_fixture();
  core::InferenceEngine::Options opts;
  opts.max_batch = 4;
  serve::FaultyEngine::FaultConfig faults;
  faults.latency_us = 700;
  faults.throw_rate = 0.06;
  faults.nan_rate = 0.06;
  faults.seed = 0xfeedULL;
  auto engine =
      std::make_shared<serve::FaultyEngine>(*s.model, opts, faults);
  serve::ServeConfig cfg;
  cfg.max_batch = 4;
  cfg.max_delay_us = 200;
  cfg.max_queue = 8;
  cfg.breaker_threshold = 3;
  cfg.breaker_cooldown_us = 1'500;
  cfg.num_workers = 3;
  serve::ForecastServer server(engine, *s.normalizer, cfg);
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 25;
  std::vector<std::size_t> ids;
  for (std::size_t c = 0; c < kClients; ++c) {
    ids.push_back(server.add_stream(c));
    auto [values, mask] = reading_at(s, 3 * c);
    server.ingest(ids[c], values, mask);
  }
  std::atomic<std::size_t> values_seen{0};
  std::atomic<std::size_t> typed_errors{0};
  std::atomic<std::size_t> non_finite{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t q = 0; q < kPerClient; ++q) {
        try {
          const Matrix got = server.forecast_async(ids[c]).get();
          if (got.has_non_finite()) ++non_finite;
          ++values_seen;
        } catch (const serve::ServeError&) {
          ++typed_errors;
        }
        if (q % 6 == 5) {
          auto [values, mask] = reading_at(s, (q + 7 * c) % 40);
          try {
            server.ingest(ids[c], values, mask);
          } catch (const serve::ServeError&) {
          }
        }
      }
    });
  }
  // Publisher: every candidate is poisoned, so the canary rejects each one
  // and the serving snapshot — and with it the exact-counter identity
  // below — never changes.
  std::thread publisher([&] {
    serve::FaultyEngine::FaultConfig poison;
    poison.nan_rate = 1.0;
    for (int i = 0; i < 12; ++i) {
      try {
        EXPECT_FALSE(server.publish(std::make_shared<serve::FaultyEngine>(
            *s.model, core::InferenceEngine::Options{}, poison)));
      } catch (const std::exception&) {
        ADD_FAILURE() << "publish threw during the storm";
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  for (auto& t : clients) t.join();
  publisher.join();
  server.drain();
  EXPECT_EQ(values_seen.load() + typed_errors.load(), kClients * kPerClient);
  EXPECT_EQ(non_finite.load(), 0u);
  const serve::ServerStats st = server.stats();
  EXPECT_EQ(st.responses, values_seen.load());
  EXPECT_EQ(st.engine_failures,
            engine->throws_injected() + engine->nans_injected());
  EXPECT_EQ(st.quarantined_publishes, 12u);
  EXPECT_EQ(st.snapshot_swaps, 0u);
  EXPECT_GT(st.pooled_flushes, 0u);
}

}  // namespace
}  // namespace rihgcn
