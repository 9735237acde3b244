#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace rihgcn::serve {

ForecastServer::ForecastServer(std::shared_ptr<core::InferenceEngine> engine,
                               const data::ZScoreNormalizer& normalizer,
                               ServeConfig cfg)
    : cfg_(cfg), normalizer_(normalizer) {
  if (engine == nullptr) {
    throw std::invalid_argument("ForecastServer: null engine");
  }
  n_ = engine->num_nodes();
  f_ = engine->num_features();
  lookback_ = engine->lookback();
  horizon_ = engine->horizon();
  steps_per_day_ = engine->steps_per_day();
  cfg_.max_batch = std::clamp<std::size_t>(cfg_.max_batch, 1,
                                           engine->max_batch());
  cfg_.max_queue = std::max<std::size_t>(1, cfg_.max_queue);
  cfg_.breaker_threshold = std::max<std::size_t>(1, cfg_.breaker_threshold);
  if (cfg_.num_workers > 0) {
    exec_pool_ = std::make_unique<ExecPool>(cfg_.num_workers);
  }
  // The deepest fallback: every entry the historical mean of the target
  // feature (normalized 0 denormalized) — finite by construction.
  mean_forecast_ = Matrix(n_, horizon_);
  const double mean = normalizer_.denormalize(0.0, 0);
  std::fill(mean_forecast_.data(), mean_forecast_.data() + mean_forecast_.size(),
            mean);
  // Loop not running yet — plain write is safe.
  snapshot_ = make_snapshot(std::move(engine));
  loop_.start();
}

std::shared_ptr<ForecastServer::Snapshot> ForecastServer::make_snapshot(
    std::shared_ptr<core::InferenceEngine> engine) const {
  auto snap = std::make_shared<Snapshot>();
  for (std::size_t w = 0; w < std::max<std::size_t>(1, cfg_.num_workers);
       ++w) {
    snap->ws.push_back(engine->make_workspace());
  }
  snap->engine = std::move(engine);
  return snap;
}

ForecastServer::~ForecastServer() { drain(); }

void ForecastServer::drain() {
  // Admission stops first (any thread sees it), then exactly one caller
  // performs the quiesce sequence.
  draining_.store(true, std::memory_order_release);
  std::call_once(drain_once_, [this] {
    // Rendezvous before stopping the loop: a pooled flush may be in flight,
    // and its workers post completions INTO the loop — stopping first would
    // orphan them (and their waiters). The loop fulfills the quiesce
    // promise only once loop_draining_ is set, the in-flight flush (if any)
    // has settled, and the final flush has answered everything still
    // admitted; only then is it safe to stop and join.
    auto quiesced = std::make_shared<std::promise<void>>();
    std::future<void> quiesce_done = quiesced->get_future();
    loop_.post([this, quiesced] {
      // Everything admitted before this closure is in pending_ (FIFO);
      // everything after it sees loop_draining_ and resolves to
      // SHUTTING_DOWN inside enqueue_request.
      loop_draining_ = true;
      drain_quiesce_ = quiesced;
      maybe_finish_drain();
    });
    quiesce_done.wait();
    loop_.stop();
    loop_.join();
    // Closures that raced past the loop's exit still resolve their
    // promises — on this thread, deterministically.
    loop_.drain_ready();
    // Safety net: nothing should reach pending_ after the final flush, but
    // a typed error beats a broken promise if anything ever does.
    for (Pending& p : pending_) {
      for (Waiter& w : p.waiters) {
        settle_with_error(w, ServeStatus::kShuttingDown,
                          "server drained with the request still queued");
      }
    }
    pending_.clear();
  });
}

std::size_t ForecastServer::add_stream(std::size_t start_slot) {
  if (draining_.load(std::memory_order_acquire)) {
    throw ServeError(ServeStatus::kShuttingDown, "add_stream after drain");
  }
  auto done = std::make_shared<std::promise<std::size_t>>();
  auto claimed = std::make_shared<std::atomic<bool>>(false);
  std::future<std::size_t> id = done->get_future();
  loop_.post([this, start_slot, done, claimed] {
    streams_.emplace_back(core::ReadingBuffer(
        n_, f_, lookback_, steps_per_day_, start_slot, cfg_.stuck_threshold));
    {
      std::lock_guard<std::mutex> lock(reg_mu_);
      reg_seen_.push_back(std::make_shared<std::atomic<std::uint64_t>>(0));
    }
    num_streams_.store(streams_.size(), std::memory_order_release);
    if (!claimed->exchange(true)) done->set_value(streams_.size() - 1);
  });
  if (draining_.load(std::memory_order_acquire) &&
      !claimed->exchange(true)) {
    done->set_exception(std::make_exception_ptr(
        ServeError(ServeStatus::kShuttingDown, "add_stream during drain")));
  }
  return id.get();
}

void ForecastServer::ingest(std::size_t stream, const Matrix& values,
                            const Matrix& mask) {
  if (stream >= num_streams_.load(std::memory_order_acquire)) {
    throw std::invalid_argument("ForecastServer::ingest: unknown stream");
  }
  if (values.rows() != n_ || values.cols() != f_ ||
      !values.same_shape(mask)) {
    throw ShapeError("ForecastServer::ingest: shape mismatch");
  }
  if (draining_.load(std::memory_order_acquire)) {
    throw ServeError(ServeStatus::kShuttingDown, "ingest after drain");
  }
  // Sanitize + normalize on the CLIENT thread (the shared
  // core::sanitize_reading — a pure function of the reading and the frozen
  // normalizer) so many feeds prepare their own input in parallel; the loop
  // runs only the stateful stuck-sensor demotion and the buffer append.
  Matrix normalized(n_, f_);
  Matrix clean_mask(n_, f_);
  const core::SanitizeCounts counts =
      core::sanitize_reading(values, mask, normalizer_, normalized, clean_mask);
  sanitized_entries_.fetch_add(counts.sanitized_entries,
                               std::memory_order_relaxed);
  coerced_mask_entries_.fetch_add(counts.coerced_mask_entries,
                                  std::memory_order_relaxed);
  std::shared_ptr<std::atomic<std::uint64_t>> seen;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    seen = reg_seen_[stream];
  }
  auto vp = std::make_shared<Matrix>(std::move(normalized));
  auto mp = std::make_shared<Matrix>(std::move(clean_mask));
  loop_.post([this, stream, vp, mp] {
    Stream& s = streams_[stream];
    stuck_demotions_.fetch_add(s.buffer.push(std::move(*vp), std::move(*mp)),
                               std::memory_order_relaxed);
    ++s.version;  // never coalesce across an ingest
  });
  // Bump the client-visible counter AFTER the post: a forecast issued after
  // this ingest returns observes the counter only once its enqueue closure
  // is guaranteed to land behind the append in the loop's FIFO.
  seen->fetch_add(1, std::memory_order_release);
}

void ForecastServer::ingest_gap(std::size_t stream) {
  ingest(stream, Matrix(n_, f_), Matrix(n_, f_));
}

std::future<Matrix> ForecastServer::forecast_async(
    std::size_t stream, std::optional<std::uint64_t> deadline_us) {
  if (stream >= num_streams_.load(std::memory_order_acquire)) {
    throw std::invalid_argument(
        "ForecastServer::forecast_async: unknown stream");
  }
  requests_.fetch_add(1, std::memory_order_relaxed);
  auto settle = std::make_shared<SettleOnce>();
  std::future<Matrix> fut = settle->promise.get_future();
  // Eager no-readings validation (client thread): the failure resolves
  // immediately and the request never occupies a queue slot.
  std::shared_ptr<std::atomic<std::uint64_t>> seen;
  {
    std::lock_guard<std::mutex> lock(reg_mu_);
    seen = reg_seen_[stream];
  }
  if (seen->load(std::memory_order_acquire) == 0) {
    settle->claim();
    settle->promise.set_exception(std::make_exception_ptr(
        std::logic_error("ForecastServer: no readings pushed yet")));
    return fut;
  }
  const std::uint64_t us = deadline_us.value_or(cfg_.default_deadline_us);
  const bool has_deadline = us > 0;
  const EventLoop::Clock::time_point deadline =
      EventLoop::Clock::now() + std::chrono::microseconds(us);
  auto fail_shutdown = [this, &settle] {
    if (settle->claim()) {
      aborted_.fetch_add(1, std::memory_order_relaxed);
      settle->promise.set_exception(std::make_exception_ptr(ServeError(
          ServeStatus::kShuttingDown, "server is draining")));
    }
  };
  if (draining_.load(std::memory_order_acquire)) {
    fail_shutdown();
    return fut;
  }
  loop_.post([this, stream, settle, has_deadline, deadline] {
    enqueue_request(stream, settle, has_deadline, deadline);
  });
  // Close the check-then-post race against drain(): if drain began after
  // the check above, the posted closure may never run — settle here; the
  // SettleOnce claim makes the duplicate attempt (if the closure does run)
  // a no-op.
  if (draining_.load(std::memory_order_acquire)) {
    fail_shutdown();
  }
  return fut;
}

void ForecastServer::settle_with_value(Waiter& w, const Matrix& value,
                                       bool fallback) {
  if (w.timer_id != 0) {
    loop_.cancel(w.timer_id);
    w.timer_id = 0;
  }
  if (!w.settle->claim()) return;
  // Count BEFORE fulfilling: a client that wakes on the future must see its
  // own response in stats().
  responses_.fetch_add(1, std::memory_order_relaxed);
  if (fallback) fallback_responses_.fetch_add(1, std::memory_order_relaxed);
  w.settle->promise.set_value(value);
}

void ForecastServer::settle_with_error(Waiter& w, ServeStatus status,
                                       const char* detail) {
  if (w.timer_id != 0) {
    loop_.cancel(w.timer_id);
    w.timer_id = 0;
  }
  if (!w.settle->claim()) return;
  switch (status) {
    case ServeStatus::kOverloaded:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeStatus::kDeadlineExceeded:
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeStatus::kShuttingDown:
      aborted_.fetch_add(1, std::memory_order_relaxed);
      break;
    case ServeStatus::kEngineFailure:
      break;  // engine_failures_ counts calls, not waiters
  }
  w.settle->promise.set_exception(
      std::make_exception_ptr(ServeError(status, detail)));
}

void ForecastServer::arm_deadline(std::size_t stream, Waiter& w) {
  if (!w.has_deadline) return;
  const std::uint64_t seq = w.seq;
  w.timer_id = loop_.add_time_handler(w.deadline, [this, stream, seq] {
    on_deadline_expired(stream, seq);
  });
}

void ForecastServer::on_deadline_expired(std::size_t stream,
                                         std::uint64_t seq) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->stream != stream) continue;
    auto wit = std::find_if(it->waiters.begin(), it->waiters.end(),
                            [seq](const Waiter& w) { return w.seq == seq; });
    if (wit == it->waiters.end()) continue;
    wit->timer_id = 0;  // this timer just fired; nothing to cancel
    settle_with_error(*wit, ServeStatus::kDeadlineExceeded,
                      "deadline expired while queued");
    it->waiters.erase(wit);
    if (it->waiters.empty()) {
      pending_.erase(it);
      if (pending_.empty() && flush_timer_ != 0) {
        loop_.cancel(flush_timer_);
        flush_timer_ = 0;
      }
    }
    return;
  }
}

void ForecastServer::fail_expired(EventLoop::Clock::time_point now) {
  for (auto it = pending_.begin(); it != pending_.end();) {
    auto& waiters = it->waiters;
    for (auto wit = waiters.begin(); wit != waiters.end();) {
      if (wit->has_deadline && wit->deadline <= now) {
        settle_with_error(*wit, ServeStatus::kDeadlineExceeded,
                          "deadline expired before the batch was assembled");
        wit = waiters.erase(wit);
      } else {
        ++wit;
      }
    }
    it = waiters.empty() ? pending_.erase(it) : it + 1;
  }
}

void ForecastServer::attach_waiter(Pending& p, Waiter w) {
  arm_deadline(p.stream, w);
  p.waiters.push_back(std::move(w));
}

void ForecastServer::enqueue_request(std::size_t stream,
                                     std::shared_ptr<SettleOnce> settle,
                                     bool has_deadline,
                                     EventLoop::Clock::time_point deadline) {
  Waiter w;
  w.settle = std::move(settle);
  w.seq = next_waiter_seq_++;
  w.has_deadline = has_deadline;
  w.deadline = deadline;
  if (loop_draining_) {
    settle_with_error(w, ServeStatus::kShuttingDown,
                      "request arrived after the final flush");
    return;
  }
  const Stream& s = streams_[stream];
  if (s.buffer.seen() == 0) {
    // Normally caught eagerly on the client thread; kept as a loop-side
    // belt-and-braces for racy ingest/forecast interleavings.
    if (w.settle->claim()) {
      w.settle->promise.set_exception(std::make_exception_ptr(
          std::logic_error("ForecastServer: no readings pushed yet")));
    }
    return;
  }
  // Fail fast on an already-expired deadline — before consuming any slot.
  if (has_deadline && deadline <= EventLoop::Clock::now()) {
    settle_with_error(w, ServeStatus::kDeadlineExceeded,
                      "deadline expired before admission");
    return;
  }
  // Coalesce: an identical query (same stream, no ingest in between) rides
  // the already-queued window — never counts against max_queue.
  for (Pending& p : pending_) {
    if (p.stream == stream && p.version == s.version) {
      attach_waiter(p, std::move(w));
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  // Bounded admission: a new window slot must fit in max_queue.
  if (pending_.size() >= cfg_.max_queue) {
    if (cfg_.shed_policy == ShedPolicy::kRejectNew) {
      settle_with_error(w, ServeStatus::kOverloaded,
                        "admission queue full (reject-new)");
      return;
    }
    // Shed-oldest: the front entry's waiters pay for the newcomer.
    Pending& victim = pending_.front();
    for (Waiter& vw : victim.waiters) {
      settle_with_error(vw, ServeStatus::kOverloaded,
                        "shed by a newer request (shed-oldest)");
    }
    pending_.erase(pending_.begin());
  }
  Pending p;
  p.stream = stream;
  p.version = s.version;
  p.window = s.buffer.window();
  attach_waiter(p, std::move(w));
  pending_.push_back(std::move(p));
  if (pending_.size() >= cfg_.max_batch) {
    flush();
  } else if (pending_.size() == 1) {
    flush_timer_ = loop_.add_time_handler_after(
        std::chrono::microseconds(cfg_.max_delay_us), [this] {
          flush_timer_ = 0;
          flush();
        });
  }
}

data::Window ForecastServer::make_probe_window() const {
  // Deterministic canary input: normalized-mean values under a half-observed
  // checkerboard mask — exercises both the observed and the imputation path
  // of the candidate without depending on live traffic.
  data::Window w;
  w.slot = 0;
  w.start = 0;
  for (std::size_t t = 0; t < lookback_; ++t) {
    Matrix obs(n_, f_);
    Matrix msk(n_, f_);
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t c = 0; c < f_; ++c) {
        msk(i, c) = static_cast<double>((i + c + t) % 2);
      }
    }
    w.x_obs.push_back(std::move(obs));
    w.x_mask.push_back(std::move(msk));
  }
  return w;
}

void ForecastServer::fallback_respond(Pending& p, const Matrix* raw_pred) {
  if (!cfg_.degraded_serving) {
    for (Waiter& w : p.waiters) {
      settle_with_error(w, ServeStatus::kEngineFailure,
                        "engine failed and degraded serving is disabled");
    }
    return;
  }
  Stream& s = streams_[p.stream];
  Matrix pred;
  if (s.last_good.size() != 0) {
    pred = s.last_good;  // freshest degraded answer available
  } else if (raw_pred != nullptr && raw_pred->rows() == n_ &&
             raw_pred->cols() == horizon_) {
    // Historical-mean scrub (shared core::scrub_non_finite semantics):
    // keep the finite entries the engine did produce.
    pred = *raw_pred;
    scrubbed_entries_.fetch_add(
        core::scrub_non_finite(pred, normalizer_.denormalize(0.0, 0)),
        std::memory_order_relaxed);
  } else {
    pred = mean_forecast_;
  }
  for (Waiter& w : p.waiters) {
    settle_with_value(w, pred, /*fallback=*/true);
  }
}

void ForecastServer::note_engine_result(bool success,
                                        EventLoop::Clock::time_point now) {
  if (success) {
    consecutive_engine_failures_ = 0;
    if (breaker_ == BreakerState::kHalfOpen) {
      set_breaker(BreakerState::kClosed);
      breaker_closes_.fetch_add(1, std::memory_order_relaxed);
    }
    return;
  }
  engine_failures_.fetch_add(1, std::memory_order_relaxed);
  ++consecutive_engine_failures_;
  if (breaker_ == BreakerState::kHalfOpen) {
    // Failed probe: straight back to OPEN, new cooldown.
    set_breaker(BreakerState::kOpen);
    breaker_retry_at_ = now + std::chrono::microseconds(cfg_.breaker_cooldown_us);
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
  } else if (breaker_ == BreakerState::kClosed &&
             consecutive_engine_failures_ >= cfg_.breaker_threshold) {
    set_breaker(BreakerState::kOpen);
    breaker_retry_at_ = now + std::chrono::microseconds(cfg_.breaker_cooldown_us);
    breaker_opens_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ForecastServer::flush() {
  // Pipelined mode: while batch t executes on the workers the admission
  // queue keeps filling; its completion handler re-enters flush(), so a
  // trigger landing mid-execution simply defers to that.
  if (inflight_ != nullptr) return;
  if (pending_.empty()) return;
  if (flush_timer_ != 0) {
    loop_.cancel(flush_timer_);
    flush_timer_ = 0;
  }
  // Expired requests fail fast, BEFORE any batch slot is assigned.
  fail_expired(EventLoop::Clock::now());
  if (pending_.empty()) return;
  auto st = std::make_shared<FlushState>();
  // The whole flush runs against ONE snapshot: a racing publish() retargets
  // snapshot_ for the NEXT flush; this one keeps the engine (and the
  // workspaces) it started with alive via the shared_ptr.
  st->snap = snapshot_;
  st->entries = std::move(pending_);
  pending_.clear();
  // The final drain flush runs on the loop thread: drain() stops the loop
  // right after the quiesce rendezvous, so pooled completions would have
  // nowhere to post.
  const bool pooled = exec_pool_ != nullptr && !loop_draining_;
  const std::size_t ways = pooled ? exec_pool_->size() : 1;
  const std::size_t total = st->entries.size();
  // Fixed deterministic split: ceil(total / ways) windows per chunk, capped
  // at the engine's max_batch; chunk c runs on worker c mod ways. A pure
  // function of (total, ways, max_batch) — never of timing — and since
  // every engine op is row-/block-local, per-window outputs are bitwise
  // identical however the batch is split.
  st->chunk_size = std::max<std::size_t>(
      1, std::min(st->snap->engine->max_batch(), (total + ways - 1) / ways));
  const std::size_t nchunks = (total + st->chunk_size - 1) / st->chunk_size;
  st->results.resize(nchunks);
  // Circuit-breaker gate for every chunk, in admission order, before any
  // runs: OPEN bypasses the engine until the cooldown elapses, at which
  // point the breaker goes half-open and the chunks from there on probe it;
  // their outcomes land in settle_flush (note_engine_result in chunk order).
  const EventLoop::Clock::time_point now = EventLoop::Clock::now();
  for (ChunkResult& r : st->results) {
    if (breaker_ == BreakerState::kOpen) {
      if (now < breaker_retry_at_) continue;  // r.executed stays false
      set_breaker(BreakerState::kHalfOpen);
      breaker_probes_.fetch_add(1, std::memory_order_relaxed);
    }
    r.executed = true;
    ++st->chunks_left;
  }
  if (pooled) pooled_flushes_.fetch_add(1, std::memory_order_relaxed);
  if (!pooled || st->chunks_left == 0) {
    for (std::size_t c = 0; c < nchunks; ++c) {
      if (st->results[c].executed) run_chunk(*st, c, st->snap->ws[0]);
    }
    settle_flush(*st);
    return;
  }
  inflight_ = st;
  for (std::size_t c = 0; c < nchunks; ++c) {
    if (!st->results[c].executed) continue;
    exec_pool_->submit(c % ways, [this, st, c, ways] {
      run_chunk(*st, c, st->snap->ws[c % ways]);
      loop_.post([this, st] { on_chunk_done(st); });
    });
  }
}

void ForecastServer::run_chunk(FlushState& st, std::size_t chunk,
                               core::InferenceEngine::Workspace& ws) const {
  // On a worker this touches only this chunk's result and the worker's
  // private workspace; everything it reads (entries, snap) is frozen for
  // the lifetime of the flush.
  const std::size_t begin = chunk * st.chunk_size;
  const std::size_t count = std::min(st.chunk_size, st.entries.size() - begin);
  std::vector<const data::Window*> ptrs(count);
  for (std::size_t b = 0; b < count; ++b) {
    ptrs[b] = &st.entries[begin + b].window;
  }
  ChunkResult& r = st.results[chunk];
  try {
    const FMatrix& out = st.snap->engine->predict_batch(ptrs.data(), count, ws);
    r.ok = true;
    r.preds.resize(count);
    for (std::size_t b = 0; b < count; ++b) {
      Matrix& pred = r.preds[b];
      pred = Matrix(n_, horizon_);
      for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t h = 0; h < horizon_; ++h) {
          pred(i, h) = normalizer_.denormalize(
              static_cast<double>(out(b * n_ + i, h)), 0);
        }
      }
      // A poisoned row block degrades only its own window's waiters, but
      // the call still counts as failed for the breaker.
      if (pred.has_non_finite()) r.ok = false;
    }
  } catch (...) {
    r.ok = false;
    r.threw = true;
  }
}

void ForecastServer::on_chunk_done(const std::shared_ptr<FlushState>& st) {
  if (--st->chunks_left > 0) return;
  inflight_.reset();
  settle_flush(*st);
  // Pipelining: batch t+1 accumulated while batch t executed — flush it
  // now. During drain maybe_finish_drain runs the final flush instead, so
  // everything admitted still resolves before the loop stops.
  if (!pending_.empty() && !loop_draining_) flush();
  maybe_finish_drain();
}

void ForecastServer::settle_flush(FlushState& st) {
  const std::size_t total = st.entries.size();
  // Chunk order IS admission order: breaker bookkeeping before the affected
  // waiters settle (a client that wakes on its future must observe the
  // breaker state its call produced), promises fulfilled in enqueue order,
  // waiters in attach order — the deterministic-ordering contract of the
  // class comment.
  for (std::size_t c = 0; c < st.results.size(); ++c) {
    const std::size_t begin = c * st.chunk_size;
    const std::size_t count = std::min(st.chunk_size, total - begin);
    ChunkResult& r = st.results[c];
    if (r.executed) {
      engine_calls_.fetch_add(1, std::memory_order_relaxed);
      if (!r.threw) {
        batched_windows_.fetch_add(count, std::memory_order_relaxed);
      }
      note_engine_result(r.ok, EventLoop::Clock::now());
    }
    for (std::size_t b = 0; b < count; ++b) {
      Pending& p = st.entries[begin + b];
      if (!r.executed || r.threw) {
        fallback_respond(p, nullptr);
        continue;
      }
      Matrix& pred = r.preds[b];
      if (pred.has_non_finite()) {
        fallback_respond(p, &pred);
        continue;
      }
      streams_[p.stream].last_good = pred;
      for (Waiter& w : p.waiters) {
        settle_with_value(w, pred, /*fallback=*/false);
      }
    }
  }
}

void ForecastServer::maybe_finish_drain() {
  if (!loop_draining_ || drain_quiesce_ == nullptr) return;
  if (inflight_ != nullptr) return;  // its completion re-enters
  flush();  // on the loop thread during drain: settles everything admitted
  drain_quiesce_->set_value();
  drain_quiesce_.reset();
}

bool ForecastServer::publish(std::shared_ptr<core::InferenceEngine> engine) {
  if (engine == nullptr) {
    throw std::invalid_argument("ForecastServer::publish: null engine");
  }
  if (engine->num_nodes() != n_ || engine->num_features() != f_ ||
      engine->lookback() != lookback_ || engine->horizon() != horizon_ ||
      engine->steps_per_day() != steps_per_day_) {
    throw std::invalid_argument(
        "ForecastServer::publish: engine dimensions changed");
  }
  // Canary gate, on the CALLER's thread: one synthetic probe window through
  // the candidate. A throw, shape drift or non-finite output quarantines it
  // — the serving snapshot is never retargeted at an engine that cannot
  // answer the probe, so a poisoned retrain can't take down serving.
  bool healthy = false;
  try {
    const Matrix probe = engine->predict(make_probe_window());
    healthy = probe.rows() == n_ && probe.cols() == horizon_ &&
              !probe.has_non_finite();
  } catch (...) {
    healthy = false;
  }
  if (!healthy) {
    quarantined_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Build the new snapshot (workspace allocation included) on the CALLER's
  // thread; the loop only retargets one shared_ptr, so serving never stalls
  // on a publish however large the engine is.
  loop_.post([this, snap = make_snapshot(std::move(engine))]() mutable {
    snapshot_ = std::move(snap);
    swaps_.fetch_add(1, std::memory_order_relaxed);
  });
  return true;
}

ServerStats ForecastServer::stats() const {
  ServerStats s;
  s.requests = requests_.load(std::memory_order_relaxed);
  s.responses = responses_.load(std::memory_order_relaxed);
  s.engine_calls = engine_calls_.load(std::memory_order_relaxed);
  s.batched_windows = batched_windows_.load(std::memory_order_relaxed);
  s.coalesced_requests = coalesced_.load(std::memory_order_relaxed);
  s.snapshot_swaps = swaps_.load(std::memory_order_relaxed);
  s.shed_requests = shed_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.aborted_requests = aborted_.load(std::memory_order_relaxed);
  s.engine_failures = engine_failures_.load(std::memory_order_relaxed);
  s.fallback_responses = fallback_responses_.load(std::memory_order_relaxed);
  s.scrubbed_entries = scrubbed_entries_.load(std::memory_order_relaxed);
  s.breaker_opens = breaker_opens_.load(std::memory_order_relaxed);
  s.breaker_probes = breaker_probes_.load(std::memory_order_relaxed);
  s.breaker_closes = breaker_closes_.load(std::memory_order_relaxed);
  s.quarantined_publishes = quarantined_.load(std::memory_order_relaxed);
  s.sanitized_entries = sanitized_entries_.load(std::memory_order_relaxed);
  s.coerced_mask_entries =
      coerced_mask_entries_.load(std::memory_order_relaxed);
  s.stuck_demotions = stuck_demotions_.load(std::memory_order_relaxed);
  s.pooled_flushes = pooled_flushes_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace rihgcn::serve
