#include "common.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

namespace {

const Clock::time_point kStart = Clock::now();

/// Shortest decimal text that reads back as exactly `v`.
std::string number_text(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

void print_metric(const char* kind, const Metric& m) {
  std::printf("%-10s %-36s %16s %-10s n=%-8zu %s\n", kind, m.name.c_str(),
              number_text(m.value).c_str(), m.unit.c_str(), m.samples,
              m.note.c_str());
}

const char* unit_of(const std::vector<MetricDef>& defs,
                    const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return d.unit;
  }
  return nullptr;
}

}  // namespace

const std::vector<MetricDef> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"train_samples_per_s", "windows/s"},
    {"forecast_p50_ms", "ms"},
    {"answered_frac", "fraction"},
    {"capacity_rps", "1/s"},
    {"forecast_mae", "data_unit"},
    {"impute_mae", "data_unit"},
};

const std::vector<MetricDef> kLayerMetrics = {
    {"data.generate_s", "s"},
    {"core.graphs.build_s", "s"},
    {"timeseries.dtw_started_frac", "fraction"},
    {"core.trainer.train_s", "s"},
    {"core.trainer.window_ms", "ms"},
    {"core.trainer.guard_events", "count"},
    {"autodiff.forward_ms", "ms"},
    {"autodiff.backward_ms", "ms"},
    {"nn.adam_step_ms", "ms"},
    {"core.engine.compile_ms", "ms"},
    {"core.sharded_engine.compile_ms", "ms"},
    {"core.engine.predict_ms_b1", "ms"},
    {"core.engine.window_ms_bmax", "ms"},
    {"core.engine.call_ms_p50", "ms"},
    {"core.engine.call_ms_p99", "ms"},
    {"core.engine.busy_frac", "fraction"},
    {"core.engine.windows_per_call", "windows"},
    {"serve.ingest_us_p50", "us"},
    {"serve.submit_us_p50", "us"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.settle_ms_p50", "ms"},
    {"serve.coalesced_frac", "fraction"},
    {"serve.windows_per_ingest", "windows"},
    {"serve.failed", "count"},
    {"serve.fallback_responses", "count"},
    {"serve.publish_ms", "ms"},
    {"serve.snapshot_swaps", "count"},
    {"serve.quarantined_publishes", "count"},
    {"data.make_window_ms", "ms"},
    {"core.sharded_engine.predict_ms_p50", "ms"},
    {"loadgen.late_p99_ms", "ms"},
};

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              kStart)
      .count();
}

void sleep_until_ns(std::int64_t t) {
  // steady_clock is CLOCK_MONOTONIC on Linux; sleep on it directly with an
  // absolute deadline so wake-up error does not accumulate.
  const std::int64_t abs =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          kStart.time_since_epoch())
          .count() +
      t;
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(abs / 1000000000);
  ts.tv_nsec = static_cast<long>(abs % 1000000000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::size_t samples_beyond(std::size_t n, double q) {
  if (n == 0) return 0;
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

double block_quantile(const std::vector<double>& v, double q,
                      std::size_t block, std::size_t* smallest) {
  const std::size_t blocks = block == 0 ? 1 : v.size() / block;
  if (blocks < 2) {
    if (smallest != nullptr) *smallest = v.size();
    return quantile(v, q);
  }
  std::vector<double> per_block;
  std::size_t least = v.size();
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * v.size() / blocks;
    const std::size_t hi = (b + 1) * v.size() / blocks;
    least = std::min(least, hi - lo);
    per_block.push_back(quantile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                            v.begin() + static_cast<std::ptrdiff_t>(hi)),
        q));
  }
  if (smallest != nullptr) *smallest = least;
  return median(per_block);
}

double median_rate(const std::vector<std::int64_t>& done_ns,
                   std::size_t group) {
  std::vector<double> rates;
  for (std::size_t j = 0; group > 0 && (j + 1) * group < done_ns.size(); ++j) {
    const std::int64_t span = done_ns[(j + 1) * group] - done_ns[j * group];
    if (span > 0) rates.push_back(static_cast<double>(group) / to_s(span));
  }
  return median(rates);
}

// ---- Report ---------------------------------------------------------------

void Report::end_to_end(const std::string& name, double value,
                        std::size_t samples, std::string note) {
  const char* unit = unit_of(kEndToEndMetrics, name);
  require(unit != nullptr, "metric " + name + " is declared");
  require(std::isfinite(value), "metric " + name + " is finite");
  e2e_.push_back(Metric{name, value, unit == nullptr ? "" : unit, samples,
                        std::move(note)});
}

void Report::per_layer(const std::string& name, double value,
                       std::size_t samples, std::string note) {
  const char* unit = unit_of(kLayerMetrics, name);
  require(unit != nullptr, "metric " + name + " is declared");
  require(std::isfinite(value), "metric " + name + " is finite");
  layers_.push_back(Metric{name, value, unit == nullptr ? "" : unit, samples,
                           std::move(note)});
}

void Report::check(bool ok, const std::string& what) {
  if (ok) {
    std::printf("# ok: %s\n", what.c_str());
  } else {
    ++failures_;
    std::printf("CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::require(bool ok, const std::string& what) {
  if (!ok) check(false, what);
}

void Report::info(const std::string& line) {
  std::printf("# %s\n", line.c_str());
}

void Report::overhead(const std::string& name, double traced,
                      double untraced) {
  info("tracing overhead " + name + ": traced " + std::to_string(traced) +
       " - untraced " + std::to_string(untraced) + " = " +
       std::to_string(traced - untraced));
}

void Report::ungated(const std::string& name, double value,
                     const std::string& unit, std::size_t samples,
                     const std::string& note) {
  print_metric("ungated", Metric{name, value, unit, samples, note});
}

const Metric* Report::find_e2e(const std::string& name) const {
  for (const Metric& m : e2e_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::print(bool traced) {
  for (const MetricDef& d : kEndToEndMetrics) {
    require(find_e2e(d.name) != nullptr,
            std::string("end-to-end metric ") + d.name + " was measured");
  }
  for (const MetricDef& d : kLayerMetrics) {
    bool seen = false;
    for (const Metric& m : layers_) seen = seen || m.name == d.name;
    if (!seen) {
      layers_.push_back(
          Metric{d.name, 0.0, d.unit, 0, "n/a: layer unused by this workload"});
    }
  }
  for (const Metric& m : e2e_) print_metric("end_to_end", m);
  for (const Metric& m : layers_) print_metric("per_layer", m);
  std::printf("# checks: %s (%zu failed)\n", correct() ? "all passed" : "FAILED",
              failures_);
  const std::vector<Metric>& out = traced ? layers_ : e2e_;
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + json_escape(out[i].name) + "\": {\"value\": " +
            number_text(std::isfinite(out[i].value) ? out[i].value : 0.0) +
            ", \"unit\": \"" + json_escape(out[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---- SpanLog --------------------------------------------------------------

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

// ---- host -----------------------------------------------------------------

std::size_t nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::size_t os_threads() {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  std::size_t n = 0;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] != '.') ++n;
  }
  closedir(dir);
  return n;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::size_t ThreadPlan::total() const {
  std::size_t t = 0;
  for (const auto& r : roles) t += r.second;
  return t;
}

void ThreadPlan::check(Report& report) const {
  std::string line = "threads[" + phase + "]:";
  for (const auto& r : roles) {
    line += " " + r.first + "=" + std::to_string(r.second);
  }
  line += " total=" + std::to_string(total()) +
          " observed_max=" + std::to_string(observed_max) +
          " nproc=" + std::to_string(nproc());
  report.info(line);
  report.check(total() <= nproc(),
               "declared threads of phase " + phase + " fit in nproc");
  report.check(observed_max <= nproc(),
               "observed threads of phase " + phase + " fit in nproc");
}

}  // namespace perfbench
