// Shared pieces of the end-to-end benchmark driver: clock, order
// statistics, the metric report and its final JSON line, correctness
// checks, in-memory span tracing, and the host / thread-budget record.
//
// Everything here lives on the benchmark side: the library under test is
// reached only through its public headers, and every span is recorded
// around a public call from the benchmark's own code.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- time -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the driver started.
[[nodiscard]] std::int64_t now_ns();
/// Sleep until now_ns() >= t (absolute, timer slack lowered at start-up).
void sleep_until_ns(std::int64_t t);
[[nodiscard]] inline double to_ms(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-6;
}
[[nodiscard]] inline double to_us(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-3;
}
[[nodiscard]] inline double to_s(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

// ---- order statistics -----------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of `v`; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
/// Samples strictly beyond the nearest-rank q-quantile of an n-sample set.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double q);
/// The q-quantile of each run of consecutive samples (`v` in time order,
/// blocks of at least `block` samples), median over the blocks; the plain
/// q-quantile when there are fewer than two blocks. A stall of the shared
/// host then moves one block, not the reported value. `*smallest` receives
/// the smallest block's size.
[[nodiscard]] double block_quantile(const std::vector<double>& v, double q,
                                    std::size_t block,
                                    std::size_t* smallest = nullptr);
/// Throughput from completion times (ns, ascending): the rate of each run of
/// `group` consecutive completions, median over the runs.
[[nodiscard]] double median_rate(const std::vector<std::int64_t>& done_ns,
                                 std::size_t group);

// ---- report ---------------------------------------------------------------

/// A metric the benchmark declares in BENCHMARK.json: its name and unit.
struct MetricDef {
  const char* name;
  const char* unit;
};
/// Every end-to-end metric; each workload reports all of them.
extern const std::vector<MetricDef> kEndToEndMetrics;
/// Every per-layer metric. A workload that does not use a layer reports it
/// as 0 with an "n/a" note (the "mainly on" column of perfbench/README.md).
extern const std::vector<MetricDef> kLayerMetrics;

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  std::string note;  ///< how it was measured, the base of a ratio
};

/// Collects metrics and check outcomes, prints the human-readable record
/// and the final JSON line the benchmark contract asks for.
class Report {
 public:
  /// Records a declared metric (its unit comes from the declaration).
  void end_to_end(const std::string& name, double value, std::size_t samples,
                  std::string note = {});
  void per_layer(const std::string& name, double value, std::size_t samples,
                 std::string note = {});
  /// Records a correctness check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what);
  void info(const std::string& line);
  /// Prints traced minus untraced for a metric measured in both phases.
  void overhead(const std::string& name, double traced, double untraced);
  /// Prints a measured value that BENCHMARK.json does not gate (it is not
  /// part of the JSON line).
  void ungated(const std::string& name, double value, const std::string& unit,
               std::size_t samples, const std::string& note);

  void count_attempted(std::size_t n) { attempted_ += n; }
  void count_failed(std::size_t n) { failed_ += n; }

  [[nodiscard]] bool correct() const noexcept { return failures_ == 0; }

  /// Prints every metric (name, value, unit, sample count, note), then the
  /// final JSON line: end-to-end metrics when !traced, per-layer otherwise.
  /// A declared end-to-end metric that was never recorded fails the run.
  void print(bool traced);

 private:
  /// A check that is only worth printing when it fails.
  void require(bool ok, const std::string& what);
  [[nodiscard]] const Metric* find_e2e(const std::string& name) const;

  std::vector<Metric> e2e_;
  std::vector<Metric> layers_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t failures_ = 0;
};

// ---- tracing --------------------------------------------------------------

struct Span {
  const char* name = "";
  std::uint64_t id = 0;      ///< request / window / set-up id
  std::uint64_t parent = 0;  ///< id of the causing span's request; 0 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span store, written out once when the run ends.
class SpanLog {
 public:
  void add(const char* name, std::uint64_t id, std::uint64_t parent,
           std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back(Span{name, id, parent, start_ns, end_ns});
  }
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// One JSON object per line; returns false if the file cannot be written.
  [[nodiscard]] bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// ---- host and thread budget -----------------------------------------------

/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] std::size_t nproc();
[[nodiscard]] std::string cpu_model();
/// Threads the kernel currently lists for this process.
[[nodiscard]] std::size_t os_threads();
/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// Threads one phase runs, by role. check() fails the run when the
/// declared total or the observed OS thread count exceeds nproc.
struct ThreadPlan {
  std::string phase;
  std::vector<std::pair<std::string, std::size_t>> roles;
  std::size_t observed_max = 0;

  void observe() {
    const std::size_t n = os_threads();
    if (n > observed_max) observed_max = n;
  }
  [[nodiscard]] std::size_t total() const;
  void check(Report& report) const;
};

// ---- arguments ------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  /// Where the traced run writes its spans (required with --trace 1).
  std::string trace_out;
  /// Multiplies the capacity phase's in-flight depth (steadiness report).
  std::size_t depth_factor = 1;
};

}  // namespace perfbench
