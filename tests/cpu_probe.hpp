// Where a timed scaling test's threads actually ran (DESIGN.md §12).
//
// The tier-2 wall-clock scaling gates compare a 1-thread and a 4-thread
// run. On a host whose scheduler stacks every thread of a test on one CPU
// (a cpuset without load balancing keeps each thread on the CPU it started
// on), the ratio reads ~1.0 for any code. The gates note sched_getcpu()
// from their worker threads during the timed phase and print the CPU sets
// when they fail, so a stacked host is told apart from code that
// serializes. Recording only: it never changes a verdict.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

#if defined(__linux__)
#include <sched.h>
#endif

namespace rihgcn::testutil {

/// Thread-safe set of CPU ids, filled by note() from any thread.
class CpuSet {
 public:
  /// Adds the CPU the calling thread is on right now (Linux; elsewhere a
  /// no-op, and str() reads "{}").
  void note() noexcept {
#if defined(__linux__)
    const int cpu = sched_getcpu();
    if (cpu >= 0 && cpu < kMaxCpus) {
      bits_[cpu / 64].fetch_or(std::uint64_t{1} << (cpu % 64),
                               std::memory_order_relaxed);
    }
#endif
  }

  /// Number of distinct CPUs noted.
  [[nodiscard]] std::size_t count() const noexcept {
    std::size_t n = 0;
    for (const auto& word : bits_) {
      n += static_cast<std::size_t>(
          std::popcount(word.load(std::memory_order_relaxed)));
    }
    return n;
  }

  /// The CPUs noted so far, ascending: "{0,2,3}".
  [[nodiscard]] std::string str() const {
    std::string out = "{";
    for (int cpu = 0; cpu < kMaxCpus; ++cpu) {
      const std::uint64_t word = bits_[cpu / 64].load(std::memory_order_relaxed);
      if ((word >> (cpu % 64)) & 1U) {
        if (out.size() > 1) out += ',';
        out += std::to_string(cpu);
      }
    }
    return out + "}";
  }

 private:
  static constexpr int kMaxCpus = 1024;
  std::atomic<std::uint64_t> bits_[kMaxCpus / 64]{};
};

}  // namespace rihgcn::testutil
