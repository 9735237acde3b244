// Size-bucketed recycler for Matrix storage — the allocation arena behind
// Tape::reset() (DESIGN.md §10).
//
// A training step builds thousands of small tape nodes whose value/grad
// buffers all die together when the step ends. Instead of returning that
// memory to the heap and re-allocating identical buffers on the next step,
// the pool keeps retired std::vector<double> storage in buckets keyed by
// size class: capacities rounded up at 4 classes per octave (at most 25%
// slack). acquire() pops a buffer from the class that holds the request
// (zeroing it) or allocates a whole class's capacity on a miss; release()
// files storage under the largest class its capacity covers. After one
// warm-up step every acquire hits, so steady-state steps perform near-zero
// heap allocation — the hit/miss counters make that measurable (bench_micro
// reports the per-step miss delta as `pool_steady_allocs`). Classes also
// let one tape serve graphs of nearby sizes from the same buffers: a
// partitioned-training worker that meets clusters of slightly different
// row counts keeps one set of buffers, not one per cluster size.
//
// Not thread-safe: a pool belongs to exactly one Tape, and a Tape is only
// ever driven by one thread at a time (the threaded kernels it calls fan
// out *under* a single acquire/release site, never around one).
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "tensor/matrix.hpp"

namespace rihgcn {

class BufferPool {
 public:
  /// Zero-filled rows x cols matrix, reusing retired storage of the size
  /// class that holds rows * cols elements when available.
  [[nodiscard]] Matrix acquire(std::size_t rows, std::size_t cols);

  /// Retire a matrix's storage into the largest size class its capacity
  /// covers. Empty matrices are dropped (nothing to recycle).
  void release(Matrix&& m);

  /// Drop every pooled buffer, returning the memory to the heap. Counters
  /// are not reset.
  void clear();

  // Counters since construction: hits = acquires served from a bucket,
  // misses = acquires that had to allocate.
  [[nodiscard]] std::size_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::size_t misses() const noexcept { return misses_; }
  /// Number of buffers currently parked in buckets.
  [[nodiscard]] std::size_t pooled_buffers() const noexcept;

 private:
  std::unordered_map<std::size_t, std::vector<std::vector<double>>> buckets_;
  std::size_t hits_ = 0;
  std::size_t misses_ = 0;
};

}  // namespace rihgcn
