#include "tensor/pool.hpp"

#include <bit>
#include <utility>

namespace rihgcn {

namespace {

// Size classes: every count below 8 is its own class; above, each octave
// [2^e, 2^(e+1)) splits into 4 classes 2^(e−2) apart, so a buffer is at
// most 25% larger than the request it serves.
std::size_t class_step(std::size_t n) {
  return n < 8 ? 1 : std::size_t{1} << (std::bit_width(n) - 3);
}

/// Smallest class that holds `n` elements.
std::size_t class_above(std::size_t n) {
  const std::size_t step = class_step(n);
  return (n + step - 1) / step * step;
}

/// Largest class a buffer of capacity `n` covers.
std::size_t class_below(std::size_t n) {
  const std::size_t step = class_step(n);
  return n / step * step;
}

}  // namespace

Matrix BufferPool::acquire(std::size_t rows, std::size_t cols) {
  const std::size_t elems = rows * cols;
  if (elems == 0) return Matrix(rows, cols);
  const std::size_t cls = class_above(elems);
  std::vector<double> storage;
  auto it = buckets_.find(cls);
  if (it != buckets_.end() && !it->second.empty()) {
    ++hits_;
    storage = std::move(it->second.back());
    it->second.pop_back();
  } else {
    ++misses_;
    storage.reserve(cls);  // the whole class, so release() files it there
  }
  storage.assign(elems, 0.0);
  return Matrix(rows, cols, std::move(storage));
}

void BufferPool::release(Matrix&& m) {
  if (m.empty()) return;
  std::vector<double>& storage = m.storage();
  buckets_[class_below(storage.capacity())].push_back(std::move(storage));
}

void BufferPool::clear() { buckets_.clear(); }

std::size_t BufferPool::pooled_buffers() const noexcept {
  std::size_t n = 0;
  for (const auto& [cls, bucket] : buckets_) n += bucket.size();
  return n;
}

}  // namespace rihgcn
