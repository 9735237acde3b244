#include "timeseries/distance.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tensor/parallel.hpp"

namespace rihgcn::ts {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The one DTW kernel behind dtw(), dtw_multivariate(),
/// dtw_early_abandoned() and the k-NN scan, parameterized by a local-cost
/// callable cost(i, j). A two-row rolling DP on caller-provided scratch
/// (2·m doubles), so a scan calling it per candidate never allocates.
///
/// Cell (i, j) takes best = min over its in-band predecessors, folded as
/// std::min(std::min(std::min(+inf, up), left), diagonal) with absent
/// terms skipped ((0, 0) starts from 0.0), then adds cost(i, j) — the cell
/// order, std::min order and additions of the textbook full-matrix DP, so
/// every value carries the same bits. Each row visits only its Sakoe-Chiba
/// band [j_lo, j_hi); row 0 and column 0, which lack predecessors, are
/// peeled off the inner loop. Out-of-band cells read as +inf: the cell left
/// of the band is reset each row (it may hold a value from two rows back)
/// and every cell right of it still holds its initial +inf, because band
/// edges never move left.
///
/// `cutoff` enables row-wise early abandoning: once no cell of a DP row is
/// below it, the final value cannot be either (every complete warping path
/// visits each row and local costs are >= 0), so +inf is returned. The test
/// is a pure comparison, so a finite result is bitwise identical to
/// cutoff = +inf.
template <typename CostFn>
double dtw_kernel(std::size_t n, std::size_t m, std::ptrdiff_t band,
                  CostFn&& cost, double cutoff, double* scratch) {
  // dp[j] = cost of aligning a[0..i] with b[0..j].
  double* prev = scratch;
  double* curr = scratch + m;
  std::fill(scratch, scratch + 2 * m, kInf);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t j_lo = 0, j_hi = m;
    if (band >= 0) {
      const std::ptrdiff_t center =
          n == m ? static_cast<std::ptrdiff_t>(i)
                 : static_cast<std::ptrdiff_t>(i) *
                       static_cast<std::ptrdiff_t>(m) /
                       static_cast<std::ptrdiff_t>(n);
      j_lo = static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, center - band));
      j_hi = static_cast<std::size_t>(
          std::min<std::ptrdiff_t>(static_cast<std::ptrdiff_t>(m),
                                   center + band + 1));
    }
    if (j_lo > 0) curr[j_lo - 1] = kInf;
    double left = kInf;  // curr[j - 1] for the cell being filled
    double row_min = kInf;
    std::size_t j = j_lo;
    if (j == 0) {
      left = (i == 0 ? 0.0 : std::min(kInf, prev[0])) + cost(i, 0);
      curr[0] = left;
      row_min = std::min(row_min, left);
      ++j;
    }
    if (i == 0) {
      for (; j < j_hi; ++j) {
        left = std::min(kInf, left) + cost(i, j);
        curr[j] = left;
        row_min = std::min(row_min, left);
      }
    } else {
      for (; j < j_hi; ++j) {
        const double best =
            std::min(std::min(std::min(kInf, prev[j]), left), prev[j - 1]);
        left = best + cost(i, j);
        curr[j] = left;
        row_min = std::min(row_min, left);
      }
    }
    if (!(row_min < cutoff)) return kInf;  // abandoned: true dtw >= cutoff
    std::swap(prev, curr);
  }
  return prev[m - 1];
}

/// dtw_kernel with its own scratch, for the one-off public entry points.
template <typename CostFn>
double dtw_alloc(std::size_t n, std::size_t m, std::ptrdiff_t band,
                 CostFn&& cost, double cutoff = kInf) {
  if (n == 0 || m == 0) {
    throw std::invalid_argument("dtw: empty series");
  }
  std::vector<double> scratch(2 * m);
  return dtw_kernel(n, m, band, cost, cutoff, scratch.data());
}

}  // namespace

double dtw(std::span<const double> a, std::span<const double> b,
           std::ptrdiff_t band) {
  return dtw_early_abandoned(a, b, band, kInf);
}

double dtw_multivariate(const Matrix& a, const Matrix& b,
                        std::ptrdiff_t band) {
  if (a.cols() != b.cols()) {
    throw ShapeError("dtw_multivariate: dimension mismatch");
  }
  const std::size_t d = a.cols();
  return dtw_alloc(a.rows(), b.rows(), band, [&](std::size_t i, std::size_t j) {
    double s = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const double diff = a(i, k) - b(j, k);
      s += diff * diff;
    }
    return std::sqrt(s);
  });
}

double erp(std::span<const double> a, std::span<const double> b, double gap) {
  const std::size_t n = a.size(), m = b.size();
  if (n == 0 && m == 0) return 0.0;
  std::vector<double> prev(m + 1, 0.0), curr(m + 1, 0.0);
  for (std::size_t j = 1; j <= m; ++j) {
    prev[j] = prev[j - 1] + std::abs(b[j - 1] - gap);
  }
  for (std::size_t i = 1; i <= n; ++i) {
    curr[0] = prev[0] + std::abs(a[i - 1] - gap);
    for (std::size_t j = 1; j <= m; ++j) {
      const double match = prev[j - 1] + std::abs(a[i - 1] - b[j - 1]);
      const double del_a = prev[j] + std::abs(a[i - 1] - gap);
      const double del_b = curr[j - 1] + std::abs(b[j - 1] - gap);
      curr[j] = std::min({match, del_a, del_b});
    }
    prev.swap(curr);
  }
  return prev[m];
}

double series_distance(SeriesDistance kind, std::span<const double> a,
                       std::span<const double> b) {
  switch (kind) {
    case SeriesDistance::kDtw:
      return dtw(a, b);
    case SeriesDistance::kErp:
      return erp(a, b);
  }
  throw std::logic_error("series_distance: bad kind");
}

Matrix pairwise_series_distance(const Matrix& series, SeriesDistance kind) {
  const std::size_t n = series.rows();
  const std::size_t len = series.cols();
  Matrix out(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    std::span<const double> a(series.data() + i * len, len);
    for (std::size_t j = i + 1; j < n; ++j) {
      std::span<const double> b(series.data() + j * len, len);
      const double d = series_distance(kind, a, b);
      out(i, j) = out(j, i) = d;
    }
  }
  return out;
}

// ---- Pruned k-NN DTW graph construction (DESIGN.md §13) --------------------

namespace {

/// Envelope half-width for a DTW band: a negative band is unconstrained,
/// so the window is the whole series.
std::size_t envelope_radius(std::ptrdiff_t band, std::size_t m) {
  return band < 0 ? m : static_cast<std::size_t>(band);
}

/// Sliding min/max of s over the window |i - j| <= r, written to
/// lower[0..m) / upper[0..m).
void envelope_into(std::span<const double> s, std::size_t r, double* lower,
                   double* upper) {
  const std::size_t m = s.size();
  if (m == 0) return;
  if (r >= m) {  // unconstrained: global min/max
    const auto [lo, hi] = std::minmax_element(s.begin(), s.end());
    std::fill(lower, lower + m, *lo);
    std::fill(upper, upper + m, *hi);
    return;
  }
  // Monotone-deque sliding window min/max over |i - j| <= r, O(m) total.
  std::deque<std::size_t> min_q, max_q;
  std::size_t fed = 0;  // elements pushed into the deques so far
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t hi = std::min(m, i + r + 1);
    for (; fed < hi; ++fed) {
      while (!min_q.empty() && s[min_q.back()] >= s[fed]) min_q.pop_back();
      min_q.push_back(fed);
      while (!max_q.empty() && s[max_q.back()] <= s[fed]) max_q.pop_back();
      max_q.push_back(fed);
    }
    const std::size_t lo = i >= r ? i - r : 0;
    while (min_q.front() < lo) min_q.pop_front();
    while (max_q.front() < lo) max_q.pop_front();
    lower[i] = s[min_q.front()];
    upper[i] = s[max_q.front()];
  }
}

}  // namespace

double lb_kim(std::span<const double> a, std::span<const double> b) {
  if (a.empty() || b.empty()) {
    throw std::invalid_argument("lb_kim: empty series");
  }
  double lb = std::abs(a.front() - b.front());
  // (0,0) and (n-1,m-1) are distinct path cells unless both series have
  // length 1, so the endpoint costs add.
  if (a.size() > 1 || b.size() > 1) lb += std::abs(a.back() - b.back());
  return lb;
}

KeoghEnvelope keogh_envelope(std::span<const double> s, std::ptrdiff_t band) {
  KeoghEnvelope env;
  env.lower.resize(s.size());
  env.upper.resize(s.size());
  envelope_into(s, envelope_radius(band, s.size()), env.lower.data(),
                env.upper.data());
  return env;
}

double lb_keogh(std::span<const double> a, const KeoghEnvelope& env_b) {
  if (a.size() != env_b.lower.size()) {
    throw std::invalid_argument("lb_keogh: length mismatch");
  }
  double lb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > env_b.upper[i]) {
      lb += a[i] - env_b.upper[i];
    } else if (a[i] < env_b.lower[i]) {
      lb += env_b.lower[i] - a[i];
    }
  }
  return lb;
}

double dtw_early_abandoned(std::span<const double> a,
                           std::span<const double> b, std::ptrdiff_t band,
                           double cutoff) {
  return dtw_alloc(
      a.size(), b.size(), band,
      [&](std::size_t i, std::size_t j) { return std::abs(a[i] - b[j]); },
      cutoff);
}

void TopKNeighbors::clear() noexcept {
  items_.clear();
  kth_dist_ = kInf;
  kth_dist_above_ = kInf;
  kth_idx_ = 0;
}

bool TopKNeighbors::offer(double d, std::size_t j) {
  if (!(d < cutoff_for(j))) return false;
  const Neighbor cand{d, j};
  const auto pos = std::lower_bound(
      items_.begin(), items_.end(), cand, [](const Neighbor& x, const Neighbor& y) {
        return x.dist < y.dist || (x.dist == y.dist && x.idx < y.idx);
      });
  items_.insert(pos, cand);
  if (items_.size() > k_) items_.pop_back();
  if (items_.size() == k_) {
    kth_dist_ = items_.back().dist;
    kth_dist_above_ = std::nextafter(kth_dist_, kInf);
    kth_idx_ = items_.back().idx;
  }
  return true;
}

void require_finite_rows(const Matrix& m, const char* who) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    for (std::size_t c = 0; c < m.cols(); ++c) {
      if (!std::isfinite(m(r, c))) {
        throw std::invalid_argument(std::string(who) +
                                    ": non-finite value in row " +
                                    std::to_string(r));
      }
    }
  }
}

namespace {

// Fixed row grain — shard boundaries (hence per-row results and the shard
// ownership) never depend on the thread count.
constexpr std::size_t kRowGrain = 4;
/// Positions per strip of the first-value order (see SortedSeries).
constexpr std::size_t kStrip = 256;
/// Candidates per bound block: the pruned scan computes LB_Kim and LB_Keogh
/// for this many consecutive positions at once, in loops the compiler
/// vectorizes, and seeds each row with the block around it.
constexpr std::size_t kBlock = 64;

/// Sorts [first, last) by (key, index) — a total order, so the result is
/// unique however std::sort proceeds.
void sort_by_key(std::vector<std::size_t>::iterator first,
                 std::vector<std::size_t>::iterator last,
                 const std::vector<double>& key) {
  std::sort(first, last, [&](std::size_t x, std::size_t y) {
    return key[x] < key[y] || (key[x] == key[y] && x < y);
  });
}

/// The pruned scan's shared read-only state, built once per call. Nodes are
/// sorted by first value, cut into strips of kStrip consecutive positions,
/// and re-sorted by last value inside each strip, so a row's LB_Kim
/// neighbourhood — |Δfirst| + |Δlast| <= cutoff — is a run of strips, and
/// a window of positions inside each. Series and Keogh envelopes are stored
/// transposed (point-major, one contiguous row of positions per point), so
/// a block's bounds read each point as a unit-stride run; rows are padded
/// by kBlock so a block may run past the last node.
struct SortedSeries {
  std::size_t n = 0;
  std::size_t len = 0;
  std::size_t stride = 0;                        ///< n + kBlock
  std::vector<double> vals, lower, upper;        ///< len x stride
  std::vector<double> first;                     ///< stride
  std::vector<double> last;  ///< stride; 0 when len == 1 (LB_Kim's rule)
  std::vector<std::size_t> node;  ///< original row at position p
  std::vector<double> strip_lo, strip_hi;  ///< first-value range per strip
};

SortedSeries sort_series(const Matrix& series, std::ptrdiff_t band,
                         ThreadPool& pool) {
  SortedSeries s;
  const std::size_t n = series.rows();
  const std::size_t len = series.cols();
  s.n = n;
  s.len = len;
  s.stride = n + kBlock;
  std::vector<double> first(n), last(n);
  for (std::size_t i = 0; i < n; ++i) {
    first[i] = series(i, 0);
    last[i] = len > 1 ? series(i, len - 1) : 0.0;
  }
  s.node.resize(n);
  std::iota(s.node.begin(), s.node.end(), std::size_t{0});
  sort_by_key(s.node.begin(), s.node.end(), first);
  const std::size_t strips = (n + kStrip - 1) / kStrip;
  s.strip_lo.resize(strips);
  s.strip_hi.resize(strips);
  for (std::size_t st = 0; st < strips; ++st) {
    const auto b = s.node.begin() + static_cast<std::ptrdiff_t>(st * kStrip);
    const auto e = s.node.begin() +
                   static_cast<std::ptrdiff_t>(std::min(n, (st + 1) * kStrip));
    s.strip_lo[st] = first[*b];
    s.strip_hi[st] = first[*(e - 1)];
    sort_by_key(b, e, last);
  }
  s.vals.assign(len * s.stride, 0.0);
  s.lower.assign(len * s.stride, 0.0);
  s.upper.assign(len * s.stride, 0.0);
  s.first.assign(s.stride, 0.0);
  s.last.assign(s.stride, 0.0);
  const std::size_t radius = envelope_radius(band, len);
  pool.parallel_for(0, n, kRowGrain, [&](std::size_t b, std::size_t e) {
    std::vector<double> lo(len), up(len);
    for (std::size_t p = b; p < e; ++p) {
      const std::size_t i = s.node[p];
      const double* row = series.data() + i * len;
      envelope_into({row, len}, radius, lo.data(), up.data());
      for (std::size_t t = 0; t < len; ++t) {
        s.vals[t * s.stride + p] = row[t];
        s.lower[t * s.stride + p] = lo[t];
        s.upper[t * s.stride + p] = up[t];
      }
      s.first[p] = first[i];
      s.last[p] = last[i];
    }
  });
  return s;
}

/// The scanned row: its endpoints (as SortedSeries stores them), values
/// and Keogh envelope.
struct RowView {
  double first = 0.0;
  double last = 0.0;
  const double* vals = nullptr;
  const double* lower = nullptr;
  const double* upper = nullptr;
};

/// Bounds of row `a` against the kBlock candidates at positions
/// [c0, c0 + kBlock): kim[u] is LB_Kim, the two endpoint costs every path
/// pays; lb[u] is the larger of LB_Keogh both ways (a against the
/// candidate's envelope, the candidate against a's) over the interior
/// points, bracketed by those same endpoint costs — tighter than either
/// bound alone, and >= kim[u]. Each lane sums in path order (first point,
/// interior points ascending, last point), which is what keeps the rounded
/// bound below the rounded DTW; lanes are independent, so the loops
/// vectorize without changing a bit. Branch-free gaps: lower <= upper, so
/// at most one of the two gaps is positive and max(over, under, 0) is it.
void block_bounds(const SortedSeries& s, const RowView& a, std::size_t c0,
                  double* kim, double* lb) {
  double fwd[kBlock], bwd[kBlock], d_last[kBlock];
  const double* first = s.first.data() + c0;
  const double* last = s.last.data() + c0;
  for (std::size_t u = 0; u < kBlock; ++u) {
    const double d0 = std::abs(a.first - first[u]);
    const double d1 = std::abs(a.last - last[u]);
    kim[u] = d0 + d1;
    fwd[u] = d0;
    bwd[u] = d0;
    d_last[u] = d1;
  }
  for (std::size_t t = 1; t + 1 < s.len; ++t) {
    const double at = a.vals[t];
    const double a_lo = a.lower[t];
    const double a_up = a.upper[t];
    const double* bt = s.vals.data() + t * s.stride + c0;
    const double* b_lo = s.lower.data() + t * s.stride + c0;
    const double* b_up = s.upper.data() + t * s.stride + c0;
    for (std::size_t u = 0; u < kBlock; ++u) {
      fwd[u] += std::max(std::max(at - b_up[u], b_lo[u] - at), 0.0);
      bwd[u] += std::max(std::max(bt[u] - a_up, a_lo - bt[u]), 0.0);
    }
  }
  for (std::size_t u = 0; u < kBlock; ++u) {
    lb[u] = std::max(fwd[u] + d_last[u], bwd[u] + d_last[u]);
  }
}

/// Per-shard buffers, reused row after row so the scan never allocates.
struct ScanScratch {
  explicit ScanScratch(std::size_t len)
      : dtw(2 * len), a(len), a_lower(len), a_upper(len), b(len) {}
  std::vector<double> dtw, a, a_lower, a_upper, b;
};

/// Pruned top-k scan of the row at sorted position p. It seeds the
/// selection with the block of its own strip centred on it — the nearest
/// candidates by (first, last) — then visits the rest of its own strip and
/// sweeps outward strip by strip. Each candidate is offered at most once,
/// and only after its bounds fail to reject it against cutoff_for(j):
/// LB_Kim, then the bracketed LB_Keogh, then the early-abandoned DTW
/// kernel. Every one of the row's n − 1 pairs lands in exactly one KnnStats
/// class; the pairs no window reaches count as LB_Kim rejections, since
/// their LB_Kim is strictly above the cutoff.
void scan_sorted_row(const SortedSeries& s, std::size_t p,
                     std::ptrdiff_t band, TopKNeighbors& best,
                     ScanScratch& scratch, KnnStats& st) {
  const std::size_t n = s.n;
  const std::size_t len = s.len;
  for (std::size_t t = 0; t < len; ++t) {
    scratch.a[t] = s.vals[t * s.stride + p];
    scratch.a_lower[t] = s.lower[t * s.stride + p];
    scratch.a_upper[t] = s.upper[t * s.stride + p];
  }
  const RowView a{s.first[p], s.last[p], scratch.a.data(),
                  scratch.a_lower.data(), scratch.a_upper.data()};
  double* b = scratch.b.data();
  std::size_t keogh = 0, started = 0, abandoned = 0;
  best.clear();

  // Offers positions [lo, hi) block by block: one vectorized bound pass per
  // block, then each lane against its own cutoff_for(j), which may have
  // dropped since the pass.
  double kim[kBlock], lb[kBlock];
  const auto scan_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c0 = lo; c0 < hi; c0 += kBlock) {
      block_bounds(s, a, c0, kim, lb);
      const std::size_t width = std::min(kBlock, hi - c0);
      for (std::size_t u = 0; u < width; ++u) {
        const std::size_t c = c0 + u;
        if (c == p) continue;
        const std::size_t j = s.node[c];
        const double cut = best.cutoff_for(j);
        if (lb[u] >= cut) {
          keogh += kim[u] < cut ? 1 : 0;
          continue;
        }
        ++started;
        for (std::size_t t = 0; t < len; ++t) b[t] = s.vals[t * s.stride + c];
        const double d = dtw_kernel(
            len, len, band,
            [&](std::size_t x, std::size_t y) {
              return std::abs(a.vals[x] - b[y]);
            },
            cut, scratch.dtw.data());
        if (!best.offer(d, j) && d == kInf) ++abandoned;
      }
    }
  };
  // The positions of `strip` whose LB_Kim may still be within the cutoff.
  // `gap` is at most the first-value cost of every node in the strip, and
  // the last-value cost only grows moving away from a.last in the strip's
  // last-value order, so once gap + that cost — a lower bound on LB_Kim,
  // rounded the same monotone way — is strictly above the k-th distance,
  // no node further out can be admitted, whatever its index.
  const auto window = [&](std::size_t strip, double gap) {
    const std::size_t sb = strip * kStrip;
    const std::size_t se = std::min(n, sb + kStrip);
    const double* last = s.last.data();
    const double cut = best.cutoff();
    std::size_t hi = static_cast<std::size_t>(
        std::lower_bound(last + sb, last + se, a.last) - last);
    std::size_t lo = hi;
    while (hi < se && !(gap + (last[hi] - a.last) > cut)) ++hi;
    while (lo > sb && !(gap + (a.last - last[lo - 1]) > cut)) --lo;
    return std::pair{lo, hi};
  };

  const std::size_t home = p / kStrip;
  const std::size_t hb = home * kStrip;
  const std::size_t he = std::min(n, hb + kStrip);
  const std::size_t seed_lo =
      he - hb <= kBlock ? hb
                        : std::min(p - std::min(p - hb, kBlock / 2), he - kBlock);
  const std::size_t seed_hi = std::min(he, seed_lo + kBlock);
  scan_range(seed_lo, seed_hi);
  const auto [home_lo, home_hi] = window(home, 0.0);
  scan_range(home_lo, std::min(home_hi, seed_lo));
  scan_range(std::max(home_lo, seed_hi), home_hi);
  // Strips beyond: every node of an upper strip has a first value >= its
  // strip_lo >= a.first, so strip_lo − a.first bounds their first-value
  // costs from below and grows strip by strip (mirrored downward).
  for (std::size_t strip = home + 1; strip < s.strip_lo.size(); ++strip) {
    const double gap = s.strip_lo[strip] - a.first;
    if (gap > best.cutoff()) break;
    const auto [lo, hi] = window(strip, gap);
    scan_range(lo, hi);
  }
  for (std::size_t strip = home; strip-- > 0;) {
    const double gap = a.first - s.strip_hi[strip];
    if (gap > best.cutoff()) break;
    const auto [lo, hi] = window(strip, gap);
    scan_range(lo, hi);
  }
  st.pairs += n - 1;
  st.lb_kim_pruned += n - 1 - keogh - started;
  st.lb_keogh_pruned += keogh;
  st.dtw_started += started;
  st.dtw_abandoned += abandoned;
}

/// The reference scan of row i: every other row, ascending, full DTW.
void scan_row_exact(const Matrix& series, std::size_t i, std::ptrdiff_t band,
                    TopKNeighbors& best, ScanScratch& scratch, KnnStats& st) {
  const std::size_t n = series.rows();
  const std::size_t len = series.cols();
  const double* a = series.data() + i * len;
  best.clear();
  for (std::size_t j = 0; j < n; ++j) {
    if (j == i) continue;
    const double* b = series.data() + j * len;
    best.offer(dtw_kernel(
                   len, len, band,
                   [&](std::size_t u, std::size_t v) {
                     return std::abs(a[u] - b[v]);
                   },
                   kInf, scratch.dtw.data()),
               j);
  }
  st.pairs += n - 1;
  st.dtw_started += n - 1;
}

}  // namespace

NeighborList knn_series_graph(const Matrix& series, const KnnOptions& opts,
                              KnnStats* stats) {
  const std::size_t n = series.rows();
  const std::size_t len = series.cols();
  if (opts.k == 0) {
    throw std::invalid_argument("knn_series_graph: k must be > 0");
  }
  if (n > 0 && len == 0) {
    throw std::invalid_argument("knn_series_graph: empty series");
  }
  require_finite_rows(series, "knn_series_graph");
  const std::size_t k = n == 0 ? 0 : std::min(opts.k, n - 1);
  NeighborList out;
  out.num_nodes = n;
  out.k = k;
  out.offsets.resize(n + 1);
  for (std::size_t i = 0; i <= n; ++i) out.offsets[i] = i * k;
  out.idx.assign(n * k, 0);
  out.dist.assign(n * k, 0.0);
  if (n == 0 || k == 0) return out;

  ThreadPool& pool = ThreadPool::global();
  SortedSeries sorted;
  if (opts.prune) sorted = sort_series(series, opts.band, pool);

  // Work counters: integer sums are order-independent, so relaxed atomics
  // keep the reported stats thread-count deterministic.
  std::atomic<std::size_t> pairs{0}, kim{0}, keogh{0}, started{0},
      abandoned{0};
  pool.parallel_for(0, n, kRowGrain, [&](std::size_t b, std::size_t e) {
    TopKNeighbors best(k);
    ScanScratch scratch(len);
    KnnStats local;
    for (std::size_t r = b; r < e; ++r) {
      // Pruned rows run in sorted order, so a shard's rows scan
      // overlapping windows of the sorted arrays.
      std::size_t i = r;
      if (opts.prune) {
        i = sorted.node[r];
        scan_sorted_row(sorted, r, opts.band, best, scratch, local);
      } else {
        scan_row_exact(series, i, opts.band, best, scratch, local);
      }
      for (std::size_t c = 0; c < best.size(); ++c) {
        out.idx[i * k + c] = best.items()[c].idx;
        out.dist[i * k + c] = best.items()[c].dist;
      }
    }
    pairs.fetch_add(local.pairs, std::memory_order_relaxed);
    kim.fetch_add(local.lb_kim_pruned, std::memory_order_relaxed);
    keogh.fetch_add(local.lb_keogh_pruned, std::memory_order_relaxed);
    started.fetch_add(local.dtw_started, std::memory_order_relaxed);
    abandoned.fetch_add(local.dtw_abandoned, std::memory_order_relaxed);
  });
  if (stats != nullptr) {
    stats->pairs = pairs.load();
    stats->lb_kim_pruned = kim.load();
    stats->lb_keogh_pruned = keogh.load();
    stats->dtw_started = started.load();
    stats->dtw_abandoned = abandoned.load();
  }
  return out;
}

}  // namespace rihgcn::ts
