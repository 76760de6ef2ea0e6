// Statistics the RUBiS wall-clock benchmark reports: the percentile rule, span self time and
// the hit/miss classification of one interaction. Kept free of txcache types so the unit
// test (stats_test.cc) exercises exactly the code the benchmark runs.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

// A percentile is reported only when at least this many samples rank beyond it.
inline constexpr size_t kMinSamplesBeyond = 10;

// 1-based nearest rank of the `pct`-th percentile among `n` samples. The epsilon keeps
// 99.9% of 10000 at rank 9990 despite 99.9 having no exact binary form.
inline size_t NearestRank(size_t n, double pct) {
  const double exact = pct / 100.0 * static_cast<double>(n);
  return std::min(n, static_cast<size_t>(std::ceil(exact - 1e-9)));
}

// Samples ranked strictly above the nearest-rank `pct`-th percentile of `n` samples.
inline size_t SamplesBeyond(size_t n, double pct) { return n - NearestRank(n, pct); }

inline bool PercentileSupported(size_t n, double pct) {
  return n > 0 && SamplesBeyond(n, pct) >= kMinSamplesBeyond;
}

// Nearest-rank percentile of an ascending-sorted, non-empty sample vector.
inline double PercentileOfSorted(const std::vector<double>& sorted, double pct) {
  return sorted[std::max<size_t>(NearestRank(sorted.size(), pct), 1) - 1];
}

// The highest percentile of the ladder 50, 90, 99, 99.9, 99.99 that keeps at least
// kMinSamplesBeyond samples beyond it. `pct` is 0 when even the median is unsupported.
struct Tail {
  double pct = 0;
  double value = 0;
  size_t samples = 0;
};

inline Tail HighestSupportedPercentile(const std::vector<double>& sorted) {
  Tail tail;
  tail.samples = sorted.size();
  for (double pct : {50.0, 90.0, 99.0, 99.9, 99.99}) {
    if (!PercentileSupported(sorted.size(), pct)) {
      break;
    }
    tail.pct = pct;
    tail.value = PercentileOfSorted(sorted, pct);
  }
  return tail;
}

// Duration of [start, end) not covered by any child interval. Children may overlap each
// other and may stick out of the parent; only the part inside the parent counts.
inline int64_t SelfTime(int64_t start, int64_t end,
                        std::vector<std::pair<int64_t, int64_t>> children) {
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t cursor = start;  // everything before `cursor` is already accounted for
  for (auto [s, e] : children) {
    s = std::max(s, cursor);
    e = std::min(e, end);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return (end - start) - covered;
}

// How a read-only interaction was served, from the client's counter deltas across it.
enum class Outcome { kHit, kMiss, kNoCacheableCall };

inline Outcome ClassifyInteraction(uint64_t cacheable_calls, uint64_t cache_misses) {
  if (cache_misses > 0) {
    return Outcome::kMiss;
  }
  return cacheable_calls > 0 ? Outcome::kHit : Outcome::kNoCacheableCall;
}

// Folds one pass's per-interaction timings into the least seen so far. Passes run the same
// interactions in the same order, so work the program does recurs at the same index in every
// pass, while a stall caused by another guest on the host does not; the least over passes
// keeps the first and drops the second. An index counts only where the pass classed the
// interaction as the first pass did (a hit in one pass and a miss in another is not the
// same work). The first pass initialises `least` and `least_class`.
inline void FoldLeast(const std::vector<double>& us, const std::vector<uint8_t>& cls,
                      std::vector<double>* least, std::vector<uint8_t>* least_class) {
  if (least->empty()) {
    *least = us;
    *least_class = cls;
    return;
  }
  const size_t n = std::min(us.size(), least->size());
  for (size_t i = 0; i < n; ++i) {
    if (cls[i] == (*least_class)[i]) {
      (*least)[i] = std::min((*least)[i], us[i]);
    }
  }
}

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
