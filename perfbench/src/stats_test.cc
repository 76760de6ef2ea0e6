// Unit test of the benchmark's statistics code (stats.h): the percentile rule, span self
// time over overlapping children, the hit/miss classification of an interaction, and the
// least-over-passes fold of per-interaction timings.
//
//   ctest --test-dir .bench_build/perfbench
#include <cstdint>
#include <cstdio>
#include <vector>

#include "perfbench/src/stats.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: FAILED %s\n", __FILE__, __LINE__, #cond); \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) {
    v.push_back(i);
  }
  return v;
}

void PercentileRule() {
  using perfbench::HighestSupportedPercentile;
  using perfbench::PercentileOfSorted;
  using perfbench::PercentileSupported;
  using perfbench::SamplesBeyond;

  // Nearest rank: the p-th percentile of 1..100 is p.
  EXPECT(PercentileOfSorted(OneTo(100), 50) == 50);
  EXPECT(PercentileOfSorted(OneTo(100), 99) == 99);
  EXPECT(PercentileOfSorted(OneTo(1), 99) == 1);

  // p99 needs ten samples beyond it: 1000 samples is the least that gives it.
  EXPECT(SamplesBeyond(1000, 99) == 10);
  EXPECT(PercentileSupported(1000, 99));
  EXPECT(!PercentileSupported(999, 99));
  EXPECT(PercentileSupported(20, 50));
  EXPECT(!PercentileSupported(19, 50));
  EXPECT(!PercentileSupported(0, 50));

  // The highest supported percentile climbs the ladder with the sample count, and the
  // sample count is reported alongside it.
  perfbench::Tail t = HighestSupportedPercentile(OneTo(19));
  EXPECT(t.pct == 0 && t.samples == 19);
  t = HighestSupportedPercentile(OneTo(100));
  EXPECT(t.pct == 90 && t.value == 90 && t.samples == 100);
  t = HighestSupportedPercentile(OneTo(999));
  EXPECT(t.pct == 90 && t.samples == 999);
  t = HighestSupportedPercentile(OneTo(1000));
  EXPECT(t.pct == 99 && t.value == 990);
  t = HighestSupportedPercentile(OneTo(10000));
  EXPECT(t.pct == 99.9 && t.value == 9990);

  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2.5);
}

void SelfTime() {
  using perfbench::SelfTime;
  EXPECT(SelfTime(0, 100, {}) == 100);
  EXPECT(SelfTime(0, 100, {{10, 20}, {30, 40}}) == 80);
  // Overlapping children are covered once.
  EXPECT(SelfTime(0, 100, {{10, 50}, {20, 30}, {40, 60}}) == 50);
  // Unsorted input, and a child nested inside another.
  EXPECT(SelfTime(0, 100, {{40, 60}, {10, 50}}) == 50);
  // Children sticking out of the parent count only inside it.
  EXPECT(SelfTime(10, 20, {{0, 15}, {18, 30}}) == 3);
  // A child covering the whole parent leaves no self time.
  EXPECT(SelfTime(10, 20, {{5, 25}, {12, 14}}) == 0);
  // Touching children.
  EXPECT(SelfTime(0, 10, {{0, 5}, {5, 10}}) == 0);
}

void Classification() {
  using perfbench::ClassifyInteraction;
  using perfbench::Outcome;
  EXPECT(ClassifyInteraction(3, 0) == Outcome::kHit);
  // One recomputed call makes the whole interaction a miss, whatever else hit.
  EXPECT(ClassifyInteraction(3, 1) == Outcome::kMiss);
  EXPECT(ClassifyInteraction(1, 1) == Outcome::kMiss);
  EXPECT(ClassifyInteraction(0, 0) == Outcome::kNoCacheableCall);
}

void LeastOverRounds() {
  using perfbench::FoldLeast;
  std::vector<double> least;
  std::vector<uint8_t> cls;
  // The first pass initialises both series.
  FoldLeast({5, 7, 9}, {0, 1, 0}, &least, &cls);
  EXPECT(least == (std::vector<double>{5, 7, 9}));
  EXPECT(cls == (std::vector<uint8_t>{0, 1, 0}));
  // A later pass lowers an index only where it classed the interaction the same way.
  FoldLeast({4, 2, 12}, {0, 0, 0}, &least, &cls);
  EXPECT(least == (std::vector<double>{4, 7, 9}));
  EXPECT(cls == (std::vector<uint8_t>{0, 1, 0}));
  FoldLeast({6, 3, 8}, {0, 1, 0}, &least, &cls);
  EXPECT(least == (std::vector<double>{4, 3, 8}));
}

}  // namespace

int main() {
  PercentileRule();
  SelfTime();
  Classification();
  LeastOverRounds();
  if (failures == 0) {
    std::printf("stats_test: all checks passed\n");
  }
  return failures == 0 ? 0 : 1;
}
