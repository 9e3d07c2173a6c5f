// Tests of the benchmark's own metric code: quantiles, the tail-percentile
// rule, span self time (including overlapping children) and the failure
// ratio. Plain checks, no framework: exits nonzero on the first failure.
//
// Run: ctest in the perfbench build directory, or ./stats_test.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::abs(got - want) > 1e-12) {
    std::printf("FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

std::vector<double> ramp(int n) {  // 1, 2, ..., n in shuffled order
  std::vector<double> v;
  for (int i = 0; i < n; ++i) v.push_back(static_cast<double>((i * 7) % n + 1));
  return v;
}

void test_median_and_quartiles() {
  using perfbench::median;
  expect_near(median({}), 0.0, "median of nothing");
  expect_near(median({5}), 5.0, "median of one");
  expect_near(median({3, 1, 2}), 2.0, "odd median");
  expect_near(median({4, 1, 3, 2}), 2.5, "even median interpolates");
  const perfbench::Quartiles q = perfbench::quartiles({1, 2, 3, 4, 5});
  expect_near(q.q1, 2.0, "q1 of 1..5");
  expect_near(q.median, 3.0, "q2 of 1..5");
  expect_near(q.q3, 4.0, "q3 of 1..5");
  const perfbench::Quartiles r = perfbench::quartiles({10, 20, 30, 40});
  expect_near(r.q1, 17.5, "q1 interpolates");
  expect_near(r.q3, 32.5, "q3 interpolates");
}

void test_tail_rule() {
  using perfbench::tail;
  // 9 samples: not even the 75th percentile has 10 beyond it.
  perfbench::Tail t = tail(ramp(9));
  expect_near(t.percentile, 0, "9 samples support no tail");
  expect_near(static_cast<double>(t.samples), 9, "sample count kept");
  // 40 samples: exactly 10 beyond the 75th, 4 beyond the 90th.
  t = tail(ramp(40));
  expect_near(t.percentile, 75, "40 samples -> p75");
  expect_near(t.value, perfbench::quantile(ramp(40), 0.75), "p75 value");
  // 199 samples: 9.95 beyond p95 is not enough; 19.9 beyond p90 is.
  expect_near(tail(ramp(199)).percentile, 90, "199 samples -> p90");
  expect_near(tail(ramp(200)).percentile, 95, "200 samples -> p95");
  expect_near(tail(ramp(1000)).percentile, 99, "1000 samples -> p99");
  expect_near(tail(ramp(10000)).percentile, 99.9, "10000 samples -> p99.9");
  expect_near(tail(ramp(200)).value, perfbench::quantile(ramp(200), 0.95),
              "p95 value");
}

void test_self_time() {
  using perfbench::self_time;
  expect_near(self_time({0, 10}, {}), 10, "no children");
  expect_near(self_time({0, 10}, {{1, 3}, {5, 6}}), 7, "disjoint children");
  // Overlapping children count once: [1,5) u [4,8) = [1,8).
  expect_near(self_time({0, 10}, {{4, 8}, {1, 5}}), 3, "overlapping children");
  expect_near(self_time({0, 10}, {{2, 3}, {1, 9}}), 2, "nested children");
  // Children poking outside the parent are clipped to it.
  expect_near(self_time({0, 10}, {{-5, 2}, {9, 20}}), 7, "clipped children");
  expect_near(self_time({0, 10}, {{3, 3}}), 10, "empty child");
}

void test_failed_ratio() {
  using perfbench::failed_ratio;
  expect_near(failed_ratio(0, 4), 0.0, "all passed");
  expect_near(failed_ratio(1, 4), 0.25, "one of four failed");
  expect_near(failed_ratio(0, 0), 1.0, "zero checks is not a pass");
}

void test_tracer_self_time() {
  perfbench::Tracer t(2);
  t.set_enabled(true);
  {
    auto outer = t.scope(1, "outer");
    auto inner = t.scope(1, "inner");
  }
  { auto other = t.scope(0, "outer"); }
  t.set_enabled(false);
  { auto ignored = t.scope(0, "outer"); }
  const auto totals = t.totals(1);
  if (t.spans(0).size() != 1 || t.spans(1).size() != 2 ||
      t.spans(1)[1].parent != 0) {
    std::printf("FAIL tracer: wrong span structure\n");
    ++failures;
  }
  const auto& outer = totals.at("outer");
  expect_near(outer.self, outer.total - totals.at("inner").total,
              "tracer self = total - child");
}

}  // namespace

int main() {
  test_median_and_quartiles();
  test_tail_rule();
  test_self_time();
  test_failed_ratio();
  test_tracer_self_time();
  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
