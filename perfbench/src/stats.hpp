// Summary statistics the benchmark reports: medians and quartiles of
// repeated measurements, the tail-percentile rule, span self time, and the
// failure ratio. Pure functions over plain vectors so tests/stats_test.cpp
// can pin them down without running a workload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolation quantile (the "inclusive" method: q = 0 is the
/// minimum, q = 1 the maximum). Empty input yields 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
};

inline Quartiles quartiles(const std::vector<double>& v) {
  return {quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.75)};
}

/// The tail a sample set can support: the highest percentile among
/// 99.9, 99, 95, 90 and 75 that has at least `min_beyond` samples above it
/// (n * (1 - p/100) >= min_beyond). `percentile` is 0 when even the 75th
/// is unsupported; `value` is then 0 and callers report the count alone.
struct Tail {
  double percentile = 0;
  double value = 0;
  std::size_t samples = 0;
};

inline Tail tail(const std::vector<double>& v, std::size_t min_beyond = 10) {
  Tail t;
  t.samples = v.size();
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const double beyond = static_cast<double>(v.size()) * (1.0 - p / 100.0);
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) {
      t.percentile = p;
      t.value = quantile(v, p / 100.0);
      break;
    }
  }
  return t;
}

/// A closed-open host-time interval [begin, end).
struct Interval {
  double begin = 0, end = 0;
};

/// Length of the union of `parts` clipped to `outer`: overlapping children
/// are counted once.
inline double covered(Interval outer, std::vector<Interval> parts) {
  for (Interval& p : parts) {
    p.begin = std::max(p.begin, outer.begin);
    p.end = std::min(p.end, outer.end);
  }
  std::sort(parts.begin(), parts.end(),
            [](const Interval& a, const Interval& b) { return a.begin < b.begin; });
  double total = 0, run_begin = 0, run_end = 0;
  bool open = false;
  for (const Interval& p : parts) {
    if (p.end <= p.begin) continue;
    if (open && p.begin <= run_end) {
      run_end = std::max(run_end, p.end);
      continue;
    }
    if (open) total += run_end - run_begin;
    run_begin = p.begin;
    run_end = p.end;
    open = true;
  }
  if (open) total += run_end - run_begin;
  return total;
}

/// Self time of a span: its duration minus the part of it that the union
/// of its children covers.
inline double self_time(Interval span, const std::vector<Interval>& children) {
  return (span.end - span.begin) - covered(span, children);
}

/// Oracle checks failed over checks attempted. A run that checked nothing
/// verified nothing, so it reads as wholly failed (1), never as clean.
inline double failed_ratio(std::uint64_t failed, std::uint64_t attempted) {
  return attempted == 0 ? 1.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

}  // namespace perfbench
