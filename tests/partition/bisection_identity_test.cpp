// Bitwise gate for the recursive bisection partitioners: RCB and RIB must
// assign every point exactly as the original comparator-sort formulation
// does. That formulation is kept below as the reference: each level sorts
// the subset's indices with a comparator that recomputes both positions
// per compare, ties broken by index, then scans the weighted prefix in that
// order. The corpus stresses what can tell the two apart: duplicate points,
// heavy ties, signed zeros, fractional non-uniform weights (prefix sums
// that round), part counts 1..37 including more parts than points, and
// empty input. Non-finite positions have no total order and are rejected.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "partition/bisection.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace chaos::part {
namespace {

// ---- Reference: the comparator-sort bisection ----------------------------

int reference_axis(std::span<const Point3> points,
                   std::span<const std::size_t> idx) {
  Point3 lo{1e300, 1e300, 1e300}, hi{-1e300, -1e300, -1e300};
  for (std::size_t i : idx)
    for (int a = 0; a < 3; ++a) {
      lo[a] = std::min(lo[a], points[i][a]);
      hi[a] = std::max(hi[a], points[i][a]);
    }
  int best = 0;
  double best_extent = -1.0;
  for (int a = 0; a < 3; ++a)
    if (hi[a] - lo[a] > best_extent) {
      best_extent = hi[a] - lo[a];
      best = a;
    }
  return best;
}

Vec3 reference_principal_axis(std::span<const Point3> points,
                              std::span<const double> weights,
                              std::span<const std::size_t> idx) {
  double wsum = 0.0;
  Point3 centroid;
  for (std::size_t i : idx) {
    const double w = weights.empty() ? 1.0 : weights[i];
    centroid = centroid + points[i] * w;
    wsum += w;
  }
  if (wsum <= 0.0) return {1.0, 0.0, 0.0};
  centroid = centroid * (1.0 / wsum);
  double c[3][3] = {{0, 0, 0}, {0, 0, 0}, {0, 0, 0}};
  for (std::size_t i : idx) {
    const double w = weights.empty() ? 1.0 : weights[i];
    const Point3 d = points[i] - centroid;
    const double v[3] = {d.x, d.y, d.z};
    for (int a = 0; a < 3; ++a)
      for (int b = 0; b < 3; ++b) c[a][b] += w * v[a] * v[b];
  }
  if (c[0][0] + c[1][1] + c[2][2] <= 1e-30) return {1.0, 0.0, 0.0};
  Vec3 v{1.0, 0.7, 0.4};
  v = v * (1.0 / v.norm());
  for (int iter = 0; iter < 64; ++iter) {
    Vec3 nv{c[0][0] * v.x + c[0][1] * v.y + c[0][2] * v.z,
            c[1][0] * v.x + c[1][1] * v.y + c[1][2] * v.z,
            c[2][0] * v.x + c[2][1] * v.y + c[2][2] * v.z};
    const double n = nv.norm();
    if (n <= 1e-30) return {1.0, 0.0, 0.0};
    v = nv * (1.0 / n);
  }
  return v;
}

void reference_bisect(std::span<const Point3> points,
                      std::span<const double> weights, bool inertial,
                      std::vector<std::size_t>& idx, std::size_t lo,
                      std::size_t hi, int part_lo, int part_hi,
                      std::vector<int>& assignment) {
  const int nparts = part_hi - part_lo;
  if (nparts <= 1 || hi - lo == 0) {
    for (std::size_t k = lo; k < hi; ++k) assignment[idx[k]] = part_lo;
    return;
  }
  std::span<const std::size_t> subset(idx.data() + lo, hi - lo);
  const int axis = reference_axis(points, subset);
  const Vec3 dir = inertial ? reference_principal_axis(points, weights, subset)
                            : Vec3{1, 0, 0};
  auto position = [&](std::size_t i) {
    return inertial ? points[i].dot(dir) : points[i][axis];
  };
  std::sort(idx.begin() + static_cast<std::ptrdiff_t>(lo),
            idx.begin() + static_cast<std::ptrdiff_t>(hi),
            [&](std::size_t a, std::size_t b) {
              const double pa = position(a);
              const double pb = position(b);
              if (pa != pb) return pa < pb;
              return a < b;
            });
  const int left_parts = nparts / 2;
  double total = 0.0;
  for (std::size_t k = lo; k < hi; ++k)
    total += weights.empty() ? 1.0 : weights[idx[k]];
  const double target =
      total * static_cast<double>(left_parts) / static_cast<double>(nparts);
  double acc = 0.0;
  std::size_t cut = lo;
  while (cut < hi) {
    const double w = weights.empty() ? 1.0 : weights[idx[cut]];
    if (acc + w > target && cut > lo) break;
    acc += w;
    ++cut;
  }
  if (cut == hi && hi - lo >= 2) cut = hi - 1;
  if (cut == lo && hi - lo >= 2) cut = lo + 1;
  reference_bisect(points, weights, inertial, idx, lo, cut, part_lo,
                   part_lo + left_parts, assignment);
  reference_bisect(points, weights, inertial, idx, cut, hi,
                   part_lo + left_parts, part_hi, assignment);
}

std::vector<int> reference_bisection(std::span<const Point3> points,
                                     std::span<const double> weights,
                                     int nparts, bool inertial) {
  std::vector<int> assignment(points.size(), 0);
  if (nparts == 1 || points.empty()) return assignment;
  std::vector<std::size_t> idx(points.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  reference_bisect(points, weights, inertial, idx, 0, idx.size(), 0, nparts,
                   assignment);
  return assignment;
}

// ---- Corpus ---------------------------------------------------------------

enum class Shape { kUniform, kDuplicates, kTies, kSignedZeros, kLine };

// Points of the given shape. kDuplicates draws from a handful of distinct
// points; kTies quantizes every coordinate to four values; kSignedZeros
// mixes -0.0 and +0.0 (equal positions that differ in bits) with a few
// nonzero values; kLine is a degenerate (collinear) cloud.
std::vector<Point3> make_points(Shape shape, std::size_t n, Rng& rng) {
  std::vector<Point3> pts(n);
  std::vector<Point3> palette(1 + rng.below(5));
  for (auto& p : palette) p = {rng.uniform(), rng.uniform(), rng.uniform()};
  const double zeros[] = {-0.0, 0.0, -0.0, 0.0, 1.0, -1.0};
  for (auto& p : pts) {
    switch (shape) {
      case Shape::kUniform:
        p = {rng.uniform(-2.0, 3.0), rng.uniform(), rng.uniform(0.0, 0.5)};
        break;
      case Shape::kDuplicates:
        p = palette[rng.below(palette.size())];
        break;
      case Shape::kTies:
        p = {0.25 * static_cast<double>(rng.below(4)),
             0.25 * static_cast<double>(rng.below(4)),
             0.25 * static_cast<double>(rng.below(4))};
        break;
      case Shape::kSignedZeros:
        p = {zeros[rng.below(6)], zeros[rng.below(6)], zeros[rng.below(6)]};
        break;
      case Shape::kLine: {
        const double t = rng.uniform();
        p = {t, 2.0 * t, -t};
        break;
      }
    }
  }
  return pts;
}

// Empty (uniform), integral, or fractional non-uniform weights. Fractional
// weights make the weighted prefix sums round; decimal fractions (kind 3)
// land the split target on a rounded prefix often, so summing the weights
// in any other order than the sorted one moves some cut.
std::vector<double> make_weights(int kind, std::size_t n, Rng& rng) {
  if (kind == 0) return {};
  const double decimals[] = {0.1, 0.2, 0.3, 0.7};
  std::vector<double> w(n);
  for (auto& x : w) {
    if (kind == 1) x = static_cast<double>(1 + rng.below(3));
    if (kind == 2) x = rng.uniform(0.05, 3.7);
    if (kind == 3) x = decimals[rng.below(4)];
  }
  return w;
}

std::string describe(Shape shape, int wkind, std::size_t n, int nparts,
                     std::uint64_t seed) {
  return "shape=" + std::to_string(static_cast<int>(shape)) +
         " weights=" + std::to_string(wkind) + " n=" + std::to_string(n) +
         " nparts=" + std::to_string(nparts) +
         " seed=" + std::to_string(seed);
}

void expect_identical(std::span<const Point3> pts, std::span<const double> w,
                      int nparts, const std::string& what) {
  for (bool inertial : {false, true}) {
    const std::vector<int> got =
        inertial ? recursive_inertial_bisection(pts, w, nparts)
                 : recursive_coordinate_bisection(pts, w, nparts);
    ASSERT_EQ(got, reference_bisection(pts, w, nparts, inertial))
        << (inertial ? "RIB " : "RCB ") << what;
  }
}

TEST(BisectionIdentity, RandomizedCorpusMatchesComparatorSort) {
  constexpr Shape kShapes[] = {Shape::kUniform, Shape::kDuplicates,
                               Shape::kTies, Shape::kSignedZeros,
                               Shape::kLine};
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    Rng rng(0xb15ec7 + seed);
    const Shape shape = kShapes[seed % 5];
    const int wkind = static_cast<int>((seed / 5) % 4);
    // Mostly small inputs (where P > n and cut clamping bite); every fourth
    // has thousands of points, so the top levels sort long tie runs.
    const std::size_t n = seed % 4 == 0 ? 1000 + rng.below(3000)
                                        : rng.below(90);
    const int nparts = 1 + static_cast<int>(rng.below(37));
    const auto pts = make_points(shape, n, rng);
    const auto w = make_weights(wkind, n, rng);
    expect_identical(pts, w, nparts,
                     describe(shape, wkind, n, nparts, seed));
  }
}

TEST(BisectionIdentity, EveryPartCountOnOneCloud) {
  Rng rng(31);
  const auto pts = make_points(Shape::kTies, 2500, rng);
  const auto w = make_weights(3, pts.size(), rng);
  for (int nparts = 1; nparts <= 37; ++nparts)
    expect_identical(pts, w, nparts, "nparts=" + std::to_string(nparts));
}

TEST(BisectionIdentity, MorePartsThanPointsAndEmptyInput) {
  Rng rng(32);
  for (std::size_t n : {0u, 1u, 2u, 3u, 5u}) {
    const auto pts = make_points(Shape::kUniform, n, rng);
    for (int wkind = 0; wkind < 4; ++wkind) {
      const auto w = make_weights(wkind, n, rng);
      for (int nparts : {1, 2, 7, 37})
        expect_identical(pts, w, nparts,
                         "n=" + std::to_string(n) +
                             " nparts=" + std::to_string(nparts));
    }
  }
}

TEST(BisectionIdentity, SignedZerosTieAndBreakByIndex) {
  // Every point sits at a signed zero: all positions compare equal, so the
  // split must follow index order exactly as the comparator sort does.
  std::vector<Point3> pts(3000);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const double z = i % 3 == 0 ? -0.0 : 0.0;
    pts[i] = {z, -z, z};
  }
  std::vector<double> w(pts.size());
  for (std::size_t i = 0; i < w.size(); ++i)
    w[i] = 0.1 + 0.01 * static_cast<double>(i % 7);
  for (int nparts : {2, 3, 4, 5, 37}) {
    expect_identical(pts, w, nparts, "nparts=" + std::to_string(nparts));
    const auto a = recursive_coordinate_bisection(pts, w, nparts);
    EXPECT_TRUE(std::is_sorted(a.begin(), a.end()))
        << "equal positions split in index order, nparts=" << nparts;
  }
}

TEST(BisectionIdentity, RejectsNonFinitePositions) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (double v : bad) {
    std::vector<Point3> pts(16);
    for (std::size_t i = 0; i < pts.size(); ++i)
      pts[i] = {static_cast<double>(i), 0.5, 0.25};
    pts[7].x = v;
    EXPECT_THROW(recursive_coordinate_bisection(pts, {}, 4), Error) << v;
    EXPECT_THROW(recursive_inertial_bisection(pts, {}, 4), Error) << v;
    // One part never splits, so it never orders positions.
    EXPECT_NO_THROW(recursive_coordinate_bisection(pts, {}, 1)) << v;
  }
}

}  // namespace
}  // namespace chaos::part
