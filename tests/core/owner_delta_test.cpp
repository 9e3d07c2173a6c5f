// Tests for core::OwnerDelta's per-global predicates. owner_moved,
// home_stable, is_born and deleted answer from one state byte per global;
// they must agree with membership in the sorted lists the delta also keeps
// (moves(), born()), with its counts (unstable_count(), deleted_count()),
// and with Homes derived independently from the two maps. Covers same-size
// pairs (compute) and resized pairs (compute_dynamic: growth, shrink) with
// tombstones, and queries past either end of both maps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>

#include "core/owner_delta.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace chaos::core {
namespace {

std::vector<int> random_map(Rng& rng, std::size_t n, int nprocs,
                            double hole_rate, double stay_rate,
                            const std::vector<int>* base) {
  std::vector<int> map(n);
  for (std::size_t g = 0; g < n; ++g) {
    if (rng.uniform() < hole_rate) {
      map[g] = -1;
    } else if (base != nullptr && g < base->size() && (*base)[g] >= 0 &&
               rng.uniform() < stay_rate) {
      map[g] = (*base)[g];  // mostly-stable successor, like a repartition
    } else {
      map[g] = static_cast<int>(rng.below(static_cast<std::uint64_t>(nprocs)));
    }
  }
  return map;
}

// Home of every global under `map` by the CHAOS convention (offset = count
// of lower-indexed live globals on the same owner); {-1,-1} for holes and
// for globals past the end.
std::vector<Home> homes_of(const std::vector<int>& map, std::size_t n) {
  std::vector<Home> homes(n);
  std::vector<GlobalIndex> next(64, 0);
  for (std::size_t g = 0; g < std::min(n, map.size()); ++g)
    if (map[g] >= 0)
      homes[g] = Home{map[g], next[static_cast<std::size_t>(map[g])]++};
  return homes;
}

template <typename List, typename Proj>
std::set<GlobalIndex> as_set(const List& list, Proj proj) {
  std::set<GlobalIndex> s;
  for (const auto& x : list) s.insert(proj(x));
  return s;
}

void expect_predicates_match(const std::vector<int>& old_map,
                             const std::vector<int>& new_map,
                             const OwnerDelta& d, const std::string& what) {
  const auto global = [](const OwnerDelta::Move& m) { return m.global; };
  const std::set<GlobalIndex> moved = as_set(d.moves(), global);
  const std::set<GlobalIndex> born = as_set(d.born(), global);

  const std::size_t span = std::max(old_map.size(), new_map.size());
  const std::vector<Home> ho = homes_of(old_map, span);
  const std::vector<Home> hn = homes_of(new_map, span);
  const GlobalIndex end = static_cast<GlobalIndex>(span);
  GlobalIndex unstable = 0;
  GlobalIndex dead = 0;
  for (GlobalIndex g = -3; g < end + 3; ++g) {
    SCOPED_TRACE(what + " g=" + std::to_string(g));
    ASSERT_EQ(d.owner_moved(g), moved.count(g) == 1);
    ASSERT_EQ(d.is_born(g), born.count(g) == 1);
    unstable += d.home_stable(g) ? 0 : 1;
    dead += d.deleted(g) ? 1 : 0;

    // The same predicates from Homes computed straight from the maps.
    const bool in_range = g >= 0 && g < end;
    const Home a = in_range ? ho[static_cast<std::size_t>(g)] : Home{};
    const Home b = in_range ? hn[static_cast<std::size_t>(g)] : Home{};
    ASSERT_EQ(d.owner_moved(g), a.proc >= 0 && b.proc >= 0 && a.proc != b.proc);
    ASSERT_EQ(d.is_born(g), a.proc < 0 && b.proc >= 0);
    ASSERT_EQ(d.deleted(g), a.proc >= 0 && b.proc < 0);
    ASSERT_EQ(d.home_stable(g), a == b);
  }
  EXPECT_EQ(d.unstable_count(), unstable) << what;
  EXPECT_EQ(d.deleted_count(), dead) << what;
  EXPECT_EQ(d.is_dynamic(), dead != 0 || !born.empty()) << what;
}

// Bytes of the sorted lists alone; the state array comes on top.
std::size_t list_bytes(const OwnerDelta& d) {
  return d.moves().capacity() * sizeof(OwnerDelta::Move) +
         d.born().capacity() * sizeof(OwnerDelta::Move);
}

TEST(OwnerDelta, DenseStateMatchesListsSameSize) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(0xde17a + seed);
    const std::size_t n = rng.below(300);
    const int nprocs = 1 + static_cast<int>(rng.below(6));
    const double holes = seed % 3 == 0 ? 0.0 : 0.2;
    const auto old_map = random_map(rng, n, nprocs, holes, 0.0, nullptr);
    const auto new_map =
        random_map(rng, n, nprocs, holes, rng.uniform(), &old_map);
    const OwnerDelta d = OwnerDelta::compute(old_map, new_map);
    EXPECT_EQ(d.global_size(), static_cast<GlobalIndex>(n));
    expect_predicates_match(old_map, new_map, d,
                            "compute seed=" + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(OwnerDelta, DenseStateMatchesListsAcrossResize) {
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(0x9e5 + seed);
    const std::size_t no = rng.below(250);
    // Growth, shrink (including to empty) and equal sizes.
    const std::size_t nn = seed % 5 == 0 ? 0 : rng.below(250);
    const int nprocs = 1 + static_cast<int>(rng.below(5));
    const auto old_map = random_map(rng, no, nprocs, 0.25, 0.0, nullptr);
    const auto new_map =
        random_map(rng, nn, nprocs, 0.25, rng.uniform(), &old_map);
    const OwnerDelta d = OwnerDelta::compute_dynamic(old_map, new_map);
    EXPECT_EQ(d.global_size(), static_cast<GlobalIndex>(nn));
    expect_predicates_match(old_map, new_map, d,
                            "compute_dynamic seed=" + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(OwnerDelta, FootprintCountsTheStateArray) {
  Rng rng(7);
  const auto old_map = random_map(rng, 1000, 4, 0.1, 0.0, nullptr);
  const auto new_map = random_map(rng, 1500, 4, 0.1, 0.9, &old_map);
  const OwnerDelta d = OwnerDelta::compute_dynamic(old_map, new_map);
  // One state byte per global of the larger map, on top of the lists.
  EXPECT_GE(d.footprint_bytes(), list_bytes(d) + 1500);
  EXPECT_EQ(OwnerDelta().footprint_bytes(), 0u);
}

TEST(OwnerDelta, ComputeRejectsMismatchedSizes) {
  const std::vector<int> a{0, 1, 0};
  const std::vector<int> b{0, 1};
  EXPECT_THROW(OwnerDelta::compute(a, b), Error);
}

}  // namespace
}  // namespace chaos::core
