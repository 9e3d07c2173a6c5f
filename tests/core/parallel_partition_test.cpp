// Tests for the parallel partitioner drivers: map validity, determinism
// across ranks, chain slab structure, and relative cost ordering.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "core/parallel_partition.hpp"
#include "core/translation_table.hpp"
#include "partition/metrics.hpp"
#include "util/rng.hpp"

namespace chaos::core {
namespace {

using sim::Comm;
using sim::Machine;

struct Contribution {
  std::vector<GlobalIndex> ids;
  std::vector<part::Point3> pts;
  std::vector<double> w;
};

// Each rank contributes a BLOCK slice of a deterministic point set.
Contribution my_slice(Comm& c, GlobalIndex n, bool weighted) {
  Rng rng(77);  // same stream everywhere; slices cut from the same set
  std::vector<part::Point3> all(static_cast<size_t>(n));
  std::vector<double> weights(static_cast<size_t>(n));
  for (GlobalIndex g = 0; g < n; ++g) {
    all[static_cast<size_t>(g)] = {rng.uniform(), rng.uniform(),
                                   rng.uniform()};
    weights[static_cast<size_t>(g)] = weighted ? 0.5 + rng.uniform() : 1.0;
  }
  part::BlockLayout slabs(n, c.size());
  Contribution out;
  for (GlobalIndex g = slabs.first(c.rank());
       g < slabs.first(c.rank()) + slabs.size_of(c.rank()); ++g) {
    out.ids.push_back(g);
    out.pts.push_back(all[static_cast<size_t>(g)]);
    out.w.push_back(weights[static_cast<size_t>(g)]);
  }
  return out;
}

TEST(ParallelPartition, BlockNeedsNoGeometry) {
  Machine m(4);
  m.run([](Comm& c) {
    auto map = parallel_partition(c, PartitionerKind::kBlock, {}, {}, {}, 10);
    ASSERT_EQ(map.size(), 10u);
    part::BlockLayout l(10, 4);
    for (GlobalIndex g = 0; g < 10; ++g)
      EXPECT_EQ(map[static_cast<size_t>(g)], l.owner(g));
  });
}

class PartitionKinds : public ::testing::TestWithParam<PartitionerKind> {};

TEST_P(PartitionKinds, MapIsValidAndIdenticalOnAllRanks) {
  const PartitionerKind kind = GetParam();
  const int P = 4;
  const GlobalIndex n = 400;
  Machine m(P);
  m.run([&](Comm& c) {
    auto mine = my_slice(c, n, true);
    auto map = parallel_partition(c, kind, mine.ids, mine.pts, mine.w, n);
    ASSERT_EQ(map.size(), static_cast<size_t>(n));
    for (int p : map) {
      EXPECT_GE(p, 0);
      EXPECT_LT(p, P);
    }
    // All ranks must compute the identical map (checksum agreement).
    std::int64_t sum = 0;
    for (GlobalIndex g = 0; g < n; ++g)
      sum += map[static_cast<size_t>(g)] * (g + 1);
    auto sums = c.allgather(sum);
    for (std::int64_t s : sums) EXPECT_EQ(s, sum);
  });
}

INSTANTIATE_TEST_SUITE_P(Kinds, PartitionKinds,
                         ::testing::Values(PartitionerKind::kRcb,
                                           PartitionerKind::kRib,
                                           PartitionerKind::kChain));

TEST(ParallelPartition, WeightedBisectionBalancesLoad) {
  const int P = 8;
  const GlobalIndex n = 2000;
  Machine m(P);
  m.run([&](Comm& c) {
    auto mine = my_slice(c, n, true);
    auto map =
        parallel_partition(c, PartitionerKind::kRcb, mine.ids, mine.pts,
                           mine.w, n);
    if (c.rank() == 0) {
      // Reconstruct the full weights for the metric.
      Rng rng(77);
      std::vector<double> w(static_cast<size_t>(n));
      for (auto& x : w) {
        rng.uniform();
        rng.uniform();
        rng.uniform();  // skip the three coordinates
        x = 0.5 + rng.uniform();
      }
      EXPECT_LT(part::partition_load_balance(map, w, P), 1.15);
    }
  });
}

TEST(ParallelPartition, ChainProducesContiguousIdBlocks) {
  const int P = 4;
  const GlobalIndex n = 100;
  Machine m(P);
  m.run([&](Comm& c) {
    auto mine = my_slice(c, n, false);
    auto map = parallel_partition(c, PartitionerKind::kChain, mine.ids,
                                  mine.pts, mine.w, n);
    if (c.rank() == 0) {
      // Owners must be non-decreasing along the id order.
      for (GlobalIndex g = 1; g < n; ++g)
        EXPECT_GE(map[static_cast<size_t>(g)],
                  map[static_cast<size_t>(g) - 1]);
    }
  });
}

TEST(ParallelPartition, ChainIsMuchCheaperThanBisection) {
  const int P = 16;
  const GlobalIndex n = 20000;
  auto run_kind = [&](PartitionerKind kind) {
    Machine m(P);
    m.run([&](Comm& c) {
      auto mine = my_slice(c, n, true);
      parallel_partition(c, kind, mine.ids, mine.pts, mine.w, n);
    });
    return m.execution_time();
  };
  EXPECT_LT(run_kind(PartitionerKind::kChain) * 3.0,
            run_kind(PartitionerKind::kRcb));
}

TEST(ParallelPartition, MapFeedsTranslationTable) {
  // End-to-end Phase A: partitioner output -> translation table.
  Machine m(3);
  m.run([](Comm& c) {
    auto mine = my_slice(c, 90, false);
    auto map = parallel_partition(c, PartitionerKind::kRib, mine.ids,
                                  mine.pts, mine.w, 90);
    auto table = TranslationTable::from_full_map(c, map);
    GlobalIndex total = 0;
    for (int p = 0; p < 3; ++p) total += table.owned_count(p);
    EXPECT_EQ(total, 90);
  });
}

// Runs an RCB partition of a `n`-element domain in which rank r contributes
// the single id ids[r]; returns the error message, or "" if none was thrown.
std::string partition_error(std::vector<GlobalIndex> ids, GlobalIndex n) {
  Machine m(static_cast<int>(ids.size()));
  try {
    m.run([&](Comm& c) {
      std::vector<GlobalIndex> mine{ids[static_cast<size_t>(c.rank())]};
      std::vector<part::Point3> pts{{0.5 * c.rank(), 0, 0}};
      std::vector<double> w{1.0};
      parallel_partition(c, PartitionerKind::kRcb, mine, pts, w, n);
    });
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

TEST(ParallelPartition, RejectsNonDenseIds) {
  // ids 0 and 5 on a 2-element domain: not a dense range.
  EXPECT_NE(partition_error({0, 5}, 2).find("dense range"), std::string::npos);
  // Each record is placed at its id: a duplicate id (which leaves id 1
  // missing), an id one past the end, and a negative id are all refused.
  EXPECT_NE(partition_error({0, 0}, 2).find("dense range"), std::string::npos);
  EXPECT_NE(partition_error({1, 1, 0}, 3).find("dense range"),
            std::string::npos);
  EXPECT_NE(partition_error({0, 2}, 2).find("dense range"), std::string::npos);
  EXPECT_NE(partition_error({-1, 1}, 2).find("dense range"), std::string::npos);
  // Too few records for the domain fails the coverage check instead.
  EXPECT_NE(partition_error({0, 1}, 3).find("cover"), std::string::npos);
  // A permutation of the dense range is accepted.
  EXPECT_EQ(partition_error({2, 0, 1}, 3), "");
}

// The bisection partitioners charge their weighted-median rounds to the
// modeled clock. Pinned execution times (printed with %.17g) from skewed
// entry clocks at P = 4: the rounds must line every rank's clock up and
// cost exactly what one real allgather per round did.
void expect_pinned_bisection_clock(PartitionerKind kind, double pinned) {
  const int P = 4;
  const GlobalIndex n = 400;
  Machine m(P);
  std::vector<double> exit_clock(P, -1.0);
  m.run([&](Comm& c) {
    auto mine = my_slice(c, n, true);
    c.charge_compute_seconds(1e-3 * (c.rank() + 1) * (c.rank() + 1));
    (void)parallel_partition(c, kind, mine.ids, mine.pts, mine.w, n);
    exit_clock[static_cast<std::size_t>(c.rank())] = c.now();
  });
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", m.execution_time());
  EXPECT_EQ(m.execution_time(), pinned)
      << partitioner_name(kind) << " execution_time " << buf;
  for (int r = 1; r < P; ++r)
    EXPECT_EQ(exit_clock[static_cast<std::size_t>(r)], exit_clock[0])
        << partitioner_name(kind) << " rank " << r;
}

TEST(ParallelPartition, BisectionRoundsChargeThePinnedClock) {
  expect_pinned_bisection_clock(PartitionerKind::kRcb, 0.048686014448801482);
  expect_pinned_bisection_clock(PartitionerKind::kRib, 0.057329870638576148);
}

}  // namespace
}  // namespace chaos::core
