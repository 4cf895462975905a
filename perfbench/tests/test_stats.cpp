// The benchmark's own arithmetic: tail-percentile rule, span self time,
// cost models and the seeded job mix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <vector>

#include "harness/jobmix.hpp"
#include "harness/stats.hpp"
#include "harness/trace.hpp"
#include "idg/accounting.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Median, OddEvenAndUnsorted) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
  EXPECT_DOUBLE_EQ(median_or_zero({}), 0.0);
  EXPECT_DOUBLE_EQ(median_or_zero({5.0, 1.0}), 3.0);
}

TEST(Rate, ZeroWhenNothingWasTimed) {
  EXPECT_DOUBLE_EQ(rate(10.0, 4.0), 2.5);
  EXPECT_DOUBLE_EQ(rate(10.0, 0.0), 0.0);
}

TEST(TailPercentile, KeepsAtLeastTenSamplesBeyond) {
  // 100 samples: p90 is rank 90, ten beyond; p91 would leave nine.
  auto tail = tail_percentile(one_to(100));
  ASSERT_TRUE(tail);
  EXPECT_EQ(tail->percentile, 90);
  EXPECT_DOUBLE_EQ(tail->value, 90.0);
  EXPECT_EQ(tail->beyond, 10u);

  // 1000 samples reach p99 with exactly ten beyond.
  tail = tail_percentile(one_to(1000));
  ASSERT_TRUE(tail);
  EXPECT_EQ(tail->percentile, 99);
  EXPECT_EQ(tail->beyond, 10u);

  // 40 samples: p75 is rank 30 (ten beyond); p76 is rank 31 (nine).
  tail = tail_percentile(one_to(40));
  ASSERT_TRUE(tail);
  EXPECT_EQ(tail->percentile, 75);
  EXPECT_DOUBLE_EQ(tail->value, 30.0);

  // Order of the input does not matter.
  std::vector<double> shuffled = one_to(40);
  std::reverse(shuffled.begin(), shuffled.end());
  EXPECT_EQ(tail_percentile(shuffled)->percentile, 75);
}

TEST(TailPercentile, NoneWithTenOrFewerSamples) {
  EXPECT_FALSE(tail_percentile(one_to(10)));
  EXPECT_FALSE(tail_percentile({}));
  const auto tail = tail_percentile(one_to(11));
  ASSERT_TRUE(tail);
  EXPECT_EQ(tail->beyond, 10u);
}

TEST(SelfTime, NoChildren) {
  EXPECT_DOUBLE_EQ(self_time({1.0, 4.0}, {}), 3.0);
}

TEST(SelfTime, DisjointAndNestedChildren) {
  // [1,2] and [3,5] disjoint; [3.5,4] nested inside [3,5] counts once.
  EXPECT_DOUBLE_EQ(self_time({0.0, 10.0}, {{1, 2}, {3, 5}, {3.5, 4}}), 7.0);
}

TEST(SelfTime, OverlappingChildrenCountTheirUnion) {
  // [1,4] and [2,6] overlap: union [1,6], whatever their order.
  EXPECT_DOUBLE_EQ(self_time({0.0, 10.0}, {{2, 6}, {1, 4}}), 5.0);
}

TEST(SelfTime, ChildrenClippedToTheParent) {
  EXPECT_DOUBLE_EQ(self_time({2.0, 6.0}, {{0, 3}, {5, 9}, {7, 8}}), 2.0);
  EXPECT_DOUBLE_EQ(self_time({2.0, 6.0}, {{0, 9}}), 0.0);
}

TEST(SelfTimes, PerNameAndPerOperation) {
  Tracer tr;
  const auto cycle = tr.add("cycle", 0.0, 10.0, -1, 7);
  const auto grid = tr.add("grid", 1.0, 5.0, cycle, 7);
  tr.add("kernels.gridder", 1.0, 2.0, grid, 7);
  tr.add("kernels.gridder", 3.0, 4.0, grid, 7);
  tr.add("cycle", 0.0, 1.0, -1, 8);  // another operation, ignored
  const auto self = self_times(tr.spans(), 7);
  EXPECT_DOUBLE_EQ(self.at("cycle"), 6.0);
  EXPECT_DOUBLE_EQ(self.at("grid"), 2.0);
  EXPECT_DOUBLE_EQ(self.at("kernels.gridder"), 2.0);
  EXPECT_EQ(ops_with_root(tr.spans(), "cycle"),
            (std::vector<std::uint64_t>{7, 8}));
  EXPECT_DOUBLE_EQ(root_seconds(tr.spans(), "cycle", 8), 1.0);
}

TEST(CostModels, FftFlopsAreFiveNLog2N) {
  // 2048^2 points: 5 * 2^22 * 22.
  EXPECT_DOUBLE_EQ(fft2d_flops(2048), 5.0 * 4194304.0 * 22.0);
  EXPECT_DOUBLE_EQ(fft2d_flops(2), 5.0 * 4.0 * 2.0);
  EXPECT_NEAR(fft2d_flops(24), 5.0 * 576.0 * std::log2(576.0), 1e-6);
}

TEST(CostModels, ComputedBytesMatchTheProgramsAccounting) {
  EXPECT_EQ(adder_bytes(1, 24), 3u * 4 * 24 * 24 * 8);
  EXPECT_EQ(splitter_bytes(1, 24), 2u * 4 * 24 * 24 * 8);
  for (const std::size_t n : {16u, 24u, 32u}) {
    idg::Parameters params;
    params.subgrid_size = n;
    EXPECT_EQ(adder_bytes(1848, n), idg::adder_moved_bytes(params, 1848));
    EXPECT_EQ(splitter_bytes(1848, n),
              idg::splitter_moved_bytes(params, 1848));
  }
}

TEST(Digest, EqualBytesEqualDigestAnyChangeDiffers) {
  std::vector<float> a(1001, 1.5f);
  std::vector<float> b = a;
  EXPECT_EQ(digest(a.data(), a.size() * 4), digest(b.data(), b.size() * 4));
  b[1000] = -b[1000];  // the sign bit only, in the ragged tail
  EXPECT_NE(digest(a.data(), a.size() * 4), digest(b.data(), b.size() * 4));
  b = a;
  b[3] = 1.5000001f;
  EXPECT_NE(digest(a.data(), a.size() * 4), digest(b.data(), b.size() * 4));
  EXPECT_NE(digest(a.data(), 8), digest(a.data(), 12));
}

TEST(JobMix, SameSeedSameSequence) {
  for (std::size_t c = 0; c < 2; ++c) {
    for (std::size_t k = 0; k < 40; ++k) {
      EXPECT_EQ(job_index(42, c, k), job_index(42, c, k));
    }
  }
}

TEST(JobMix, EveryPassDealsTheWholeDeck) {
  const std::size_t n = job_deck().size();
  for (const std::uint64_t seed : {1u, 2u, 99u}) {
    for (std::size_t pass = 0; pass < 3; ++pass) {
      std::set<std::size_t> seen;
      for (std::size_t k = pass * n; k < (pass + 1) * n; ++k) {
        seen.insert(job_index(seed, 0, k));
      }
      EXPECT_EQ(seen.size(), n);
    }
  }
}

TEST(JobMix, SeedAndClientChangeTheOrder) {
  const std::size_t n = job_deck().size();
  const auto sequence = [&](std::uint64_t seed, std::size_t client) {
    std::vector<std::size_t> v;
    for (std::size_t k = 0; k < 3 * n; ++k) {
      v.push_back(job_index(seed, client, k));
    }
    return v;
  };
  EXPECT_NE(sequence(1, 0), sequence(2, 0));
  EXPECT_NE(sequence(1, 0), sequence(1, 1));
}

TEST(JobMix, DeckSpecsAreValid) {
  ASSERT_FALSE(job_deck().empty());
  for (const auto& spec : job_deck()) EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace perfbench
