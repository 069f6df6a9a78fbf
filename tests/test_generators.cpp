// Tests for the workload generators: ranges, determinism, the
// distributional shapes the benchmarks rely on, and the guards shared by
// the streaming and vector forms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>
#include <vector>

#include "trace/generators.hpp"

namespace bac {
namespace {

TEST(Generators, UniformCoversRangeDeterministically) {
  const auto a = uniform_trace(10, 1000, Xoshiro256pp(5));
  const auto b = uniform_trace(10, 1000, Xoshiro256pp(5));
  EXPECT_EQ(a, b) << "same seed, same trace";
  std::vector<int> counts(10, 0);
  for (PageId p : a) {
    ASSERT_GE(p, 0);
    ASSERT_LT(p, 10);
    ++counts[static_cast<std::size_t>(p)];
  }
  for (int c : counts) EXPECT_GT(c, 50);
}

TEST(Generators, ZipfSkewsTowardLowIds) {
  const auto t = zipf_trace(100, 20'000, 1.1, Xoshiro256pp(7));
  std::vector<int> counts(100, 0);
  for (PageId p : t) ++counts[static_cast<std::size_t>(p)];
  EXPECT_GT(counts[0], counts[10] * 2);
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Generators, ZipfAlphaZeroIsUniformish) {
  const auto t = zipf_trace(10, 20'000, 0.0, Xoshiro256pp(9));
  std::vector<int> counts(10, 0);
  for (PageId p : t) ++counts[static_cast<std::size_t>(p)];
  const auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_LT(static_cast<double>(*hi) / *lo, 1.3);
}

TEST(Generators, ScanCycles) {
  const auto t = scan_trace(4, 10);
  const std::vector<PageId> want{0, 1, 2, 3, 0, 1, 2, 3, 0, 1};
  EXPECT_EQ(t, want);
}

TEST(Generators, PhasedStaysInWorkingSet) {
  const Time phase = 50;
  const auto t = phased_trace(100, 400, phase, 8, Xoshiro256pp(3));
  for (Time start = 0; start < 400; start += phase) {
    std::vector<PageId> distinct;
    for (Time i = start; i < start + phase; ++i) {
      const PageId p = t[static_cast<std::size_t>(i)];
      if (std::find(distinct.begin(), distinct.end(), p) == distinct.end())
        distinct.push_back(p);
    }
    EXPECT_LE(distinct.size(), 8u);
  }
}

TEST(Generators, PhasedRejectsNonPositivePhaseLen) {
  // Regression: phase_len <= 0 used to reach t % phase_len — integer
  // division by zero (UB) — instead of failing loudly.
  EXPECT_THROW(phased_trace(100, 400, 0, 8, Xoshiro256pp(3)),
               std::invalid_argument);
  EXPECT_THROW(phased_trace(100, 400, -5, 8, Xoshiro256pp(3)),
               std::invalid_argument);
}

TEST(Generators, PhasedRejectsNonPositiveWorkingSet) {
  // Regression: ws_size <= 0 used to index an empty working set.
  EXPECT_THROW(phased_trace(100, 400, 50, 0, Xoshiro256pp(3)),
               std::invalid_argument);
  EXPECT_THROW(phased_trace(100, 400, 50, -1, Xoshiro256pp(3)),
               std::invalid_argument);
  EXPECT_THROW(phased_trace(0, 400, 50, 8, Xoshiro256pp(3)),
               std::invalid_argument);
  // ws_size > n_pages still clamps rather than throwing.
  const auto t = phased_trace(4, 40, 10, 99, Xoshiro256pp(3));
  EXPECT_EQ(t.size(), 40u);
}

TEST(Generators, UniformRejectsEmptyUniverse) {
  EXPECT_THROW(uniform_trace(0, 10, Xoshiro256pp(1)), std::invalid_argument);
}

TEST(Generators, BlockLocalMostlyStays) {
  const BlockMap blocks = BlockMap::contiguous(64, 8);
  const auto t = block_local_trace(blocks, 10'000, 0.9, 0.8, Xoshiro256pp(1));
  int switches = 0;
  for (std::size_t i = 1; i < t.size(); ++i)
    if (blocks.block_of(t[i]) != blocks.block_of(t[i - 1])) ++switches;
  // With stay = 0.9, block switches happen on ~10% of steps (plus the
  // chance a redraw lands on the same block).
  EXPECT_LT(switches, 1500);
  EXPECT_GT(switches, 300);
}

TEST(Generators, LogUniformCostsRespectAspectRatio) {
  const auto costs = log_uniform_costs(1000, 16.0, Xoshiro256pp(2));
  for (Cost c : costs) {
    ASSERT_GE(c, 1.0 - 1e-9);
    ASSERT_LE(c, 16.0 + 1e-9);
  }
  const double hi =
      static_cast<double>(std::count_if(costs.begin(), costs.end(),
                                        [](Cost c) { return c > 4.0; }));
  EXPECT_NEAR(hi / 1000, 0.5, 0.1) << "log-uniform: half the mass above sqrt";
}

TEST(Generators, MakeInstanceValidates) {
  EXPECT_NO_THROW(make_instance(8, 2, 4, {0, 1, 2}));
  EXPECT_THROW(make_instance(8, 2, 1, {0}), std::invalid_argument);  // beta>k
  EXPECT_NO_THROW(
      make_weighted_instance(4, 2, 2, {0, 3}, {1.0, 2.0}));
  EXPECT_THROW(make_weighted_instance(4, 2, 2, {0}, {1.0}),
               std::invalid_argument);
}

TEST(SyntheticSource, BothFormsRejectBadShapes) {
  // Regression: scan_trace(0, T) reached t % 0 (SIGFPE) and a negative
  // horizon gave std::length_error from the vector forms. Every process,
  // streamed or drained, rejects both with std::invalid_argument.
  const Xoshiro256pp rng(1);
  const auto pages = [](int n) {
    return n > 0 ? BlockMap::contiguous(n, 2) : BlockMap();
  };
  struct Form {
    SyntheticSpec spec;
    std::function<std::vector<PageId>(int, Time)> vector;
  };
  const std::vector<Form> forms = {
      {SyntheticSpec::uniform(),
       [&](int n, Time T) { return uniform_trace(n, T, rng); }},
      {SyntheticSpec::zipf(0.9),
       [&](int n, Time T) { return zipf_trace(n, T, 0.9, rng); }},
      {SyntheticSpec::scan(), [](int n, Time T) { return scan_trace(n, T); }},
      {SyntheticSpec::phased(5, 3),
       [&](int n, Time T) { return phased_trace(n, T, 5, 3, rng); }},
      {SyntheticSpec::block_local(0.75, 0.9), [&](int n, Time T) {
         return block_local_trace(pages(n), T, 0.75, 0.9, rng);
       }},
  };
  for (std::size_t i = 0; i < forms.size(); ++i) {
    const Form& f = forms[i];
    EXPECT_THROW(f.vector(0, 10), std::invalid_argument) << "kind " << i;
    EXPECT_THROW(f.vector(8, -1), std::invalid_argument) << "kind " << i;
    EXPECT_THROW(SyntheticSource(pages(0), 2, 10, f.spec, rng),
                 std::invalid_argument)
        << "kind " << i;
    EXPECT_THROW(SyntheticSource(pages(8), 2, -1, f.spec, rng),
                 std::invalid_argument)
        << "kind " << i;
    EXPECT_NO_THROW(f.vector(8, 0)) << "kind " << i;
  }
  // A non-finite alpha, on the stream as on the vector forms. NaN used to
  // yield T requests all to page 0.
  for (const double alpha : {std::nan(""), HUGE_VAL, -HUGE_VAL}) {
    EXPECT_THROW(zipf_trace(64, 2000, alpha, rng), std::invalid_argument)
        << alpha;
    EXPECT_THROW(block_local_trace(pages(8), 10, 0.75, alpha, rng),
                 std::invalid_argument)
        << alpha;
    for (const auto& bad : {SyntheticSpec::zipf(alpha),
                            SyntheticSpec::block_local(0.75, alpha)})
      EXPECT_THROW(SyntheticSource(pages(8), 2, 10, bad, rng),
                   std::invalid_argument)
          << alpha;
  }
  // The phased shape guards, on the stream as on the vector form.
  for (const auto& bad : {SyntheticSpec::phased(0, 12),
                          SyntheticSpec::phased(60, 0),
                          SyntheticSpec::phased(60, -3)})
    EXPECT_THROW(SyntheticSource(pages(40), 12, 600, bad, rng),
                 std::invalid_argument);
}

TEST(SyntheticSource, BlockLocalStreamsOverAWeightedNonContiguousMap) {
  // Blocks interleave pages (page p in block p % 3, block sizes 4/3/3)
  // and carry distinct costs, so the process must index the map's own
  // page lists rather than assume contiguous ranges.
  std::vector<BlockId> page_to_block(10);
  for (int p = 0; p < 10; ++p) page_to_block[static_cast<std::size_t>(p)] = p % 3;
  const BlockMap blocks(page_to_block, {1.0, 4.0, 0.5});
  const Xoshiro256pp rng(17);

  SyntheticSource src(blocks, 4, 900, SyntheticSpec::block_local(0.8, 0.6),
                      rng);
  EXPECT_TRUE(src.context().blocks.shares_structure(blocks));
  std::vector<PageId> streamed;
  PageId p = 0;
  while (src.next(p)) streamed.push_back(p);
  EXPECT_EQ(streamed, block_local_trace(blocks, 900, 0.8, 0.6, rng));

  ASSERT_EQ(streamed.size(), 900u);
  std::vector<int> per_block(3, 0);
  for (const PageId q : streamed) {
    ASSERT_GE(q, 0);
    ASSERT_LT(q, 10);
    ++per_block[static_cast<std::size_t>(blocks.block_of(q))];
  }
  for (const int c : per_block) EXPECT_GT(c, 0) << "every block is visited";
}

}  // namespace
}  // namespace bac
