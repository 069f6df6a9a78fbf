// Tests for the classical baselines: textbook behaviours on hand traces,
// feasibility on random traces, and the known competitive anchors
// (LRU's cyclic nemesis, Belady's optimality for unweighted paging).
#include <gtest/gtest.h>

#include <memory>

#include "algs/policies/classical.hpp"
#include "algs/opt.hpp"
#include "core/simulator.hpp"
#include "trace/adversarial.hpp"
#include "trace/generators.hpp"

namespace bac {
namespace {

Instance paging_instance(std::vector<PageId> req, int n, int k) {
  return Instance{BlockMap::contiguous(n, 1), std::move(req), k};
}

TEST(Lru, EvictsLeastRecentlyUsed) {
  // k=2: 0,1,2 -> evicts 0; then request 1 hits, request 0 misses.
  const Instance inst = paging_instance({0, 1, 2, 1, 0}, 3, 2);
  LruPolicy lru;
  const RunResult r = simulate(inst, lru);
  EXPECT_EQ(r.misses, 4);  // 0,1,2 cold; 1 hit; 0 miss
}

TEST(Fifo, EvictsOldestArrival) {
  // k=2: 0,1 -> [0,1]; request 0 (hit, stays oldest); 2 evicts 0.
  const Instance inst = paging_instance({0, 1, 0, 2, 0}, 3, 2);
  FifoPolicy fifo;
  const RunResult r = simulate(inst, fifo);
  // misses: 0,1,2, then 0 again (was evicted) = 4.
  EXPECT_EQ(r.misses, 4);
}

TEST(Lru, FifoDifferOnRecencyTrace) {
  // Same trace: LRU keeps 0 (recently used), evicting 1 instead.
  const Instance inst = paging_instance({0, 1, 0, 2, 0}, 3, 2);
  LruPolicy lru;
  EXPECT_EQ(simulate(inst, lru).misses, 3);  // 0,1,2 cold; final 0 hits
}

TEST(Lfu, KeepsFrequentPage) {
  // Page 0 requested often; k=2 with three pages.
  const Instance inst = paging_instance({0, 0, 0, 1, 2, 0, 1, 2, 0}, 3, 2);
  LfuPolicy lfu;
  const RunResult r = simulate(inst, lfu);
  // 0 is never evicted after building frequency; misses: 0,1,2, then the
  // 1/2 alternation keeps missing (both freq 1 vs 0's high count).
  EXPECT_LE(r.misses, 6);
  LruPolicy lru;
  EXPECT_GE(simulate(inst, lru).misses, 5);
}

TEST(Marking, FeasibleAndSeedDeterministic) {
  const Instance inst = make_instance(12, 3, 4,
                                      uniform_trace(12, 300, Xoshiro256pp(4)));
  MarkingPolicy m;
  SimOptions opt;
  opt.seed = 9;
  const RunResult a = simulate(inst, m, opt);
  const RunResult b = simulate(inst, m, opt);
  EXPECT_EQ(a.misses, b.misses) << "same seed, same run";
  EXPECT_EQ(a.fetch_cost, b.fetch_cost);
}

TEST(Marking, WithinLogFactorOnNemesis) {
  // Marking is O(log k)-competitive on the cyclic nemesis in expectation;
  // LRU pays every step. Check the separation empirically.
  const int k = 16;
  const Instance inst = cyclic_nemesis(k, 1, 2000);
  LruPolicy lru;
  MarkingPolicy marking;
  const double lru_misses =
      static_cast<double>(simulate(inst, lru).misses);
  const MonteCarloResult mc = simulate_mc(inst, marking, 10, 3);
  EXPECT_LT(mc.mean_fetch_cost, lru_misses * 0.6)
      << "randomized marking should beat LRU solidly on the nemesis";
}

TEST(Belady, OptimalOnUnweightedPaging) {
  Xoshiro256pp rng(15);
  for (int trial = 0; trial < 6; ++trial) {
    const int n = 7, k = 3;
    Instance inst =
        paging_instance(uniform_trace(n, 16, rng.substream(trial)), n, k);
    BeladyPolicy belady;
    const RunResult r = simulate(inst, belady);
    // With beta = 1 the fetching model *is* classic paging; exact OPT must
    // match Belady's fetch cost exactly.
    const OptResult opt = exact_opt_fetching(inst);
    ASSERT_TRUE(opt.exact);
    EXPECT_DOUBLE_EQ(r.fetch_cost, opt.cost) << "trial " << trial;
  }
}

TEST(GreedyDual, ReducesToLruLikeOnUniformWeights) {
  const Instance inst = paging_instance({0, 1, 2, 1, 0}, 3, 2);
  GreedyDualPolicy gd;
  const RunResult r = simulate(inst, gd);
  EXPECT_LE(r.misses, 4);
}

TEST(GreedyDual, PrefersKeepingExpensivePages) {
  // Pages 0 (cost 10) and 1,2 (cost 1); k=2. After caching 0, GreedyDual
  // should sacrifice the cheap pages.
  Instance inst{BlockMap::contiguous_weighted(3, 1, {10.0, 1.0, 1.0}),
                {0, 1, 2, 1, 2, 1, 2, 0}, 2};
  GreedyDualPolicy gd;
  const RunResult r = simulate(inst, gd);
  // Page 0 must still be cached at the final request.
  // Its fetch cost total should be 10 (fetched once).
  // Cheap pages bounce: total cost = 10 + bounces.
  EXPECT_LT(r.fetch_cost, 20.0);
  LruPolicy lru;
  // LRU: fetch 0 (10), fetch 1 (1), miss 2 evicts 0 (1), hits, then the
  // final request to 0 repays 10: total 22.
  EXPECT_DOUBLE_EQ(simulate(inst, lru).fetch_cost, 22.0);
}

TEST(BlockLru, BatchesEvictions) {
  // Two blocks of 4, k = 4: scanning 8 pages forces periodic turnover;
  // BlockLRU should pay ~1 eviction event per 4 pages evicted.
  const Instance inst = make_instance(8, 4, 4, scan_trace(8, 64));
  BlockLruPolicy blru(/*prefetch=*/false);
  const RunResult r = simulate(inst, blru);
  EXPECT_GT(r.evicted_pages, 0);
  EXPECT_LE(r.eviction_cost * 3, static_cast<double>(r.evicted_pages))
      << "evictions should be batched (several pages per block event)";
}

TEST(BlockLruPrefetch, BatchesFetches) {
  const Instance inst = make_instance(8, 4, 4, scan_trace(8, 64));
  BlockLruPolicy blru(/*prefetch=*/true);
  const RunResult r = simulate(inst, blru);
  EXPECT_LE(r.fetch_cost * 3, static_cast<double>(r.fetched_pages))
      << "prefetching should batch fetches within blocks";
  // A scan over whole blocks: prefetch turns 64 misses into ~16 block
  // fetches.
  EXPECT_LE(r.fetch_cost, 20.0);
}

TEST(AllClassical, FeasibleOnRandomTraces) {
  Xoshiro256pp rng(21);
  const Instance inst = make_instance(
      20, 4, 6, zipf_trace(20, 500, 0.9, rng));
  std::vector<std::unique_ptr<OnlinePolicy>> policies;
  policies.push_back(std::make_unique<LruPolicy>());
  policies.push_back(std::make_unique<FifoPolicy>());
  policies.push_back(std::make_unique<LfuPolicy>());
  policies.push_back(std::make_unique<MarkingPolicy>());
  policies.push_back(std::make_unique<GreedyDualPolicy>());
  policies.push_back(std::make_unique<BeladyPolicy>());
  policies.push_back(std::make_unique<BlockLruPolicy>(false));
  policies.push_back(std::make_unique<BlockLruPolicy>(true));
  for (auto& p : policies) {
    const RunResult r = simulate(inst, *p);  // throws on violation
    EXPECT_GT(r.misses, 0) << p->name();
  }
}

TEST(Belady, BeatsOnlinePoliciesOnAverage) {
  Xoshiro256pp rng(22);
  const Instance inst = make_instance(
      16, 1, 5, zipf_trace(16, 800, 0.8, rng));
  BeladyPolicy belady;
  LruPolicy lru;
  FifoPolicy fifo;
  const auto b = simulate(inst, belady).misses;
  EXPECT_LE(b, simulate(inst, lru).misses);
  EXPECT_LE(b, simulate(inst, fifo).misses);
}

}  // namespace
}  // namespace bac
