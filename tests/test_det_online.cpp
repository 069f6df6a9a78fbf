// Tests for Algorithm 1 (deterministic k-competitive online, Theorem 3.3):
// feasibility, dual feasibility, primal <= k * dual, dual <= OPT, and the
// expected advantage over block-oblivious baselines.
#include <gtest/gtest.h>

#include "algs/policies/classical.hpp"
#include "algs/det_online.hpp"
#include "algs/opt.hpp"
#include "core/simulator.hpp"
#include "trace/adversarial.hpp"
#include "trace/generators.hpp"

namespace bac {
namespace {

TEST(DetOnline, FeasibleOnRandomTraces) {
  Xoshiro256pp rng(51);
  for (int trial = 0; trial < 5; ++trial) {
    const Instance inst = make_instance(
        24, 4, 8, zipf_trace(24, 400, 0.8, rng.substream(trial)));
    DetOnlineBlockAware alg;
    const RunResult r = simulate(inst, alg);  // throws on violation
    EXPECT_DOUBLE_EQ(r.eviction_cost, alg.primal_cost())
        << "meter and internal accounting must agree";
  }
}

TEST(DetOnline, DualIsFeasible) {
  Xoshiro256pp rng(52);
  const Instance inst = make_instance(
      18, 3, 6, zipf_trace(18, 600, 1.0, rng));
  DetOnlineBlockAware alg;
  simulate(inst, alg);
  EXPECT_LE(alg.max_load_ratio(), 1.0 + 1e-9)
      << "some dual constraint got violated";
}

TEST(DetOnline, PrimalAtMostKTimesDual) {
  Xoshiro256pp rng(53);
  for (int trial = 0; trial < 6; ++trial) {
    const int k = 4 + 2 * trial;
    const Instance inst = make_instance(
        3 * k, 2, k, uniform_trace(3 * k, 500, rng.substream(trial)));
    DetOnlineBlockAware alg;
    simulate(inst, alg);
    if (alg.dual_objective() > 0) {
      EXPECT_LE(alg.primal_cost(),
                static_cast<double>(k) * alg.dual_objective() + 1e-6)
          << "Theorem 3.3 bound violated at k=" << k;
    } else {
      EXPECT_DOUBLE_EQ(alg.primal_cost(), 0.0);
    }
  }
}

TEST(DetOnline, DualLowerBoundsExactOpt) {
  Xoshiro256pp rng(54);
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = make_instance(
        8, 2, 4, uniform_trace(8, 30, rng.substream(trial)));
    DetOnlineBlockAware alg;
    simulate(inst, alg);
    const OptResult opt = exact_opt_eviction(inst);
    ASSERT_TRUE(opt.exact);
    EXPECT_LE(alg.dual_objective(), opt.cost + 1e-6)
        << "dual must certify a valid lower bound (trial " << trial << ")";
  }
}

TEST(DetOnline, WeightedDualLowerBoundsOpt) {
  Xoshiro256pp rng(55);
  for (int trial = 0; trial < 4; ++trial) {
    auto costs = log_uniform_costs(4, 8.0, rng.substream(100 + trial));
    Instance inst = make_weighted_instance(
        8, 2, 4, uniform_trace(8, 30, rng.substream(trial)), std::move(costs));
    DetOnlineBlockAware alg;
    simulate(inst, alg);
    const OptResult opt = exact_opt_eviction(inst);
    ASSERT_TRUE(opt.exact);
    EXPECT_LE(alg.dual_objective(), opt.cost + 1e-6);
    EXPECT_LE(alg.max_load_ratio(), 1.0 + 1e-9);
  }
}

TEST(DetOnline, BeatsLruEvictionCostWithLargeBlocks) {
  // Block-local workload with beta = 8: batching should win by a clear
  // factor in the eviction model.
  const BlockMap blocks = BlockMap::contiguous(128, 8);
  auto req = block_local_trace(blocks, 8000, 0.8, 0.9, Xoshiro256pp(56));
  Instance inst{blocks, std::move(req), 32};
  DetOnlineBlockAware alg;
  LruPolicy lru;
  const double ba = simulate(inst, alg).eviction_cost;
  const double classical = simulate(inst, lru).eviction_cost;
  EXPECT_LT(ba, classical * 0.6)
      << "Algorithm 1 should batch far better than LRU";
}

TEST(DetOnline, NoEvictionsWhenEverythingFits) {
  const Instance inst = make_instance(6, 2, 6, scan_trace(6, 30));
  DetOnlineBlockAware alg;
  const RunResult r = simulate(inst, alg);
  EXPECT_DOUBLE_EQ(r.eviction_cost, 0.0);
  EXPECT_DOUBLE_EQ(alg.dual_objective(), 0.0);
}

TEST(DetOnline, BetaOneBehavesLikeWeightedPaging) {
  // With singleton blocks the model is classic weighted paging; Algorithm 1
  // must stay k-competitive against exact OPT.
  Xoshiro256pp rng(57);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 8, k = 4;
    Instance inst = make_instance(n, 1, k,
                                  zipf_trace(n, 40, 0.6, rng.substream(trial)));
    DetOnlineBlockAware alg;
    const RunResult r = simulate(inst, alg);
    const OptResult opt = exact_opt_eviction(inst);
    ASSERT_TRUE(opt.exact);
    if (opt.cost > 0) {
      EXPECT_LE(r.eviction_cost, static_cast<double>(k) * opt.cost + 1e-6);
    }
  }
}

TEST(DetOnline, RatioToOptWithinKOnSmallInstances) {
  Xoshiro256pp rng(58);
  for (int trial = 0; trial < 8; ++trial) {
    const int n = 9, beta = 3, k = 3 + static_cast<int>(rng.below(3));
    Instance inst = make_instance(
        n, beta, k, uniform_trace(n, 40, rng.substream(trial)));
    DetOnlineBlockAware alg;
    const RunResult r = simulate(inst, alg);
    const OptResult opt = exact_opt_eviction(inst);
    ASSERT_TRUE(opt.exact);
    if (opt.cost > 1e-9)
      EXPECT_LE(r.eviction_cost / opt.cost, static_cast<double>(k) + 1e-6)
          << "k-competitiveness violated (trial " << trial << ")";
    else
      EXPECT_DOUBLE_EQ(r.eviction_cost, 0.0);
  }
}

}  // namespace
}  // namespace bac
