// Tests for Algorithms 3+4 (randomized rounding, Theorem 3.12):
// feasibility, determinism per seed, expected cost vs the fractional and
// dual benchmarks, and structure-transform accounting.
#include <gtest/gtest.h>

#include <cmath>

#include "algs/rounding.hpp"
#include "core/simulator.hpp"
#include "trace/generators.hpp"

namespace bac {
namespace {

TEST(Rounding, FeasibleAcrossSeeds) {
  Xoshiro256pp rng(71);
  const Instance inst = make_instance(16, 4, 6,
                                      zipf_trace(16, 300, 0.9, rng));
  RandomizedBlockAware alg;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SimOptions opt;
    opt.seed = seed;
    // simulate throws on an infeasible step.
    EXPECT_NO_THROW(simulate(inst, alg, opt)) << "seed " << seed;
  }
}

TEST(Rounding, DeterministicPerSeed) {
  Xoshiro256pp rng(72);
  const Instance inst = make_instance(12, 3, 5,
                                      uniform_trace(12, 200, rng));
  RandomizedBlockAware alg;
  SimOptions opt;
  opt.seed = 1234;
  const RunResult a = simulate(inst, alg, opt);
  const RunResult b = simulate(inst, alg, opt);
  EXPECT_DOUBLE_EQ(a.eviction_cost, b.eviction_cost);
  EXPECT_EQ(a.evict_block_events, b.evict_block_events);
}

TEST(Rounding, GammaMatchesPaper) {
  const Instance inst = make_instance(16, 4, 8, scan_trace(16, 20));
  RandomizedBlockAware alg;
  simulate(inst, alg);
  const double expected = std::log(4.0 * 8 * 8 * 4 * 1.0);
  EXPECT_NEAR(alg.gamma(), expected, 1e-12);
}

TEST(Rounding, ExpectedCostWithinGammaFactorOfFractional) {
  // Lemma 3.16: E[cost] <= (gamma + O(1)) * fractional cost. Measure the
  // mean over seeds and compare with slack.
  Xoshiro256pp rng(73);
  const Instance inst = make_instance(18, 3, 6,
                                      zipf_trace(18, 400, 0.8, rng));
  RandomizedBlockAware alg;
  const MonteCarloResult mc = simulate_mc(inst, alg, 12, 99);
  // fractional_cost() reflects the last run; the fractional algorithm is
  // deterministic so it is identical across seeds.
  const double frac = alg.fractional_cost();
  ASSERT_GT(frac, 0.0);
  EXPECT_LE(mc.mean_eviction_cost, (alg.gamma() + 3.0) * frac * 1.5)
      << "rounding overhead exceeded the theorem's shape";
}

TEST(Rounding, StructuredCostWithinConstantOfFractional) {
  // Lemma 3.14: the transform costs at most a constant factor more.
  Xoshiro256pp rng(74);
  const Instance inst = make_instance(20, 4, 8,
                                      zipf_trace(20, 500, 1.0, rng));
  RandomizedBlockAware alg;
  simulate(inst, alg);
  ASSERT_GT(alg.fractional_cost(), 0.0);
  EXPECT_LE(alg.structured_cost(), 4.0 * alg.fractional_cost() + 1.0)
      << "structure transform should be a constant-factor blowup";
}

TEST(Rounding, NoFallbacksOnHealthyRuns) {
  Xoshiro256pp rng(75);
  const Instance inst = make_instance(12, 2, 6,
                                      zipf_trace(12, 300, 0.7, rng));
  RandomizedBlockAware alg;
  SimOptions opt;
  opt.seed = 7;
  simulate(inst, alg, opt);
  // Alterations are expected; fallbacks (no positive-x page to evict)
  // should be rare to none.
  EXPECT_LE(alg.fallback_alterations(), alg.alterations());
}

TEST(Rounding, RandomizedBeatsDeterministicKBoundInExpectation) {
  // Sanity-scale comparison: on a scan workload with many blocks the
  // randomized algorithm should not be catastrophically worse than its
  // fractional base — the O(log k log kDelta) vs k separation shows up at
  // larger k; here we just require a sane multiple.
  const Instance inst = make_instance(32, 4, 8, scan_trace(32, 800));
  RandomizedBlockAware alg;
  const MonteCarloResult mc = simulate_mc(inst, alg, 6, 5);
  ASSERT_GT(alg.fractional_cost(), 0.0);
  EXPECT_LE(mc.mean_eviction_cost / alg.fractional_cost(),
            3.0 * (alg.gamma() + 3.0));
}

TEST(Rounding, AblationWithoutStructureStillFeasible) {
  Xoshiro256pp rng(76);
  const Instance inst = make_instance(12, 3, 6,
                                      uniform_trace(12, 200, rng));
  RandomizedBlockAware::Options options;
  options.apply_structure = false;
  RandomizedBlockAware alg(options);
  SimOptions opt;
  opt.seed = 11;
  EXPECT_NO_THROW(simulate(inst, alg, opt));
}

TEST(Rounding, GammaOverrideRespected) {
  const Instance inst = make_instance(8, 2, 4, scan_trace(8, 40));
  RandomizedBlockAware::Options options;
  options.gamma_override = 2.5;
  RandomizedBlockAware alg(options);
  simulate(inst, alg);
  EXPECT_DOUBLE_EQ(alg.gamma(), 2.5);
}

}  // namespace
}  // namespace bac
