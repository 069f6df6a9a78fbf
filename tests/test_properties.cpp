// Parameterized property sweeps (TEST_P): the paper's invariants checked
// across a grid of (n, beta, k, workload) configurations.
//
//  P1  Every policy in the zoo maintains feasibility (audited simulator).
//  P2  Algorithm 1: primal <= k * dual and dual loads stay feasible.
//  P3  Algorithm 2: solution is monotone, per-step feasible, and within
//      2 ln(k*beta+1) of its dual.
//  P4  Rounding: feasible for every seed; requested pages never evicted.
//  P5  Cost-model coupling: for beta = 1, |OPT_fetch - OPT_evict| is at
//      most the cold-fetch cost (classic paging equivalence, Section 2).
//  P6  Batching dominance: block-aware batched cost <= classic per-page
//      cost <= beta * batched cost, for every policy run.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "algs/det_online.hpp"
#include "algs/fractional.hpp"
#include "algs/opt.hpp"
#include "algs/rounding.hpp"
#include "algs/zoo.hpp"
#include "core/simulator.hpp"
#include "trace/generators.hpp"

namespace bac {
namespace {

enum class Workload { Uniform, Zipf, Scan, Phased };

std::string workload_name(Workload w) {
  switch (w) {
    case Workload::Uniform: return "Uniform";
    case Workload::Zipf: return "Zipf";
    case Workload::Scan: return "Scan";
    case Workload::Phased: return "Phased";
  }
  return "?";
}

using Config = std::tuple<int /*beta*/, int /*k*/, Workload>;

Instance build(const Config& cfg, std::uint64_t seed, Time T) {
  const auto [beta, k, w] = cfg;
  const int n = 4 * k;
  std::vector<PageId> req;
  Xoshiro256pp rng(seed);
  switch (w) {
    case Workload::Uniform: req = uniform_trace(n, T, rng); break;
    case Workload::Zipf: req = zipf_trace(n, T, 0.9, rng); break;
    case Workload::Scan: req = scan_trace(n, T); break;
    case Workload::Phased:
      req = phased_trace(n, T, T / 8, k + beta, rng);
      break;
  }
  return make_instance(n, beta, k, std::move(req));
}

class PropertySweep : public ::testing::TestWithParam<Config> {};

TEST_P(PropertySweep, P1_AllPoliciesFeasible) {
  const Instance inst = build(GetParam(), 11, 240);
  for (auto& policy : make_policy_zoo()) {
    SimOptions opt;
    opt.seed = 3;
    // simulate throws on an infeasible step.
    EXPECT_NO_THROW(simulate(inst, *policy, opt)) << policy->name();
  }
}

TEST_P(PropertySweep, P2_DetOnlinePrimalDualBound) {
  const Instance inst = build(GetParam(), 13, 300);
  DetOnlineBlockAware alg;
  const RunResult r = simulate(inst, alg);
  EXPECT_LE(alg.max_load_ratio(), 1.0 + 1e-9);
  if (alg.dual_objective() > 0) {
    EXPECT_LE(r.eviction_cost,
              static_cast<double>(inst.k) * alg.dual_objective() + 1e-6);
  } else {
    EXPECT_DOUBLE_EQ(r.eviction_cost, 0.0);
  }
}

TEST_P(PropertySweep, P3_FractionalMonotoneFeasibleBounded) {
  const Instance inst = build(GetParam(), 17, 200);
  FractionalBlockAware alg(inst.blocks, inst.k);
  ThresholdSeparation oracle;
  for (Time t = 1; t <= inst.horizon(); ++t) {
    for (const auto& inc : alg.step(t, inst.request_at(t))) {
      ASSERT_GT(inc.delta, 0.0);
      ASSERT_LE(inc.new_value, 1.0 + 1e-9);
    }
    ASSERT_FALSE(
        oracle.find_violated(alg.integral_set(), alg.vars()).has_value())
        << "violated constraint after t=" << t;
  }
  if (alg.dual_objective() > 0) {
    const double bound = 2.0 * std::log(static_cast<double>(inst.k) *
                                            inst.blocks.beta() + 1.0);
    EXPECT_LE(alg.fractional_cost() / alg.dual_objective(), bound + 1e-6);
  }
}

TEST_P(PropertySweep, P4_RoundingFeasibleAcrossSeeds) {
  const Instance inst = build(GetParam(), 19, 200);
  RandomizedBlockAware alg;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SimOptions opt;
    opt.seed = seed;
    EXPECT_NO_THROW(simulate(inst, alg, opt)) << "seed " << seed;
  }
}

TEST_P(PropertySweep, P6_BatchingDominance) {
  const Instance inst = build(GetParam(), 23, 240);
  const double beta = inst.blocks.beta();
  for (auto& policy : make_policy_zoo()) {
    SimOptions opt;
    opt.seed = 29;
    const RunResult r = simulate(inst, *policy, opt);
    EXPECT_LE(r.eviction_cost, r.classic_eviction_cost + 1e-9)
        << policy->name();
    EXPECT_LE(r.classic_eviction_cost, beta * r.eviction_cost + 1e-9)
        << policy->name();
    EXPECT_LE(r.fetch_cost, r.classic_fetch_cost + 1e-9) << policy->name();
    EXPECT_LE(r.classic_fetch_cost, beta * r.fetch_cost + 1e-9)
        << policy->name();
  }
}

constexpr Config kGrid[] = {
    {1, 6, Workload::Uniform},  {1, 6, Workload::Zipf},
    {2, 6, Workload::Uniform},  {2, 6, Workload::Scan},
    {3, 6, Workload::Zipf},     {3, 6, Workload::Phased},
    {4, 8, Workload::Uniform},  {4, 8, Workload::Zipf},
    {4, 8, Workload::Scan},     {6, 12, Workload::Zipf},
    {8, 16, Workload::Uniform}, {8, 16, Workload::Phased},
};

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  const auto& [beta, k, w] = info.param;
  return "beta" + std::to_string(beta) + "_k" + std::to_string(k) + "_" +
         workload_name(w);
}

INSTANTIATE_TEST_SUITE_P(Grid, PropertySweep, ::testing::ValuesIn(kGrid),
                         config_name);

/// P5: beta = 1 collapses the two cost models (classic paging), up to the
/// cold-start fetches that the eviction model gets for free.
class BetaOneEquivalence : public ::testing::TestWithParam<int /*seed*/> {};

TEST_P(BetaOneEquivalence, OptCostsCoincideUpToColdFetches) {
  Xoshiro256pp rng(static_cast<std::uint64_t>(GetParam()));
  const int n = 7, k = 3;
  Instance inst = make_instance(n, 1, k, uniform_trace(n, 20, rng));
  const OptResult f = exact_opt_fetching(inst);
  const OptResult e = exact_opt_eviction(inst);
  ASSERT_TRUE(f.exact && e.exact);
  // distinct pages requested:
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  double distinct = 0;
  for (PageId p : inst.requests)
    if (!seen[static_cast<std::size_t>(p)]) {
      seen[static_cast<std::size_t>(p)] = 1;
      distinct += 1;
    }
  // OPT_fetch = OPT_evict + (cold fetches kept until the end... ) in
  // classic paging: fetch cost = evict cost + |pages in final cache paid
  // once|; bounds: evict <= fetch <= evict + distinct.
  EXPECT_LE(e.cost, f.cost + 1e-9);
  EXPECT_LE(f.cost, e.cost + distinct + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BetaOneEquivalence,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace bac
