// Tests for the extension modules: the dual-feasibility audit harness,
// schedule capture, GreedyFlush and the online threshold-bicriteria
// policy.
#include <gtest/gtest.h>

#include <cmath>

#include "algs/det_online.hpp"
#include "algs/dual_verifier.hpp"
#include "algs/greedy_flush.hpp"
#include "algs/threshold_bicriteria.hpp"
#include "core/simulator.hpp"
#include "trace/generators.hpp"

namespace bac {
namespace {

TEST(DualVerifier, AuditsAlgorithm1OnRandomInstances) {
  Xoshiro256pp rng(201);
  for (int trial = 0; trial < 6; ++trial) {
    const Instance inst = make_instance(
        12, 3, 4, zipf_trace(12, 150, 0.9, rng.substream(trial)));
    DetOnlineBlockAware alg;
    alg.enable_event_log();
    simulate(inst, alg);
    const DualAudit audit = audit_dual_feasibility(inst, alg.event_log());
    EXPECT_TRUE(audit.feasible(1e-9))
        << "constraint (" << audit.worst_block << "," << audit.worst_time
        << ") ratio " << audit.max_load_ratio << " (trial " << trial << ")";
    EXPECT_NEAR(audit.objective, alg.dual_objective(), 1e-9)
        << "event log must reproduce the dual objective";
  }
}

TEST(DualVerifier, AuditsWeightedInstances) {
  // The weighted regression that originally exposed the tracking bug.
  Xoshiro256pp rng(55);
  for (int trial = 0; trial < 4; ++trial) {
    auto costs = log_uniform_costs(4, 8.0, rng.substream(100 + trial));
    Instance inst = make_weighted_instance(
        8, 2, 4, uniform_trace(8, 30, rng.substream(trial)), std::move(costs));
    DetOnlineBlockAware alg;
    alg.enable_event_log();
    simulate(inst, alg);
    const DualAudit audit = audit_dual_feasibility(inst, alg.event_log());
    EXPECT_TRUE(audit.feasible(1e-9)) << "trial " << trial;
  }
}

TEST(DualVerifier, DetectsFabricatedInfeasibility) {
  // Feed a corrupted log (doubled deltas) and expect the audit to flag it.
  Xoshiro256pp rng(202);
  const Instance inst = make_instance(10, 2, 4,
                                      uniform_trace(10, 60, rng));
  DetOnlineBlockAware alg;
  alg.enable_event_log();
  simulate(inst, alg);
  auto events = alg.event_log();
  ASSERT_FALSE(events.empty());
  for (auto& ev : events) ev.delta *= 3.0;
  const DualAudit audit = audit_dual_feasibility(inst, events);
  EXPECT_FALSE(audit.feasible(1e-9));
}

TEST(ScheduleCapture, ReplayMatchesLiveRun) {
  Xoshiro256pp rng(203);
  const Instance inst = make_instance(16, 4, 6,
                                      zipf_trace(16, 300, 0.8, rng));
  DetOnlineBlockAware alg;
  SimOptions opt;
  opt.record_schedule = true;
  const RunResult live = simulate(inst, alg, opt);
  const ScheduleCost replay = evaluate(inst, live.schedule);
  EXPECT_TRUE(replay.feasible) << replay.infeasibility;
  EXPECT_DOUBLE_EQ(replay.eviction_cost, live.eviction_cost);
  EXPECT_DOUBLE_EQ(replay.fetch_cost, live.fetch_cost);
}

TEST(ScheduleCapture, WorksForClassicalPolicies) {
  Xoshiro256pp rng(204);
  const Instance inst = make_instance(12, 2, 5,
                                      uniform_trace(12, 200, rng));
  GreedyFlushPolicy alg;
  SimOptions opt;
  opt.record_schedule = true;
  const RunResult live = simulate(inst, alg, opt);
  const ScheduleCost replay = evaluate(inst, live.schedule);
  EXPECT_TRUE(replay.feasible);
  EXPECT_DOUBLE_EQ(replay.eviction_cost, live.eviction_cost);
}

TEST(GreedyFlush, FeasibleAndBatches) {
  Xoshiro256pp rng(205);
  const BlockMap blocks = BlockMap::contiguous(64, 8);
  auto req = block_local_trace(blocks, 4000, 0.8, 0.9, rng);
  Instance inst{blocks, std::move(req), 16};
  GreedyFlushPolicy alg;
  const RunResult r = simulate(inst, alg);
  ASSERT_GT(r.evicted_pages, 0);
  // Greedy picks big blocks: several pages per eviction event on average.
  EXPECT_GE(static_cast<double>(r.evicted_pages) /
                static_cast<double>(r.evict_block_events),
            2.0);
}

TEST(GreedyFlush, PrefersCheapBlocksUnderWeights) {
  // One expensive block and one cheap block, both fully cached; greedy
  // must flush the cheap one.
  Instance inst = make_weighted_instance(
      6, 3, 6, {0, 1, 2, 3, 4, 5}, {100.0, 1.0});
  inst.k = 4;
  // requests fill both blocks (capacity forces flushes at t=5,6).
  GreedyFlushPolicy alg;
  const RunResult r = simulate(inst, alg);
  EXPECT_LT(r.eviction_cost, 100.0) << "the expensive block must survive";
}

TEST(ThresholdBicriteria, FetchModeFeasibleAndBounded) {
  Xoshiro256pp rng(206);
  for (int k : {8, 16}) {
    const Instance inst = make_instance(
        4 * k, 4, k, zipf_trace(4 * k, 1000, 0.9, rng.substream(k)));
    ThresholdBicriteriaPolicy alg(ThresholdBicriteriaPolicy::Mode::Fetching);
    const RunResult r = simulate(inst, alg);  // audited: fits within k
    // Theorem 4.1 inheritance: cost <= 2 x fractional block fetch cost of
    // the internal half-cache fractional solution.
    EXPECT_LE(r.fetch_cost, 2.0 * alg.fractional_block_fetch() + 1e-6);
  }
}

TEST(ThresholdBicriteria, EvictionModeFeasible) {
  Xoshiro256pp rng(207);
  const Instance inst = make_instance(48, 4, 12,
                                      zipf_trace(48, 800, 0.9, rng));
  ThresholdBicriteriaPolicy alg(ThresholdBicriteriaPolicy::Mode::Eviction);
  const RunResult r = simulate(inst, alg);
  EXPECT_GT(r.eviction_cost, 0.0);
}

}  // namespace
}  // namespace bac
