// Tests for the LP (P) separation oracles: LHS evaluation, detection of
// violated constraints, and agreement between the online threshold oracle
// and the exhaustive oracle on small instances.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <vector>

#include "algs/fractional.hpp"
#include "submodular/separation.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace bac {
namespace {

struct World {
  BlockMap blocks = BlockMap::contiguous(6, 2);  // 3 blocks of 2
  FlushCoverage cov{blocks, 3};                  // cap = 3
};

TEST(Separation, ZeroSolutionIsViolated) {
  World s;
  for (Time t = 1; t <= 6; ++t) s.cov.advance(static_cast<PageId>(t - 1), t);
  FlushSet S = FlushSet::empty(s.cov);
  FlushVars phi(3);
  ThresholdSeparation oracle;
  const auto v = oracle.find_violated(S, phi);
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->lhs, 0.0);
  EXPECT_DOUBLE_EQ(v->rhs, 3.0);  // n - k - f(empty) = 3
}

TEST(Separation, InitialFlushSetIsFeasible) {
  World s;
  FlushSet S(s.cov);  // all blocks flushed at 0: f = cap already
  FlushVars phi(3);
  for (BlockId b = 0; b < 3; ++b) phi.raise_to(b, 0, 1.0);
  ThresholdSeparation oracle;
  EXPECT_FALSE(oracle.find_violated(S, phi).has_value());
}

TEST(Separation, FractionalMassSatisfiesConstraint) {
  World s;
  // Request each page once so every block has alive flushes.
  for (Time t = 1; t <= 6; ++t) s.cov.advance(static_cast<PageId>(t - 1), t);
  FlushSet S = FlushSet::empty(s.cov);
  FlushVars phi(3);
  ThresholdSeparation oracle;
  // One block fully evicted at time 6 misses 2 pages, but the constraint
  // needs cap = 3: violated.
  phi.raise_to(0, 6, 1.0);
  auto v = oracle.find_violated(S, phi);
  ASSERT_TRUE(v.has_value());
  EXPECT_GT(v->rhs, v->lhs);
  // A second block closes the gap: lhs = 2 + 2 >= 3 at S, and every
  // threshold superset constraint is saturated (f reaches the cap).
  phi.raise_to(1, 6, 1.0);
  EXPECT_FALSE(oracle.find_violated(S, phi).has_value());
  // Cross-check with the exhaustive oracle.
  ExhaustiveSeparation exhaustive;
  EXPECT_FALSE(exhaustive.find_violated(S, phi).has_value());
}

TEST(Separation, DpOracleIsExactAgainstExhaustive) {
  // The DP oracle must agree with the exponential-time exhaustive oracle
  // on every random case; the threshold heuristic may miss rare violations
  // (tracked below) but must never report spurious ones.
  Xoshiro256pp rng(123);
  int violated_cases = 0;
  int threshold_misses = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 6;
    const int beta = 2;
    const int k = 3;
    const BlockMap blocks = BlockMap::contiguous(n, beta);
    FlushCoverage cov(blocks, k);
    const Time T = 8;
    for (Time t = 1; t <= T; ++t)
      cov.advance(static_cast<PageId>(rng.below(n)), t);

    FlushSet S = FlushSet::empty(cov);
    FlushVars phi(blocks.n_blocks());
    for (int i = 0; i < 5; ++i) {
      const auto b = static_cast<BlockId>(rng.below(3));
      const auto t = static_cast<Time>(1 + rng.below(T));
      phi.increase(b, t, 0.25 * (1 + rng.below(3)));
    }

    ExhaustiveSeparation exhaustive;
    DpSeparation dp;
    ThresholdSeparation threshold;
    const auto ve = exhaustive.find_violated(S, phi);
    const auto vd = dp.find_violated(S, phi);
    const auto vt = threshold.find_violated(S, phi);
    ASSERT_EQ(ve.has_value(), vd.has_value())
        << "DP oracle disagreed with exhaustive (trial " << trial << ")";
    if (ve.has_value()) {
      ++violated_cases;
      EXPECT_NEAR(vd->amount(), ve->amount(), 1e-9)
          << "DP oracle should find the most violated constraint";
      if (!vt.has_value()) ++threshold_misses;
    } else {
      EXPECT_FALSE(vt.has_value())
          << "threshold oracle found a spurious violation";
    }
  }
  EXPECT_GT(violated_cases, 10) << "test should exercise violated cases";
  // Known incompleteness of the threshold family (it only searches the
  // level sets documented in submodular/separation.hpp): it may miss
  // mixed-level violations, but should catch the large majority.
  EXPECT_LE(threshold_misses * 4, violated_cases);
}

TEST(Separation, LhsSkipsDominatedEntries) {
  World s;
  for (Time t = 1; t <= 6; ++t) s.cov.advance(static_cast<PageId>(t - 1), t);
  FlushSet S = FlushSet::empty(s.cov);
  S.add_flush(0, 5);
  FlushVars phi(3);
  phi.raise_to(0, 3, 0.7);  // t=3 <= max_flush(0)=5: zero marginal
  EXPECT_DOUBLE_EQ(constraint_lhs(S, phi), 0.0);
  phi.raise_to(0, 6, 0.5);  // beyond the flush: marginal 1 (page 4 of blk0?)
  // block 0 holds pages {0,1}; both requested before 5 -> flushed already.
  // flush at 6 adds nothing new for block 0: wait, pages 0,1 have
  // r = 1,2 < 5, so they are already missing; marginal is 0.
  EXPECT_DOUBLE_EQ(constraint_lhs(S, phi), 0.0);
  phi.raise_to(1, 6, 0.5);  // block 1 pages {2,3}, r = 3,4: g-marginal 2,
  // capped at cap - g = 3 - 2 = 1, so lhs = 1 * 0.5.
  EXPECT_DOUBLE_EQ(constraint_lhs(S, phi), 0.5);
}

/// Reference twin of ThresholdSeparation's level sweep, by the definition:
/// sort and net the live phi values, then rebuild S' and re-evaluate
/// constraint_lhs entry by entry for every threshold.
class RescanThreshold final : public SeparationOracle {
 public:
  explicit RescanThreshold(double tolerance = 1e-9) : tolerance_(tolerance) {}

  std::optional<Violation> find_violated(const FlushSet& S,
                                         const FlushVars& phi) override {
    const FlushCoverage& cov = S.coverage();
    const auto live = [&](BlockId b) {
      const auto& list = phi.entries(b);
      return std::upper_bound(
          list.begin(), list.end(), S.max_flush(b),
          [](Time t, const FlushVars::Entry& e) { return t < e.t; });
    };
    std::vector<double> thresholds;
    for (BlockId b = 0; b < cov.blocks().n_blocks(); ++b)
      for (auto it = live(b); it != phi.entries(b).end(); ++it)
        if (it->phi > 0) thresholds.push_back(it->phi);
    std::sort(thresholds.begin(), thresholds.end(), std::greater<>());
    thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                     thresholds.end());
    if (thresholds.size() > 40) {
      ++netted_calls;
      std::vector<double> netted;
      double last = std::numeric_limits<double>::infinity();
      for (double v : thresholds) {
        if (v <= last / 1.3) {
          netted.push_back(v);
          last = v;
        }
      }
      if (!netted.empty() && netted.back() != thresholds.back())
        netted.push_back(thresholds.back());
      thresholds = std::move(netted);
    }

    if (auto v = check(S, phi)) return v;
    for (double theta : thresholds) {
      FlushSet sprime = S;
      for (BlockId b = 0; b < cov.blocks().n_blocks(); ++b) {
        Time best_t = kNeverRequested;
        for (auto it = live(b); it != phi.entries(b).end(); ++it)
          if (it->phi >= theta) best_t = std::max(best_t, it->t);
        if (best_t != kNeverRequested) sprime.add_flush(b, best_t);
      }
      if (auto v = check(sprime, phi)) return v;
    }
    return std::nullopt;
  }

  int netted_calls = 0;  ///< calls with > 40 distinct live values

 private:
  std::optional<Violation> check(const FlushSet& sprime,
                                 const FlushVars& phi) const {
    const double rhs =
        static_cast<double>(sprime.coverage().cap() - sprime.f());
    if (rhs <= 0) return std::nullopt;
    const double lhs = constraint_lhs(sprime, phi);
    if (lhs < rhs - tolerance_) return Violation{sprime, lhs, rhs};
    return std::nullopt;
  }

  double tolerance_;
};

/// Forwards to ThresholdSeparation and checks every answer against the
/// rescan twin, at the default tolerance and at one that puts the cutoff
/// exactly on S's own LHS (where only the exact sum decides).
class TwinOracle final : public SeparationOracle {
 public:
  std::optional<Violation> find_violated(const FlushSet& S,
                                         const FlushVars& phi) override {
    ++calls;
    auto v = sweep_.find_violated(S, phi);
    compare(S, phi, v, twin_.find_violated(S, phi));
    const double rhs = static_cast<double>(S.coverage().cap() - S.f());
    if (rhs > 0) {
      const double edge = rhs - constraint_lhs(S, phi);
      ThresholdSeparation sweep(edge);
      RescanThreshold twin(edge);
      compare(S, phi, sweep.find_violated(S, phi), twin.find_violated(S, phi));
    }
    if (v) {
      ++violations;
      for (BlockId b = 0; b < S.coverage().blocks().n_blocks(); ++b)
        if (v->sprime.max_flush(b) != S.max_flush(b)) {
          ++past_s;
          break;
        }
    }
    return v;
  }

  int calls = 0;
  int violations = 0;
  int past_s = 0;  ///< violations at some S' != S
  int mismatches = 0;
  [[nodiscard]] int netted_calls() const { return twin_.netted_calls; }

 private:
  void compare(const FlushSet& S, const FlushVars& phi,
               const std::optional<Violation>& got,
               const std::optional<Violation>& want) {
    bool same = got.has_value() == want.has_value();
    if (same && got) {
      const FlushCoverage& cov = S.coverage();
      for (BlockId b = 0; b < cov.blocks().n_blocks(); ++b)
        same = same && got->sprime.max_flush(b) == want->sprime.max_flush(b);
      same = same && got->rhs == want->rhs &&
             std::abs(got->lhs - constraint_lhs(got->sprime, phi)) <= 1e-9;
    }
    if (!same && ++mismatches <= 3)
      ADD_FAILURE() << "sweep and rescan disagree at call " << calls
                    << " (tau " << S.coverage().now() << ")";
  }

  ThresholdSeparation sweep_;
  RescanThreshold twin_;
};

TEST(Separation, LevelSweepMatchesPerThresholdRescan) {
  // Algorithm 2 driven through the twin oracle over zipf and block-local
  // processes, contiguous and weighted maps, beta 2 / 4 / 8: every call
  // must return the rescan's decision, S' and rhs.
  int calls = 0;
  int violations = 0;
  int past_s = 0;
  int netted = 0;
  for (int trial = 0; trial < 24; ++trial) {
    Xoshiro256pp rng(900 + static_cast<std::uint64_t>(trial));
    const int beta = 2 << (trial % 3);
    const int n = beta * (4 + static_cast<int>(rng.below(5)));
    const int k = beta + static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(n / 2 - beta + 1)));
    const int n_blocks = n / beta;
    const BlockMap blocks =
        (trial / 3) % 2 == 0
            ? BlockMap::contiguous(n, beta)
            : BlockMap::contiguous_weighted(
                  n, beta, log_uniform_costs(n_blocks, 8.0, rng.substream(1)));
    const Time T = 240;
    const std::vector<PageId> requests =
        (trial / 6) % 2 == 0
            ? zipf_trace(n, T, 0.8, rng.substream(2))
            : block_local_trace(blocks, T, 0.75, 0.9, rng.substream(2));
    auto twin = std::make_unique<TwinOracle>();
    TwinOracle& probe = *twin;
    FractionalBlockAware alg(blocks, k, std::move(twin));
    for (Time t = 1; t <= T; ++t) alg.step(t, requests[t - 1]);
    EXPECT_EQ(probe.mismatches, 0) << "trial " << trial;
    calls += probe.calls;
    violations += probe.violations;
    past_s += probe.past_s;
    netted += probe.netted_calls();
  }
  // The runs must reach both threshold lists (all values, and the net of
  // more than 40) and many violated constraints, at S and past it.
  EXPECT_GT(calls, 8000);
  EXPECT_GT(violations, 3000);
  EXPECT_GT(past_s, 1000);
  EXPECT_GT(netted, 2000);
  EXPECT_LT(netted, calls - 2000);
}

TEST(Separation, LevelSweepMatchesRescanOnRandomStates) {
  // Random (S, phi) states outside Algorithm 2's dynamics: phi values from
  // a small pool (many entries, few distinct values) or spread over many
  // binades, S empty or partly flushed, and tolerances from tight to loose.
  int violations = 0;
  for (int trial = 0; trial < 600; ++trial) {
    Xoshiro256pp rng(4100 + static_cast<std::uint64_t>(trial));
    const auto pick = [&](int bound) {
      return static_cast<int>(rng.below(static_cast<std::uint64_t>(bound)));
    };
    const int beta = 2 << (trial % 3);
    const int n = beta * (2 + pick(6));
    const int k = 1 + pick(n);
    const BlockMap blocks = BlockMap::contiguous(n, beta);
    FlushCoverage cov(blocks, k);
    const Time T = 10 + pick(60);
    for (Time t = 1; t <= T; ++t) cov.advance(pick(n), t);

    FlushSet S = (trial % 2 == 0) ? FlushSet::empty(cov) : FlushSet(cov);
    for (int i = pick(3); i > 0; --i) {
      const BlockId b = pick(blocks.n_blocks());
      S.add_flush(b, pick(T + 1));
    }
    FlushVars phi(blocks.n_blocks());
    const int mode = pick(3);
    const int entries = 5 + pick(120);
    for (int i = 0; i < entries; ++i) {
      const double v = mode == 0   ? 0.05 * (1 + pick(12))
                       : mode == 1 ? 0.5 + 0.1 * rng.uniform()  // max, min
                                   : std::ldexp(rng.uniform(), -pick(40));
      const BlockId b = pick(blocks.n_blocks());
      if (v > 0) phi.increase(b, pick(T + 1), v);
    }

    const double tolerance =
        (trial % 4 == 0) ? 0.0 : std::ldexp(1.0, -pick(40));
    ThresholdSeparation sweep(tolerance);
    RescanThreshold twin(tolerance);
    const auto got = sweep.find_violated(S, phi);
    const auto want = twin.find_violated(S, phi);
    ASSERT_EQ(got.has_value(), want.has_value()) << "trial " << trial;
    if (!got) continue;
    ++violations;
    for (BlockId b = 0; b < blocks.n_blocks(); ++b)
      ASSERT_EQ(got->sprime.max_flush(b), want->sprime.max_flush(b))
          << "trial " << trial << " block " << b;
    EXPECT_EQ(got->rhs, want->rhs);
    EXPECT_NEAR(got->lhs, want->lhs, 1e-9);
  }
  EXPECT_GT(violations, 100);
}

}  // namespace
}  // namespace bac
