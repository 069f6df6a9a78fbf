// Separation oracles for the submodular-cover LP (P) at the current tau.
//
// The primal constraint for a flush set S' and the current time tau is
//     sum_{(B,t)} f_tau((B,t) | S') * phi_B^t  >=  (n - k) - f_tau(S').
// Deciding feasibility over *all* S' is not polynomial in general; the
// paper's fractional algorithm only ever needs constraints for S' >= S
// where S is the set of integrally-chosen flushes (Claim 3.10). Following
// the round-or-separate viewpoint of [GL20b], ThresholdSeparation searches
// the family { S } and { S + all entries with phi >= theta } over the
// distinct entry values theta; ExhaustiveSeparation enumerates every
// relevant per-block max-flush combination (exponential; tests only).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "submodular/flush_coverage.hpp"
#include "submodular/flush_vars.hpp"

namespace bac {

struct Violation {
  FlushSet sprime;  ///< the violated constraint's S'
  double lhs = 0;   ///< sum of capped marginals times phi
  double rhs = 0;   ///< (n-k) - f_tau(S')
  [[nodiscard]] double amount() const noexcept { return rhs - lhs; }
};

/// LHS of the constraint (S', tau): entries with time <= the block's max
/// flush in S' contribute zero (their capped marginal vanishes).
[[nodiscard]] double constraint_lhs(const FlushSet& sprime,
                                    const FlushVars& phi);

class SeparationOracle {
 public:
  virtual ~SeparationOracle() = default;
  /// Find some violated constraint (S', tau) with S' >= S, or nullopt.
  virtual std::optional<Violation> find_violated(const FlushSet& S,
                                                 const FlushVars& phi) = 0;
};

/// Checks S, then S + (per block, the latest live entry with phi >= theta)
/// for each theta of a net of the live phi values: all distinct values
/// when there are at most 40, else the largest value, then repeatedly the
/// largest value <= last / 1.3, then the smallest. Returns the first
/// violated constraint in that order.
///
/// An entry's capped marginal depends only on its coverage *level*
/// count_below(b, t), which takes at most beta + 1 values per block. A call
/// makes one merge pass over the live entries (building per-level phi sums,
/// per-block "staircases" of the entries whose phi beats every later
/// entry's, and the net from a counting sort into buckets narrower than
/// 1.3 instead of a full sort), then sweeps theta downwards moving one
/// pointer per block. Each S' with new levels costs O(n) from the level
/// sums. O(live entries + thresholds * n) per call; scratch buffers are
/// members, so a call does not allocate once they have grown. The LHS is
/// summed by level rather than by entry; a value close enough to the
/// cutoff for that rounding difference to flip the decision is re-evaluated
/// with constraint_lhs (bench/DESIGN.md has the argument).
class ThresholdSeparation final : public SeparationOracle {
 public:
  /// `tolerance`: constraints violated by less than this are ignored
  /// (guards against floating-point churn in the closed-form updates).
  explicit ThresholdSeparation(double tolerance = 1e-9)
      : tolerance_(tolerance) {}
  std::optional<Violation> find_violated(const FlushSet& S,
                                         const FlushVars& phi) override;

 private:
  struct Step {
    Time t;
    int level;
    double phi;
  };
  /// Fill thresholds_ from values_ (descending).
  void net_thresholds();
  /// LHS of the current S' (levels level_, g-value g) from the level sums.
  [[nodiscard]] double level_lhs(int cap, int g) const;

  double tolerance_;
  std::vector<double> values_;       // live phi values (unordered)
  std::vector<double> thresholds_;   // the thetas, descending
  std::vector<double> level_phi_;    // per block and level: summed phi
  std::vector<std::size_t> level_off_;  // block b's levels start here
  std::vector<Step> stairs_;         // per block: phi falls as t rises
  std::vector<std::size_t> stair_off_;  // block b's steps start here
  std::vector<std::size_t> stair_pos_;  // steps with phi >= theta so far
  std::vector<int> level_;           // per block: level of S'
  std::vector<double> binned_;       // values_ grouped by bucket
  std::vector<std::uint32_t> bin_start_;  // per value bucket; zero at rest
};

/// Exhaustive search over per-block max-flush-time combinations drawn from
/// entry times and alive times. Exponential in the number of blocks —
/// only for validating the other oracles on small instances.
class ExhaustiveSeparation final : public SeparationOracle {
 public:
  explicit ExhaustiveSeparation(double tolerance = 1e-9)
      : tolerance_(tolerance) {}
  std::optional<Violation> find_violated(const FlushSet& S,
                                         const FlushVars& phi) override;

 private:
  double tolerance_;
};

/// *Exact* polynomial-time separation. Because the uncapped coverage g_tau
/// decomposes as a sum of per-block terms that depend only on the block's
/// maximum flush time, a constraint (S', tau) is determined by the vector
/// of per-block max flush times and couples across blocks only through
/// G = g_tau(S'). For each target G < n-k, a knapsack DP over blocks
/// minimizes the constraint LHS among all S' with g(S') = G (per-block
/// candidate times are the alive times, entry times and `now`); the most
/// negative slack over G is the most violated constraint. O(n * n_blocks *
/// candidates * entries) per call — heavier than ThresholdSeparation but
/// complete; used by tests and available for exact experiment runs.
class DpSeparation final : public SeparationOracle {
 public:
  explicit DpSeparation(double tolerance = 1e-9) : tolerance_(tolerance) {}
  std::optional<Violation> find_violated(const FlushSet& S,
                                         const FlushVars& phi) override;

 private:
  double tolerance_;
};

}  // namespace bac
