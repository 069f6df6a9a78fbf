// Algorithm 2: the O(log k)-competitive monotone-incremental fractional
// algorithm for block-aware caching with eviction cost (Theorem 3.6).
//
// While some primal constraint (S', tau) with S' >= S is violated (found by
// a separation oracle), the dual variable y_{S'}^tau rises continuously and
// every *alive* flush (B, t) grows according to the paper's (3.4):
//
//   d phi_B^t / dy = ln(k*beta + 1)/c_B * f_tau((B,t)|S') * (phi_B^t + 1/(k*beta))
//
// until the first alive flush with marginal >= 1 reaches phi = 1 (which is
// exactly when its dual constraint becomes tight — see Lemma 3.8); that
// flush joins the integral set S. The dynamics integrate in closed form,
//   phi(y + d) = (phi(y) + eps) * exp(eta_B * f * d) - eps,
// with eps = 1/(k*beta) and eta_B = ln(k*beta+1)/c_B, so each iteration
// computes the minimal tightening d over the alive candidates directly; no
// numerical ODE stepping is involved.
//
// The solution only ever increases (monotone-incremental); all increments
// are reported per step so the online rounding (Algorithm 3) can consume
// them without seeing the future.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/policy.hpp"
#include "submodular/flush_coverage.hpp"
#include "submodular/flush_vars.hpp"
#include "submodular/separation.hpp"

namespace bac {

struct FractionalIncrement {
  BlockId b = 0;
  Time t = 0;         ///< the flush variable's time index (may be < tau)
  double delta = 0;   ///< amount added
  double new_value = 0;
};

class FractionalBlockAware {
 public:
  /// `oracle` defaults to ThresholdSeparation. k and beta come from the
  /// instance structure.
  FractionalBlockAware(const BlockMap& blocks, int k,
                       std::unique_ptr<SeparationOracle> oracle = nullptr);

  /// Serve the request to p at time t; returns this step's increments.
  const std::vector<FractionalIncrement>& step(Time t, PageId p);

  /// Fractional eviction cost sum c_B phi_B^t over t >= 1.
  [[nodiscard]] double fractional_cost() const {
    return vars_.total_cost(*blocks_);
  }
  /// Feasible dual objective (lower bound on fractional OPT).
  [[nodiscard]] double dual_objective() const noexcept { return dual_obj_; }
  [[nodiscard]] const FlushVars& vars() const noexcept { return vars_; }
  [[nodiscard]] const FlushSet& integral_set() const { return *S_; }
  [[nodiscard]] const FlushCoverage& coverage() const { return *cov_; }
  /// Flushes integrally chosen so far (excluding the free time-0 ones).
  [[nodiscard]] long long integral_flushes() const noexcept {
    return integral_flushes_;
  }

 private:
  const BlockMap* blocks_;
  int k_;
  double eps_;      // 1/(k*beta)
  double log_term_; // ln(k*beta + 1)
  std::unique_ptr<SeparationOracle> oracle_;
  std::optional<FlushCoverage> cov_;
  std::optional<FlushSet> S_;
  FlushVars vars_;
  double dual_obj_ = 0;
  long long integral_flushes_ = 0;
  std::vector<FractionalIncrement> increments_;

  /// An alive flush with positive capped marginal w.r.t. the violated S'.
  struct Candidate {
    BlockId b;
    Time t;
    int coeff;  // capped marginal w.r.t. S'
    double phi;
  };
  std::vector<Candidate> alive_;  // reused by every while-loop iteration
};

}  // namespace bac
