#include "algs/fractional.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

namespace bac {

FractionalBlockAware::FractionalBlockAware(
    const BlockMap& blocks, int k, std::unique_ptr<SeparationOracle> oracle)
    : blocks_(&blocks),
      k_(k),
      eps_(1.0 / (static_cast<double>(k) * blocks.beta())),
      log_term_(std::log(static_cast<double>(k) * blocks.beta() + 1.0)),
      oracle_(oracle ? std::move(oracle)
                     : std::make_unique<ThresholdSeparation>()),
      vars_(blocks.n_blocks()) {
  cov_.emplace(blocks, k);
  S_.emplace(*cov_);  // S = {(B, 0)}: free initial clear
  for (BlockId b = 0; b < blocks.n_blocks(); ++b) vars_.raise_to(b, 0, 1.0);
}

const std::vector<FractionalIncrement>& FractionalBlockAware::step(Time t,
                                                                   PageId p) {
  increments_.clear();
  FlushSet* sets[] = {&*S_};
  cov_->advance(p, t, sets);

  // Paranoia bound: adoptions raise g(S) by >= 1 (capped at n) and
  // saturation iterations strictly satisfy the oracle's constraint, so the
  // loop terminates; the generous cap guards against numerical stalls.
  const int max_iters = 20 * cov_->n() + 200;
  for (int iter = 0;; ++iter) {
    if (iter > max_iters)
      throw std::logic_error("FractionalBlockAware: while-loop not converging");

    const auto violation = oracle_->find_violated(*S_, vars_);
    if (!violation) break;
    const FlushSet& sprime = violation->sprime;

    // Gather alive flushes and their capped marginals w.r.t. S', block by
    // block in ascending time. The alive times are r + 1 over the block's
    // sorted last requests (0 for never-requested pages), and the count of
    // requests below r + 1 is the end of r's run in that list.
    alive_.clear();
    const int room = cov_->cap() - sprime.g();  // f-marginal cap
    for (BlockId b = 0; room > 0 && b < blocks_->n_blocks(); ++b) {
      const std::span<const Time> last = cov_->sorted_last(b);
      const Time m = sprime.max_flush(b);
      const int base = m == kNeverRequested ? 0 : cov_->count_below(b, m);
      for (std::size_t i = 0; i < last.size();) {
        const Time r = last[i];
        while (i < last.size() && last[i] == r) ++i;
        const Time at = r == kNeverRequested ? 0 : r + 1;
        // A flush strictly in the future is untouchable; one at or before
        // S''s max flush has marginal 0.
        if (at > t || at <= m) continue;
        const int coeff = std::min(static_cast<int>(i) - base, room);
        if (coeff <= 0) continue;
        alive_.push_back({b, at, coeff, vars_.get(b, at)});
      }
    }

    // d_tight: minimal dual increase making some alive flush with
    // coeff >= 1 reach phi = 1 (its dual constraint tightens then).
    double d_tight = std::numeric_limits<double>::infinity();
    std::size_t chosen = alive_.size();
    for (std::size_t i = 0; i < alive_.size(); ++i) {
      const Candidate& c = alive_[i];
      if (c.phi >= 1.0 - 1e-12) {
        // Already fully evicted fractionally but not yet in S: adopt it
        // immediately (d = 0).
        d_tight = 0.0;
        chosen = i;
        break;
      }
      const double eta = log_term_ / blocks_->cost(c.b);
      const double d =
          std::log((1.0 + eps_) / (c.phi + eps_)) / (eta * c.coeff);
      if (d < d_tight) {
        d_tight = d;
        chosen = i;
      }
    }
    if (chosen == alive_.size())
      throw std::logic_error(
          "FractionalBlockAware: violated constraint but no alive candidate");

    // d_sat: the dual increase at which the violated constraint becomes
    // exactly satisfied — the paper's continuous while-condition stops the
    // growth there. LHS(d) is monotone; bisect. (Without this cutoff every
    // candidate would grow all the way to phi = 1, inflating the primal by
    // a Theta(k) factor — see Lemma 3.11's inequality (3.6), which is only
    // valid while the constraint is violated.)
    const double rhs = violation->rhs;
    auto lhs_at = [&](double d) {
      double lhs = 0;
      for (const Candidate& c : alive_) {
        const double eta = log_term_ / blocks_->cost(c.b);
        const double phi =
            std::min(1.0, (c.phi + eps_) * std::exp(eta * c.coeff * d) - eps_);
        lhs += static_cast<double>(c.coeff) * phi;
      }
      return lhs;
    };
    double dstar = d_tight;
    bool adopt = true;
    if (d_tight > 0 && lhs_at(d_tight) >= rhs) {
      adopt = false;  // saturation happens first; no variable reaches 1
      double lo = 0.0, hi = d_tight;
      for (int iter = 0; iter < 64; ++iter) {
        const double mid = 0.5 * (lo + hi);
        if (lhs_at(mid) < rhs) lo = mid;
        else hi = mid;
      }
      dstar = hi;
      if (dstar < 1e-13) adopt = true;  // numeric stall: force progress
    }

    // Apply the closed-form growth to every alive flush.
    if (dstar > 0) {
      for (const Candidate& c : alive_) {
        const double eta = log_term_ / blocks_->cost(c.b);
        double phi_new =
            (c.phi + eps_) * std::exp(eta * c.coeff * dstar) - eps_;
        phi_new = std::min(phi_new, 1.0);
        const double delta = phi_new - c.phi;
        if (delta > 0) {
          vars_.increase(c.b, c.t, delta);
          increments_.push_back({c.b, c.t, delta, phi_new});
        }
      }
      dual_obj_ += dstar * static_cast<double>(cov_->cap() - sprime.f());
    }

    if (adopt) {
      // The tight flush becomes integral.
      const Candidate& win = alive_[chosen];
      const double topup = vars_.raise_to(win.b, win.t, 1.0);
      if (topup > 0) increments_.push_back({win.b, win.t, topup, 1.0});
      S_->add_flush(win.b, win.t);
      ++integral_flushes_;
    }
  }
  return increments_;
}

}  // namespace bac
