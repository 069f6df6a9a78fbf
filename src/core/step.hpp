// One request step of the paper's model (Section 2), shared by every
// caller that runs an online policy: the replay simulator
// (core/simulator), a server shard (server/shard) and the adaptive
// adversary (trace/adversarial).
//
// A step advances the clock, opens a fresh batching window in the cost
// meter (each block's evictions and fetches within one step are charged
// once), hands the request to the policy, and audits the result: the
// requested page must be cached and the cache must hold at most k pages.
// A policy that breaks either rule is a bug, so the audit throws.
#pragma once

#include <cstdint>
#include <limits>

#include "core/cache_set.hpp"
#include "core/cost_meter.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "core/types.hpp"

namespace bac {

class PolicyStepper {
 public:
  /// `ctx` supplies the block map and the capacity k (its requests are
  /// not read); it and `policy` must outlive the stepper. The cache starts
  /// empty and the policy is reset(ctx) then seed(seed).
  PolicyStepper(const Instance& ctx, OnlinePolicy& policy, std::uint64_t seed);

  // ops_ points into cache_/meter_; the stepper must never move.
  PolicyStepper(const PolicyStepper&) = delete;
  PolicyStepper& operator=(const PolicyStepper&) = delete;

  /// Serve the next request as one time step; true on a hit (p was cached
  /// before the step). Throws std::runtime_error when the stream outgrows
  /// the 32-bit Time, or when the policy leaves p uncached or holds more
  /// than k pages. `p` must be a page of the context.
  bool serve(PageId p) {
    if (t_ == std::numeric_limits<Time>::max()) throw_time_ceiling();
    ++t_;
    meter_.begin_step(t_);
    const bool hit = cache_.contains(p);
    policy_->on_request(t_, p, ops_);
    if (!cache_.contains(p) || cache_.size() > k_) throw_infeasible(p);
    return hit;
  }

  /// The policy's facade; set_capture on it records the next steps.
  [[nodiscard]] CacheOps& ops() noexcept { return ops_; }
  [[nodiscard]] const CacheSet& cache() const noexcept { return cache_; }
  [[nodiscard]] const CostMeter& meter() const noexcept { return meter_; }
  /// Steps served so far (the time of the last step).
  [[nodiscard]] Time now() const noexcept { return t_; }

 private:
  [[noreturn]] static void throw_time_ceiling();
  [[noreturn]] void throw_infeasible(PageId p) const;

  OnlinePolicy* policy_;
  int k_;
  CacheSet cache_;
  CostMeter meter_;
  CacheOps ops_;
  Time t_ = 0;
};

}  // namespace bac
