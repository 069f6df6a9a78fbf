#include "core/step.hpp"

#include <stdexcept>
#include <string>

namespace bac {

PolicyStepper::PolicyStepper(const Instance& ctx, OnlinePolicy& policy,
                             std::uint64_t seed)
    : policy_(&policy),
      k_(ctx.k),
      cache_(ctx.n_pages()),
      meter_(ctx.blocks),
      ops_(ctx.blocks, cache_, meter_, ctx.k) {
  policy_->reset(ctx);
  policy_->seed(seed);
}

void PolicyStepper::throw_time_ceiling() {
  // Time is 32-bit throughout the policy layer; refuse to wrap rather
  // than hand policies negative timestamps.
  throw std::runtime_error(
      "request stream exceeds 2^31-1 steps (Time is 32-bit)");
}

void PolicyStepper::throw_infeasible(PageId p) const {
  const std::string where = " at t=" + std::to_string(t_);
  if (!cache_.contains(p))
    throw std::runtime_error("policy " + policy_->name() +
                             " left requested page " + std::to_string(p) +
                             " uncached" + where);
  throw std::runtime_error("policy " + policy_->name() +
                           " exceeded capacity k=" + std::to_string(k_) +
                           where);
}

}  // namespace bac
