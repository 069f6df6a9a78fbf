// Policy interfaces and the cache-operations facade handed to policies.
//
// A policy serves each request by mutating the cache through CacheOps;
// the PolicyStepper (core/step.hpp) that drives it owns the actual cache
// state and cost meter, audits feasibility after every step, and meters
// costs under both cost models.
// Offline algorithms receive the full Instance in reset() and may read the
// future; online algorithms must only use what they have seen (the tests
// include a prefix-consistency check for the online ones).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/cache_set.hpp"
#include "core/cost_meter.hpp"
#include "core/instance.hpp"
#include "core/types.hpp"

namespace bac::obs {
class MetricRegistry;
}  // namespace bac::obs

namespace bac {

/// Mutating facade over the stepper's cache; all costs flow through here.
class CacheOps {
 public:
  CacheOps(const BlockMap& blocks, CacheSet& cache, CostMeter& meter, int k)
      : blocks_(&blocks), cache_(&cache), meter_(&meter), k_(k) {}

  [[nodiscard]] bool contains(PageId p) const noexcept {
    return cache_->contains(p);
  }
  [[nodiscard]] int size() const noexcept { return cache_->size(); }
  [[nodiscard]] int capacity() const noexcept { return k_; }
  [[nodiscard]] const std::vector<PageId>& pages() const noexcept {
    return cache_->pages();
  }
  [[nodiscard]] const BlockMap& blocks() const noexcept { return *blocks_; }

  /// Insert p, charging the fetch side of its block (no-op if present).
  void fetch(PageId p) {
    if (cache_->insert(p)) {
      meter_->on_fetch(p);
      if (capture_fetches_) capture_note(p, *capture_fetches_, *capture_evictions_);
    }
  }

  /// Remove p, charging the eviction side of its block (no-op if absent).
  void evict(PageId p) {
    if (cache_->erase(p)) {
      meter_->on_evict(p);
      if (capture_evictions_) capture_note(p, *capture_evictions_, *capture_fetches_);
    }
  }

  /// Route effective fetches/evictions into the given vectors (used by the
  /// simulator's schedule capture; pass nullptrs to disable). Captured
  /// steps record the *net* page movement: a fetch-then-evict of the same
  /// page within one step cancels out, so replays are state-exact (the
  /// transient's cost is still metered on the live run but not by a
  /// replay — no policy in this library exhibits that pattern except a
  /// corner of BlockLRU+Prefetch). Cancellation is O(1) per event via
  /// per-page slots stamped with the capture epoch; a cancelled entry is
  /// swap-removed, so order *within* a step's eviction/fetch lists is
  /// unspecified (replay semantics are order-independent within a step).
  /// Each call starts a new step (epoch); every step must get fresh
  /// target vectors.
  void set_capture(std::vector<PageId>* evictions,
                   std::vector<PageId>* fetches) {
    capture_evictions_ = evictions;
    capture_fetches_ = fetches;
    if (evictions || fetches) {
      ++capture_epoch_;
      if (capture_slots_.empty())
        capture_slots_.resize(
            static_cast<std::size_t>(blocks_->n_pages()));
    }
  }

  /// Fetch-then-evict (or evict-then-fetch) pairs of the same page within
  /// one step that were netted out of the captured schedule. When 0, a
  /// replay of the capture is cost-exact, not just state-exact.
  [[nodiscard]] long long capture_cancellations() const noexcept {
    return capture_cancellations_;
  }

  /// Evict every cached page of block b except `keep` (pass -1 to evict
  /// all). Returns the number of pages evicted. This is the paper's "flush".
  int flush_block(BlockId b, PageId keep = -1) {
    int evicted = 0;
    for (PageId p : blocks_->pages_in(b)) {
      if (p == keep) continue;
      if (cache_->contains(p)) {
        evict(p);
        ++evicted;
      }
    }
    return evicted;
  }

 private:
  /// Where (if anywhere) page p currently sits in this step's capture.
  struct CaptureSlot {
    std::uint64_t epoch = 0;  ///< stamp; stale unless == capture_epoch_
    std::uint32_t index = 0;  ///< position within the list it sits in
    bool in_evictions = false;
  };

  /// Record p landing in `add`; if p already sits in `cancel` this step,
  /// the pair nets out instead. O(1): the slot stamp replaces the linear
  /// scan that made flush-heavy record_schedule runs quadratic per step.
  void capture_note(PageId p, std::vector<PageId>& add,
                    std::vector<PageId>& cancel) {
    CaptureSlot& slot = capture_slots_[static_cast<std::size_t>(p)];
    const bool adding_eviction = &add == capture_evictions_;
    if (slot.epoch == capture_epoch_ &&
        slot.in_evictions != adding_eviction) {
      // Net no-op within this step: swap-remove from the opposite list.
      const std::uint32_t i = slot.index;
      const PageId moved = cancel.back();
      cancel[i] = moved;
      cancel.pop_back();
      if (moved != p)
        capture_slots_[static_cast<std::size_t>(moved)].index = i;
      slot.epoch = 0;
      ++capture_cancellations_;
      return;
    }
    slot.epoch = capture_epoch_;
    slot.index = static_cast<std::uint32_t>(add.size());
    slot.in_evictions = adding_eviction;
    add.push_back(p);
  }

  const BlockMap* blocks_;
  CacheSet* cache_;
  CostMeter* meter_;
  int k_;
  std::vector<PageId>* capture_evictions_ = nullptr;
  std::vector<PageId>* capture_fetches_ = nullptr;
  std::vector<CaptureSlot> capture_slots_;  ///< per page, sized lazily
  std::uint64_t capture_epoch_ = 0;
  long long capture_cancellations_ = 0;
};

class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before a run. Offline policies may precompute from the
  /// full instance here.
  virtual void reset(const Instance& inst) = 0;

  /// Reseed internal randomness (no-op for deterministic policies).
  virtual void seed(std::uint64_t /*seed*/) {}

  /// Serve the request to page p at time t. Postconditions audited by the
  /// simulator: p is cached and size() <= capacity().
  virtual void on_request(Time t, PageId p, CacheOps& cache) = 0;

  /// True for policies whose behaviour depends on seed() (Monte-Carlo
  /// trials are only meaningful for these).
  [[nodiscard]] virtual bool randomized() const { return false; }

  /// True for offline policies that read the future out of reset()'s
  /// Instance; the simulator refuses to run them over non-materialized
  /// streaming sources, whose context carries no request vector.
  [[nodiscard]] virtual bool requires_future() const { return false; }

  /// Fresh copy for parallel Monte-Carlo trials and the sharded server,
  /// or nullptr when the policy is not cloneable (simulate_mc then falls
  /// back to serial trials; the server refuses to construct). Clones are
  /// only valid after a reset() — copied internal pointers may still
  /// reference the original's state until then.
  ///
  /// Concurrency contract: after reset() (and seed(), if randomized),
  /// a clone must share no mutable state with its prototype or with
  /// sibling clones, so distinct clones may serve requests from distinct
  /// threads concurrently without synchronization. Shared immutable state
  /// (e.g. the Instance passed to reset()) is fine.
  [[nodiscard]] virtual std::unique_ptr<OnlinePolicy> clone() const {
    return nullptr;
  }

  /// Fold the policy's structural counters (ghost hits, hand sweeps, ARC
  /// target adjustments, block batch-evictions, ...) into a metric
  /// registry. Counters must count events of the policy's own run only —
  /// the bacobs determinism contract — so per-shard clones can be summed
  /// and stay bit-identical across thread counts. Default: exports
  /// nothing (most classical policies have no structural counters).
  virtual void export_metrics(obs::MetricRegistry& /*registry*/) const {}
};

}  // namespace bac
