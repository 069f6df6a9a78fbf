#include "server/shard.hpp"

#include "util/timer.hpp"

namespace bac::server {

CacheShard::CacheShard(const Instance& header,
                       std::unique_ptr<OnlinePolicy> policy,
                       std::uint64_t seed)
    : header_(&header),
      policy_(std::move(policy)),
      stepper_(header, *policy_, seed) {}

bool CacheShard::get(PageId p) { return get_batch(&p, 1) == 1; }

long long CacheShard::get_batch(const PageId* ps, int n) {
  if (n <= 0) return 0;
  // One clock read per request (end of request i starts request i+1).
  // The first request's latency includes the lock wait: under closed-loop
  // load the queueing delay at a hot shard is part of the service time a
  // client observes. Recording per request — not one sample of the batch
  // mean — is what makes the p99/p999 of latency_us_ meaningful: a single
  // slow request in a 512-batch must show up in the tail, not be diluted
  // 512-fold.
  // baclint: hot-path — the per-request eviction path must stay allocation-free
  const Stopwatch clock;
  MutexLock lock(mutex_);
  const double lock_wait_us = clock.micros();
  double prev_us = 0.0;
  long long batch_hits = 0;
  for (int i = 0; i < n; ++i) {
    if (stepper_.serve(ps[i])) {
      ++hits_;
      ++batch_hits;
    } else {
      ++misses_;
    }
    const double now_us = clock.micros();
    latency_us_.add(now_us - prev_us);
    prev_us = now_us;
  }
  lock_wait_us_.add(lock_wait_us);
  return batch_hits;
}

ShardSnapshot CacheShard::snapshot() const {
  MutexLock lock(mutex_);
  ShardSnapshot s;
  s.requests = hits_ + misses_;
  s.hits = hits_;
  s.misses = misses_;
  const CostMeter& meter = stepper_.meter();
  s.eviction_cost = meter.eviction_cost();
  s.fetch_cost = meter.fetch_cost();
  s.classic_eviction_cost = meter.classic_eviction_cost();
  s.classic_fetch_cost = meter.classic_fetch_cost();
  s.evict_block_events = meter.evict_block_events();
  s.fetch_block_events = meter.fetch_block_events();
  s.evicted_pages = meter.evicted_pages();
  s.fetched_pages = meter.fetched_pages();
  s.cached_pages = stepper_.cache().size();
  s.capacity = header_->k;
  s.latency_us = latency_us_;
  s.lock_wait_us = lock_wait_us_;
  if (s.requests > 0) {
    s.lat_p50_us = s.latency_us.quantile(0.50);
    s.lat_p99_us = s.latency_us.quantile(0.99);
    s.lat_mean_us = s.latency_us.mean();
    s.lat_max_us = s.latency_us.max();
  }
  return s;
}

void CacheShard::export_policy_metrics(obs::MetricRegistry& registry) const {
  MutexLock lock(mutex_);
  policy_->export_metrics(registry);
}

}  // namespace bac::server
