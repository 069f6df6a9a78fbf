// Randomized instance generation for differential fuzz-verification.
//
// Every fuzz seed maps deterministically to one block-aware caching
// instance: a block structure (singleton / uniform / skewed / single-block
// shapes), per-block costs (unit, exact-dyadic weighted, or log-uniform),
// a cache size (including the k = beta and k > n edges), and a request
// stream drawn from the full generator line-up (uniform, zipf, scan,
// phased, block-local) — plus deliberately thin edges such as T < k and
// T = 0 that one-at-a-time tests historically missed (the phased_trace
// division by zero survived three PRs).
//
// The requests are a drain of one SyntheticSource, and the
// GeneratedInstance carries a factory for the same source (same block
// map, costs, process and seed), which the streaming≡materialized oracle
// replays against the materialized run — for every generated shape.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/instance.hpp"
#include "core/request_source.hpp"

namespace bac::verify {

struct GenOptions {
  int max_pages = 48;
  long long max_T = 320;
  /// Smoke tier for CI: tiny universes so 500 seeds finish in seconds.
  bool tiny = false;
};

struct GeneratedInstance {
  Instance inst;
  std::string descriptor;  ///< human-readable recipe, lands in repro artifacts
  /// Reproduces the request stream as a streaming source (same process,
  /// same seed, bit-for-bit). Set for every generated instance; null only
  /// for instances that were not generated (replayed or shrunk ones).
  std::function<std::unique_ptr<RequestSource>()> streaming_twin;
};

/// Deterministic: the same (seed, options) always yields the same instance.
GeneratedInstance random_instance(std::uint64_t seed,
                                  const GenOptions& options = {});

}  // namespace bac::verify
