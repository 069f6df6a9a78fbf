// Synthetic workload generators.
//
// Block-aware caching instances need both a request process and a block
// structure; the processes here produce the request streams the paper's
// motivating scenarios describe (CDN chunks, storage-pool blocks, scans,
// phased working sets) plus the standard Zipf/uniform mixes used across
// the benchmark suite.
//
// SyntheticSource is the one implementation of each process: it yields
// requests lazily with O(n_pages) state, and the *_trace vector forms
// are drains of it (materialize()), so a vector and a stream built from
// the same arguments are the same sequence by construction. All
// randomness is explicit (an Xoshiro256pp start state by value), so
// traces are reproducible from seeds.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/instance.hpp"
#include "core/request_source.hpp"
#include "util/rng.hpp"

namespace bac {

/// One synthetic request process and its parameters.
struct SyntheticSpec {
  enum class Kind { Uniform, Zipf, Scan, Phased, BlockLocal };

  Kind kind = Kind::Uniform;
  double alpha = 0;         ///< Zipf over pages / BlockLocal over blocks
  double stay = 0;          ///< BlockLocal: P(next request stays in block)
  long long phase_len = 0;  ///< Phased: steps per working set
  int ws_size = 0;          ///< Phased: working-set size (clamped to n)

  /// Requests drawn uniformly from [0, n_pages).
  static SyntheticSpec uniform() { return {Kind::Uniform, 0, 0, 0, 0}; }
  /// Zipf(alpha) over pages 0..n-1 (page 0 most popular). alpha = 0 is
  /// uniform; alpha around 0.8..1.2 matches CDN / storage popularity skews.
  static SyntheticSpec zipf(double alpha) {
    return {Kind::Zipf, alpha, 0, 0, 0};
  }
  /// Cyclic sequential scan 0,1,...,n-1,0,1,... — the classic LRU nemesis
  /// when n > k and an easy win for any block-batching policy.
  static SyntheticSpec scan() { return {Kind::Scan, 0, 0, 0, 0}; }
  /// Phased working sets: the trace runs in phases of `phase_len` steps;
  /// each phase draws uniformly from a random working set of `ws_size`
  /// pages.
  static SyntheticSpec phased(long long phase_len, int ws_size) {
    return {Kind::Phased, 0, 0, phase_len, ws_size};
  }
  /// Block-local process: with probability `stay` the next request stays
  /// in the current block (uniform page within it), otherwise a new block
  /// is drawn Zipf(alpha)-distributed over block ids. Models spatial
  /// locality over chunks.
  static SyntheticSpec block_local(double stay, double alpha) {
    return {Kind::BlockLocal, alpha, stay, 0, 0};
  }
};

/// The named workloads of bacsim, bacload and the experiment benches:
///   zipf[alpha]  Zipf(alpha), default 0.9
///   uniform | scan
///   blocklocal   stay 0.75, alpha 0.9
///   phased       phase_len max(1, T/10), working set k + beta
/// Returns nullopt for any other name. Throws std::invalid_argument
/// ("bad zipf spec") when a zipf name's alpha is not a finite number >= 0.
std::optional<SyntheticSpec> named_workload(const std::string& name, int k,
                                            int beta, long long T);

/// Streams T requests of `spec` over `blocks` (cache size k), starting
/// from `rng`. rewind() restores the start state, so every replay is
/// identical. Throws std::invalid_argument when blocks has no pages, T is
/// negative, a phased spec has phase_len <= 0 or ws_size <= 0, or the
/// header is infeasible (k <= 0 or beta > k).
class SyntheticSource final : public RequestSource {
 public:
  SyntheticSource(BlockMap blocks, int k, long long T,
                  const SyntheticSpec& spec, Xoshiro256pp rng);

  [[nodiscard]] const Instance& context() const override { return header_; }
  [[nodiscard]] long long horizon_hint() const override { return T_; }
  bool next(PageId& p) override { return next_batch(&p, 1) == 1; }
  /// One switch on the process kind per batch instead of per request;
  /// draws the exact same RNG sequence as a next() loop.
  int next_batch(PageId* out, int cap) override;
  void rewind() override;

 private:
  /// Inverse-CDF draw over the Zipf table: a rank in [0, cum_.size()).
  int draw_zipf();

  Instance header_;  ///< blocks + k, empty requests
  long long T_;
  SyntheticSpec spec_;
  Xoshiro256pp start_;
  Xoshiro256pp rng_;
  long long t_ = 0;  ///< requests yielded so far

  /// Zipf (over pages) / BlockLocal (over blocks): cumulative popularity
  /// weights 1/(i+1)^alpha.
  std::vector<double> cum_;
  // Phased.
  std::vector<PageId> universe_;
  std::vector<PageId> ws_;
  // BlockLocal.
  BlockId current_block_ = 0;
};

// Vector forms: drains of SyntheticSource. The page-only processes run
// over one block holding all n_pages pages.

std::vector<PageId> uniform_trace(int n_pages, Time T, Xoshiro256pp rng);

std::vector<PageId> zipf_trace(int n_pages, Time T, double alpha,
                               Xoshiro256pp rng);

std::vector<PageId> scan_trace(int n_pages, Time T);

/// ws_size > n_pages clamps to n_pages.
std::vector<PageId> phased_trace(int n_pages, Time T, Time phase_len,
                                 int ws_size, Xoshiro256pp rng);

std::vector<PageId> block_local_trace(const BlockMap& blocks, Time T,
                                      double stay, double alpha,
                                      Xoshiro256pp rng);

/// Block costs log-uniform in [1, aspect_ratio].
std::vector<Cost> log_uniform_costs(int n_blocks, double aspect_ratio,
                                    Xoshiro256pp rng);

/// Bundle a contiguous block structure with a request vector.
Instance make_instance(int n_pages, int block_size, int k,
                       std::vector<PageId> requests);

/// Same with per-block costs.
Instance make_weighted_instance(int n_pages, int block_size, int k,
                                std::vector<PageId> requests,
                                std::vector<Cost> block_costs);

}  // namespace bac
