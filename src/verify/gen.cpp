#include "verify/gen.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "trace/generators.hpp"
#include "util/rng.hpp"

namespace bac::verify {

namespace {

/// Exactly representable cost ladder so golden numbers and oracle sums
/// never depend on transcendental libm behaviour.
constexpr Cost kDyadicCosts[] = {0.5, 1.0, 2.0, 4.0, 8.0};

std::string shape_name(int shape) {
  switch (shape) {
    case 0: return "singleton";
    case 1: return "uniform";
    case 2: return "skewed";
    default: return "singleblock";
  }
}

}  // namespace

GeneratedInstance random_instance(std::uint64_t seed,
                                  const GenOptions& options) {
  const std::uint64_t fuzz_seed = seed;
  Xoshiro256pp rng(seed ^ 0x626163667a7aULL);  // "bacfzz"
  const int max_pages = options.tiny ? 16 : options.max_pages;
  const long long max_T = options.tiny ? 96 : options.max_T;

  // --- universe size: skew toward tiny so exact oracles apply often.
  int n;
  if (rng.bernoulli(0.45))
    n = 1 + static_cast<int>(rng.below(10));  // tiny tier: exact OPT / LP
  else
    n = 2 + static_cast<int>(rng.below(static_cast<std::uint64_t>(
            std::max(1, max_pages - 1))));

  // --- block shape.
  const int shape = static_cast<int>(rng.below(4));
  std::vector<BlockId> page_to_block(static_cast<std::size_t>(n));
  int m = 0;          // number of blocks
  int block_size = 1; // contiguous uniform size, when applicable
  bool contiguous_uniform = false;
  switch (shape) {
    case 0:  // singleton blocks: classic (weighted) paging
      block_size = 1;
      m = n;
      contiguous_uniform = true;
      break;
    case 1:  // contiguous uniform blocks of a random size
      block_size = 1 + static_cast<int>(
          rng.below(static_cast<std::uint64_t>(std::min(8, n))));
      m = (n + block_size - 1) / block_size;
      contiguous_uniform = true;
      break;
    case 2: {  // skewed: random page -> block assignment, random m
      m = 1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      // Guarantee every block non-empty-ish by seeding one page per block
      // when possible; the rest land Zipf-ish on low block ids.
      for (int p = 0; p < n; ++p) {
        if (p < m) {
          page_to_block[static_cast<std::size_t>(p)] = p;
        } else {
          const auto r = rng.below(static_cast<std::uint64_t>(m));
          const auto s = rng.below(static_cast<std::uint64_t>(m));
          page_to_block[static_cast<std::size_t>(p)] =
              static_cast<BlockId>(std::min(r, s));  // skew to low ids
        }
      }
      break;
    }
    default:  // one block holding the whole universe
      m = 1;
      for (auto& b : page_to_block) b = 0;
      break;
  }

  // --- costs: unit, exact dyadic weighted, or log-uniform.
  std::vector<Cost> costs(static_cast<std::size_t>(m), 1.0);
  std::string cost_kind = "unit";
  const int cost_pick = static_cast<int>(rng.below(10));
  if (cost_pick >= 7) {
    cost_kind = "dyadic";
    for (auto& c : costs) c = kDyadicCosts[rng.below(5)];
  } else if (cost_pick >= 5) {
    cost_kind = "loguniform";
    costs = log_uniform_costs(m, 16.0, rng.substream(1));
  }

  // Skewed and single-block shapes carry an explicit assignment; the
  // contiguous shapes rebuild it from (n, block_size).
  const BlockMap blocks =
      contiguous_uniform
          ? BlockMap::contiguous_weighted(n, block_size, std::move(costs))
          : BlockMap(std::move(page_to_block), std::move(costs));
  const int beta = blocks.beta();

  // --- cache size: k = beta edge, k > n edge, or random in [beta, n].
  int k;
  const int k_pick = static_cast<int>(rng.below(10));
  if (k_pick < 3 || beta >= n) {
    k = beta;  // tightest feasible cache
  } else if (k_pick < 4) {
    k = n + 1 + static_cast<int>(rng.below(4));  // cache exceeds universe
  } else {
    k = beta + static_cast<int>(rng.below(
            static_cast<std::uint64_t>(n - beta) + 1));
  }

  // --- horizon: T = 0 and T < k edges kept deliberately common.
  long long T;
  const int t_pick = static_cast<int>(rng.below(20));
  if (t_pick == 0) {
    T = 0;
  } else if (t_pick <= 3) {
    T = rng.below(static_cast<std::uint64_t>(k) + 1);  // T <= k
  } else {
    T = 1 + static_cast<long long>(
            rng.below(static_cast<std::uint64_t>(max_T)));
  }

  // --- request stream: one process description yields both the
  // materialized requests and the streaming twin.
  const Xoshiro256pp trace_rng(splitmix64(seed += 0x9e3779b97f4a7c15ULL));
  const int kind = static_cast<int>(rng.below(5));
  SyntheticSpec spec;
  std::string trace_kind;
  switch (kind) {
    case 0:
      trace_kind = "uniform";
      spec = SyntheticSpec::uniform();
      break;
    case 1:
      trace_kind = "zipf";
      // alpha in {0, .3, .6, .9, 1.2}
      spec = SyntheticSpec::zipf(0.3 * static_cast<double>(rng.below(5)));
      break;
    case 2:
      trace_kind = "scan";
      spec = SyntheticSpec::scan();
      break;
    case 3: {
      trace_kind = "phased";
      const long long phase_len = 1 + static_cast<long long>(rng.below(
          static_cast<std::uint64_t>(std::max<long long>(1, T / 2)) + 1));
      const int ws_size =
          1 + static_cast<int>(rng.below(static_cast<std::uint64_t>(n)));
      spec = SyntheticSpec::phased(phase_len, ws_size);
      break;
    }
    default: {
      trace_kind = "blocklocal";
      const double stay = 0.5 + 0.1 * static_cast<double>(rng.below(5));
      const double alpha = 0.3 * static_cast<double>(rng.below(4));
      spec = SyntheticSpec::block_local(stay, alpha);
      break;
    }
  }

  GeneratedInstance out;
  SyntheticSource source(blocks, k, T, spec, trace_rng);
  out.inst = materialize(source);
  out.streaming_twin = [blocks, k, T, spec, trace_rng] {
    return std::make_unique<SyntheticSource>(blocks, k, T, spec, trace_rng);
  };

  out.descriptor = "n=" + std::to_string(n) + " m=" + std::to_string(m) +
                   " beta=" + std::to_string(beta) +
                   " k=" + std::to_string(k) + " T=" + std::to_string(T) +
                   " shape=" + shape_name(shape) + " costs=" + cost_kind +
                   " trace=" + trace_kind +
                   (trace_kind == "zipf" || trace_kind == "blocklocal"
                        ? " alpha=" + std::to_string(spec.alpha)
                        : "") +
                   " seed=" + std::to_string(fuzz_seed);
  return out;
}

}  // namespace bac::verify
