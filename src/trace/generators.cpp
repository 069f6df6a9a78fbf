#include "trace/generators.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

namespace bac {

namespace {

/// "zipf0.9" -> 0.9; "zipf" -> 0.9; anything else unparsable throws.
double zipf_alpha(const std::string& name) {
  if (name == "zipf") return 0.9;
  const std::string digits = name.substr(4);
  char* end = nullptr;
  errno = 0;
  const double alpha = std::strtod(digits.c_str(), &end);
  if (errno != 0 || end != digits.c_str() + digits.size() ||
      !std::isfinite(alpha) || alpha < 0)
    throw std::invalid_argument("workload: bad zipf spec '" + name + "'");
  return alpha;
}

/// The vector form of a process: drain a source over `blocks` with the
/// tightest feasible cache (the cache size never shapes the stream).
std::vector<PageId> drain(BlockMap blocks, Time T, const SyntheticSpec& spec,
                          Xoshiro256pp rng) {
  const int k = blocks.beta();
  SyntheticSource source(std::move(blocks), k, T, spec, rng);
  return materialize(source).requests;
}

/// One block holding all n_pages pages, for the processes that never look
/// at the block structure; empty (rejected by the source) when n_pages <= 0.
BlockMap one_block(int n_pages) {
  return n_pages > 0 ? BlockMap::contiguous(n_pages, n_pages) : BlockMap();
}

}  // namespace

std::optional<SyntheticSpec> named_workload(const std::string& name, int k,
                                            int beta, long long T) {
  if (name.rfind("zipf", 0) == 0) return SyntheticSpec::zipf(zipf_alpha(name));
  if (name == "uniform") return SyntheticSpec::uniform();
  if (name == "scan") return SyntheticSpec::scan();
  if (name == "blocklocal") return SyntheticSpec::block_local(0.75, 0.9);
  if (name == "phased")
    return SyntheticSpec::phased(std::max<long long>(1, T / 10), k + beta);
  return std::nullopt;
}

SyntheticSource::SyntheticSource(BlockMap blocks, int k, long long T,
                                 const SyntheticSpec& spec, Xoshiro256pp rng)
    : header_{std::move(blocks), {}, k},
      T_(T),
      spec_(spec),
      start_(rng),
      rng_(rng) {
  // Regression guards: n_pages <= 0 used to reach t % n_pages in the scan
  // (integer division by zero), phase_len <= 0 reached t % phase_len,
  // ws_size <= 0 indexed an empty working set, and a non-finite alpha
  // left a NaN popularity table that sent every draw to rank 0.
  const int n = header_.n_pages();
  if (n <= 0)
    throw std::invalid_argument("SyntheticSource: n_pages must be positive");
  if (T < 0) throw std::invalid_argument("SyntheticSource: negative horizon");
  if ((spec.kind == SyntheticSpec::Kind::Zipf ||
       spec.kind == SyntheticSpec::Kind::BlockLocal) &&
      !std::isfinite(spec.alpha))
    throw std::invalid_argument("SyntheticSource: alpha must be finite");
  if (spec.kind == SyntheticSpec::Kind::Phased) {
    if (spec.phase_len <= 0)
      throw std::invalid_argument(
          "SyntheticSource: phase_len must be positive");
    if (spec.ws_size <= 0)
      throw std::invalid_argument("SyntheticSource: ws_size must be positive");
    spec_.ws_size = std::min(spec.ws_size, n);
  }
  header_.validate();
  if (spec.kind == SyntheticSpec::Kind::Zipf ||
      spec.kind == SyntheticSpec::Kind::BlockLocal) {
    const int ranks = spec.kind == SyntheticSpec::Kind::Zipf
                          ? n
                          : header_.blocks.n_blocks();
    cum_.resize(static_cast<std::size_t>(ranks));
    double total = 0;
    for (int i = 0; i < ranks; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), spec.alpha);
      cum_[static_cast<std::size_t>(i)] = total;
    }
  }
  rewind();
}

int SyntheticSource::draw_zipf() {
  const double u = rng_.uniform() * cum_.back();
  const auto it = std::lower_bound(cum_.begin(), cum_.end(), u);
  return static_cast<int>(std::min<std::ptrdiff_t>(
      it - cum_.begin(), static_cast<std::ptrdiff_t>(cum_.size()) - 1));
}

void SyntheticSource::rewind() {
  t_ = 0;
  rng_ = start_;
  switch (spec_.kind) {
    case SyntheticSpec::Kind::Phased:
      universe_.resize(static_cast<std::size_t>(header_.n_pages()));
      std::iota(universe_.begin(), universe_.end(), 0);
      ws_.clear();
      break;
    case SyntheticSpec::Kind::BlockLocal:
      // The starting block is drawn before the first request.
      current_block_ = draw_zipf();
      break;
    default:
      break;
  }
}

int SyntheticSource::next_batch(PageId* out, int cap) {
  if (cap <= 0 || t_ >= T_) return 0;
  const long long remaining = T_ - t_;
  const int m = remaining < cap ? static_cast<int>(remaining) : cap;
  const int n = header_.n_pages();
  switch (spec_.kind) {
    case SyntheticSpec::Kind::Uniform:
      for (int i = 0; i < m; ++i)
        out[i] =
            static_cast<PageId>(rng_.below(static_cast<std::uint64_t>(n)));
      break;
    case SyntheticSpec::Kind::Zipf:
      for (int i = 0; i < m; ++i) out[i] = draw_zipf();
      break;
    case SyntheticSpec::Kind::Scan:
      for (int i = 0; i < m; ++i)
        out[i] = static_cast<PageId>((t_ + i) % n);
      break;
    case SyntheticSpec::Kind::Phased: {
      const int ws_size = spec_.ws_size;
      for (int i = 0; i < m; ++i) {
        if ((t_ + i) % spec_.phase_len == 0) {
          // Draw a fresh working set (partial Fisher-Yates).
          for (int j = 0; j < ws_size; ++j) {
            const auto r = static_cast<std::size_t>(rng_.range(j, n - 1));
            std::swap(universe_[static_cast<std::size_t>(j)], universe_[r]);
          }
          ws_.assign(universe_.begin(), universe_.begin() + ws_size);
        }
        out[i] = ws_[static_cast<std::size_t>(
            rng_.below(static_cast<std::uint64_t>(ws_size)))];
      }
      break;
    }
    case SyntheticSpec::Kind::BlockLocal:
      for (int i = 0; i < m; ++i) {
        if (!rng_.bernoulli(spec_.stay)) current_block_ = draw_zipf();
        const auto pages = header_.blocks.pages_in(current_block_);
        out[i] = pages[static_cast<std::size_t>(rng_.below(pages.size()))];
      }
      break;
  }
  t_ += m;
  return m;
}

std::vector<PageId> uniform_trace(int n_pages, Time T, Xoshiro256pp rng) {
  return drain(one_block(n_pages), T, SyntheticSpec::uniform(), rng);
}

std::vector<PageId> zipf_trace(int n_pages, Time T, double alpha,
                               Xoshiro256pp rng) {
  return drain(one_block(n_pages), T, SyntheticSpec::zipf(alpha), rng);
}

std::vector<PageId> scan_trace(int n_pages, Time T) {
  return drain(one_block(n_pages), T, SyntheticSpec::scan(), Xoshiro256pp());
}

std::vector<PageId> phased_trace(int n_pages, Time T, Time phase_len,
                                 int ws_size, Xoshiro256pp rng) {
  return drain(one_block(n_pages), T,
               SyntheticSpec::phased(phase_len, ws_size), rng);
}

std::vector<PageId> block_local_trace(const BlockMap& blocks, Time T,
                                      double stay, double alpha,
                                      Xoshiro256pp rng) {
  return drain(blocks, T, SyntheticSpec::block_local(stay, alpha), rng);
}

std::vector<Cost> log_uniform_costs(int n_blocks, double aspect_ratio,
                                    Xoshiro256pp rng) {
  if (aspect_ratio < 1.0)
    throw std::invalid_argument("log_uniform_costs: aspect_ratio < 1");
  std::vector<Cost> out(static_cast<std::size_t>(n_blocks));
  const double log_delta = std::log(aspect_ratio);
  for (auto& c : out) c = std::exp(rng.uniform() * log_delta);
  return out;
}

Instance make_instance(int n_pages, int block_size, int k,
                       std::vector<PageId> requests) {
  Instance inst{BlockMap::contiguous(n_pages, block_size), std::move(requests),
                k};
  inst.validate();
  return inst;
}

Instance make_weighted_instance(int n_pages, int block_size, int k,
                                std::vector<PageId> requests,
                                std::vector<Cost> block_costs) {
  Instance inst{
      BlockMap::contiguous_weighted(n_pages, block_size, std::move(block_costs)),
      std::move(requests), k};
  inst.validate();
  return inst;
}

}  // namespace bac
