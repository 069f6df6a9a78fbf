#include "submodular/separation.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace bac {

namespace {

/// Iterator to the first entry of `list` with time strictly greater than m
/// (entries are sorted by time; dead entries are skipped wholesale).
auto first_live(const std::vector<FlushVars::Entry>& list, Time m) {
  return std::upper_bound(
      list.begin(), list.end(), m,
      [](Time t, const FlushVars::Entry& e) { return t < e.t; });
}

}  // namespace

double constraint_lhs(const FlushSet& sprime, const FlushVars& phi) {
  const FlushCoverage& cov = sprime.coverage();
  const int cap = cov.cap();
  const int g = sprime.g();
  if (g >= cap) return 0.0;  // rhs is 0 too; constraint trivially holds
  double lhs = 0;
  for (BlockId b = 0; b < cov.blocks().n_blocks(); ++b) {
    const Time m = sprime.max_flush(b);
    const auto& list = phi.entries(b);
    for (auto it = first_live(list, m); it != list.end(); ++it) {
      if (it->phi <= 0) continue;
      const int gm = sprime.g_marginal(b, it->t);
      if (gm <= 0) continue;
      lhs += static_cast<double>(std::min(gm, cap - g)) * it->phi;
    }
  }
  return lhs;
}

namespace {

/// Evaluate the constraint for `sprime`; return Violation if violated.
std::optional<Violation> check(const FlushSet& sprime, const FlushVars& phi,
                               double tolerance) {
  const double rhs =
      static_cast<double>(sprime.coverage().cap() - sprime.f());
  if (rhs <= 0) return std::nullopt;
  const double lhs = constraint_lhs(sprime, phi);
  if (lhs < rhs - tolerance) return Violation{sprime, lhs, rhs};
  return std::nullopt;
}

/// Bucket of a positive double: its exponent and top two mantissa bits, so
/// one bucket spans a ratio below 1.25. Positive doubles order like their
/// bit patterns, so a lower bucket holds smaller values.
constexpr int kBucketShift = 50;
constexpr std::size_t kBuckets = std::size_t{1} << (63 - kBucketShift);

std::size_t bucket(double v) {
  return static_cast<std::size_t>(std::bit_cast<std::uint64_t>(v) >>
                                  kBucketShift);
}

}  // namespace

void ThresholdSeparation::net_thresholds() {
  // Up to 40 distinct values: all of them.
  thresholds_.clear();
  for (const double v : values_) {
    if (std::find(thresholds_.begin(), thresholds_.end(), v) !=
        thresholds_.end())
      continue;
    thresholds_.push_back(v);
    if (thresholds_.size() > 40) break;
  }
  if (thresholds_.size() <= 40) {
    std::sort(thresholds_.begin(), thresholds_.end(), std::greater<>());
    return;
  }

  // More: the largest value, then repeatedly the largest value <= last /
  // 1.3, then the smallest. Group the values by bucket with a counting
  // sort. "The largest value <= q" is a scan of q's bucket, or else the
  // maximum of the next non-empty bucket below; a bucket spans less than
  // 1.3, so the next q lies below it and each bucket is scanned once.
  bin_start_.resize(kBuckets);  // all zero between calls
  std::size_t lo = kBuckets, hi = 0;
  for (const double v : values_) {
    const std::size_t k = bucket(v);
    ++bin_start_[k];
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  std::uint32_t pos = 0;
  for (std::size_t k = lo; k <= hi; ++k)
    pos += std::exchange(bin_start_[k], pos);
  binned_.resize(values_.size());
  for (const double v : values_) binned_[bin_start_[bucket(v)]++] = v;
  // Each start has moved to its bucket's end: bucket k is
  // binned_[k > lo ? bin_start_[k - 1] : 0, bin_start_[k]).
  const double vmin = *std::min_element(
      binned_.begin(), binned_.begin() + (lo < hi ? bin_start_[lo] : pos));
  const double vmax = *std::max_element(
      binned_.begin() + (lo < hi ? bin_start_[hi - 1] : 0), binned_.end());

  thresholds_.clear();
  thresholds_.push_back(vmax);
  for (std::size_t k = hi;;) {
    const double q = thresholds_.back() / 1.3;
    k = std::min(k, bucket(q));
    double best = 0;  // values are > 0
    while (k >= lo) {
      for (std::uint32_t j = k > lo ? bin_start_[k - 1] : 0; j < bin_start_[k];
           ++j)
        best = std::max(best, binned_[j] <= q ? binned_[j] : 0.0);
      if (best > 0 || k == lo) break;
      --k;
    }
    if (best == 0) break;
    thresholds_.push_back(best);
  }
  if (thresholds_.back() != vmin) thresholds_.push_back(vmin);
  std::fill(bin_start_.begin() + static_cast<std::ptrdiff_t>(lo),
            bin_start_.begin() + static_cast<std::ptrdiff_t>(hi) + 1, 0);
}

double ThresholdSeparation::level_lhs(int cap, int g) const {
  const int capg = cap - g;
  double lhs = 0;
  for (std::size_t b = 0; b < level_.size(); ++b) {
    const int L = level_[b];
    const double* w = level_phi_.data() + level_off_[b];
    const int top = static_cast<int>(level_off_[b + 1] - level_off_[b]) - 1;
    for (int l = L + 1; l <= top; ++l)
      lhs += static_cast<double>(std::min(l - L, capg)) * w[l];
  }
  return lhs;
}

std::optional<Violation> ThresholdSeparation::find_violated(
    const FlushSet& S, const FlushVars& phi) {
  const FlushCoverage& cov = S.coverage();
  const int cap = cov.cap();
  // g only grows from S to any S' >= S; at the cap every rhs is 0.
  if (S.g() >= cap) return std::nullopt;
  const auto n_blocks = static_cast<std::size_t>(cov.blocks().n_blocks());

  // One merge pass per block over its live entries: coverage levels,
  // per-level phi sums, the staircase and the threshold values.
  values_.clear();
  level_phi_.clear();
  stairs_.clear();
  level_off_.resize(n_blocks + 1);
  stair_off_.resize(n_blocks + 1);
  level_.resize(n_blocks);
  level_off_[0] = 0;
  for (std::size_t ub = 0; ub < n_blocks; ++ub) {
    const auto b = static_cast<BlockId>(ub);
    const std::span<const Time> last = cov.sorted_last(b);
    const Time m = S.max_flush(b);
    int level = m == kNeverRequested ? 0 : cov.count_below(b, m);
    level_[ub] = level;
    const std::size_t off = level_off_[ub];
    level_phi_.resize(off + last.size() + 1, 0.0);
    level_off_[ub + 1] = level_phi_.size();
    stair_off_[ub] = stairs_.size();
    const auto& list = phi.entries(b);
    double run = 0;  // phi summed over this level's entries so far
    for (auto it = first_live(list, m); it != list.end(); ++it) {
      if (!(it->phi > 0)) continue;
      const auto below = [&] {
        return static_cast<std::size_t>(level) < last.size() &&
               last[static_cast<std::size_t>(level)] < it->t;
      };
      if (below()) {  // levels only rise along the list
        level_phi_[off + static_cast<std::size_t>(level)] = run;
        run = 0;
        do ++level;
        while (below());
      }
      run += it->phi;
      values_.push_back(it->phi);
      // A step beats every later entry's phi: pop the steps it ties or
      // beats, so phi strictly falls along the block's steps.
      while (stairs_.size() > stair_off_[ub] && stairs_.back().phi <= it->phi)
        stairs_.pop_back();
      stairs_.push_back({it->t, level, it->phi});
    }
    level_phi_[off + static_cast<std::size_t>(level)] = run;
  }
  stair_off_[n_blocks] = stairs_.size();
  stair_pos_.assign(stair_off_.begin(), stair_off_.end() - 1);

  // The current S' (S plus, per block, the step before stair_pos_)
  // checked against the constraint.
  int g = S.g();
  const auto evaluate = [&]() -> std::optional<Violation> {
    const double rhs = static_cast<double>(cap - g);
    const double cutoff = rhs - tolerance_;
    double lhs = level_lhs(cap, g);
    // Both sums add the same <= |values_| non-negative products, so each
    // is within |values_| * eps/2 * lhs of the exact value; closer to the
    // cutoff than twice that (padded), the order could flip the decision.
    const double slack = 4.0 * static_cast<double>(values_.size() + 2) *
                         std::numeric_limits<double>::epsilon() * lhs;
    const bool near = std::abs(lhs - cutoff) <= slack;
    if (!near && !(lhs < cutoff)) return std::nullopt;
    FlushSet sprime = S;
    for (std::size_t ub = 0; ub < n_blocks; ++ub)
      if (stair_pos_[ub] > stair_off_[ub])
        sprime.add_flush(static_cast<BlockId>(ub),
                         stairs_[stair_pos_[ub] - 1].t);
    if (near) {
      lhs = constraint_lhs(sprime, phi);
      if (!(lhs < cutoff)) return std::nullopt;
    }
    return Violation{std::move(sprime), lhs, rhs};
  };

  // S itself first (theta = +infinity).
  if (auto v = evaluate()) return v;

  net_thresholds();
  for (const double theta : thresholds_) {
    // Add the *latest* entry with phi >= theta per block (earlier ones
    // are dominated: only the max flush time matters). It is a step.
    // The constraint depends on S' only through the levels.
    bool changed = false;
    for (std::size_t ub = 0; ub < n_blocks; ++ub) {
      std::size_t& pos = stair_pos_[ub];
      while (pos < stair_off_[ub + 1] && stairs_[pos].phi >= theta) ++pos;
      if (pos == stair_off_[ub] || stairs_[pos - 1].level == level_[ub])
        continue;
      changed = true;
      g += stairs_[pos - 1].level - level_[ub];
      level_[ub] = stairs_[pos - 1].level;
    }
    if (!changed) continue;  // the previous constraint again: not violated
    if (g >= cap) break;     // neither is this or any larger S'
    if (auto v = evaluate()) return v;
  }
  return std::nullopt;
}

std::optional<Violation> DpSeparation::find_violated(const FlushSet& S,
                                                     const FlushVars& phi) {
  const FlushCoverage& cov = S.coverage();
  const int n_blocks = cov.blocks().n_blocks();
  const int cap = cov.cap();
  if (cap <= 0) return std::nullopt;

  // Per-block candidate max flush times (>= the block's time in S).
  std::vector<std::vector<Time>> candidates(
      static_cast<std::size_t>(n_blocks));
  for (BlockId b = 0; b < n_blocks; ++b) {
    auto& cand = candidates[static_cast<std::size_t>(b)];
    const Time m = S.max_flush(b);
    cand.push_back(m);
    for (const FlushVars::Entry& e : phi.entries(b))
      if (e.t > m && e.t <= cov.now()) cand.push_back(e.t);
    for (Time t : cov.alive_times(b))
      if (t > m && t <= cov.now()) cand.push_back(t);
    if (cov.now() > m) cand.push_back(cov.now());
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  }

  const double kInf = std::numeric_limits<double>::infinity();
  std::optional<Violation> worst;

  // G is the g-mass *added* to S by the extra flushes; g(S') = g(S) + G.
  for (int G = 0; S.g() + G < cap; ++G) {
    const int capg = cap - (S.g() + G);  // marginal cap and the RHS
    // dp[g] = minimal LHS using a prefix of blocks with total g-level g;
    // choice[b][g] records the winning candidate index for reconstruction.
    std::vector<double> dp(static_cast<std::size_t>(G) + 1, kInf);
    dp[0] = 0;
    std::vector<std::vector<std::int16_t>> choice(
        static_cast<std::size_t>(n_blocks),
        std::vector<std::int16_t>(static_cast<std::size_t>(G) + 1, -1));

    for (BlockId b = 0; b < n_blocks; ++b) {
      const auto& cand = candidates[static_cast<std::size_t>(b)];
      const Time m = S.max_flush(b);
      const int base = (m == kNeverRequested) ? 0 : cov.count_below(b, m);
      // Precompute (g_b, L_b) per candidate.
      std::vector<std::pair<int, double>> options;
      options.reserve(cand.size());
      for (Time mb : cand) {
        const int cnt =
            (mb == kNeverRequested) ? 0 : cov.count_below(b, mb);
        const int gb = cnt - base;
        double lb = 0;
        for (const FlushVars::Entry& e : phi.entries(b)) {
          if (e.t <= mb || e.phi <= 0 || e.t > cov.now()) continue;
          const int gm = cov.count_below(b, e.t) - cnt;
          if (gm > 0) lb += static_cast<double>(std::min(gm, capg)) * e.phi;
        }
        options.emplace_back(gb, lb);
      }
      std::vector<double> next(static_cast<std::size_t>(G) + 1, kInf);
      for (int g = 0; g <= G; ++g) {
        if (dp[static_cast<std::size_t>(g)] == kInf) continue;
        for (std::size_t ci = 0; ci < options.size(); ++ci) {
          const auto& [gb, lb] = options[ci];
          const int g2 = g + gb;
          if (g2 > G) continue;
          const double v = dp[static_cast<std::size_t>(g)] + lb;
          if (v < next[static_cast<std::size_t>(g2)]) {
            next[static_cast<std::size_t>(g2)] = v;
            choice[static_cast<std::size_t>(b)]
                  [static_cast<std::size_t>(g2)] =
                static_cast<std::int16_t>(ci);
          }
        }
      }
      dp = std::move(next);
    }

    const double lhs = dp[static_cast<std::size_t>(G)];
    const double rhs = static_cast<double>(capg);
    if (lhs < rhs - tolerance_ &&
        (!worst || rhs - lhs > worst->amount())) {
      // Reconstruct the witness S'.
      FlushSet sprime = S;
      int g = G;
      for (BlockId b = n_blocks - 1; b >= 0; --b) {
        const auto ci =
            choice[static_cast<std::size_t>(b)][static_cast<std::size_t>(g)];
        if (ci < 0) continue;  // shouldn't happen when dp[G] < inf
        const Time mb =
            candidates[static_cast<std::size_t>(b)][static_cast<std::size_t>(ci)];
        const int base = (S.max_flush(b) == kNeverRequested)
                             ? 0
                             : cov.count_below(b, S.max_flush(b));
        const int gb =
            ((mb == kNeverRequested) ? 0 : cov.count_below(b, mb)) - base;
        if (mb > S.max_flush(b)) sprime.add_flush(b, mb);
        g -= gb;
      }
      worst = Violation{sprime, lhs, rhs};
    }
  }
  return worst;
}

std::optional<Violation> ExhaustiveSeparation::find_violated(
    const FlushSet& S, const FlushVars& phi) {
  const FlushCoverage& cov = S.coverage();
  const int n_blocks = cov.blocks().n_blocks();

  // Per-block candidate max flush times: keep S's own, or raise to any
  // entry time or alive time beyond it.
  std::vector<std::vector<Time>> candidates(
      static_cast<std::size_t>(n_blocks));
  for (BlockId b = 0; b < n_blocks; ++b) {
    auto& cand = candidates[static_cast<std::size_t>(b)];
    const Time m = S.max_flush(b);
    cand.push_back(m);
    for (const FlushVars::Entry& e : phi.entries(b))
      if (e.t > m && e.t <= cov.now()) cand.push_back(e.t);
    // Alive times can include now + 1 (the just-requested page); flushes
    // strictly in the future have zero marginal at the current tau and are
    // not representable in a FlushSet, so skip them.
    for (Time t : cov.alive_times(b))
      if (t > m && t <= cov.now()) cand.push_back(t);
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  }

  std::optional<Violation> worst;
  std::vector<std::size_t> pick(static_cast<std::size_t>(n_blocks), 0);
  std::function<void(int)> recurse = [&](int b) {
    if (b == n_blocks) {
      FlushSet sprime = S;
      for (BlockId bb = 0; bb < n_blocks; ++bb) {
        const Time t =
            candidates[static_cast<std::size_t>(bb)]
                      [pick[static_cast<std::size_t>(bb)]];
        if (t > S.max_flush(bb)) sprime.add_flush(bb, t);
      }
      if (auto v = check(sprime, phi, tolerance_))
        if (!worst || v->amount() > worst->amount()) worst = v;
      return;
    }
    for (std::size_t i = 0;
         i < candidates[static_cast<std::size_t>(b)].size(); ++i) {
      pick[static_cast<std::size_t>(b)] = i;
      recurse(b + 1);
    }
  };
  recurse(0);
  return worst;
}

}  // namespace bac
