// perfbench: the repository's end-to-end and per-layer benchmark.
//
// One process runs one workload for a fixed measurement budget:
//
//   perfbench --workload zipf-wide|blocklocal-miss --seed <u64>
//             --seconds <s> --trace 0|1 --dir <input dir>
//             [--scale full|tiny] [--inject-wrong-cost]
//
// It generates the workload's inputs from the seed into --dir (a .bact
// and a .csv key trace of one request stream, plus small .bact traces
// for the paper's algorithms), then times the paths users run:
//
//   replay  driver::run_sweep with one cell on a 1-thread pool — what
//           `bacsim` does — over the .bact (lru), the .csv (lru), and
//           the small traces (det_online = BA-Det, rand_online = BA-Rand)
//   serve   one closed-loop client calling ConcurrentCache::get_batch
//           over 512-request slices in trace order (64 shards, lru) —
//           what `bacload --threads 1` does
//
// With --trace 0 the passes of the paths are interleaved round-robin
// after one discarded warm round, and every end-to-end metric is the
// median over its passes. With --trace 1 a separate run times each layer
// from outside, through forwarding decorators around the public virtual
// seams (RequestSource, OnlinePolicy, SeparationOracle) and around the
// calls into simulate, FractionalBlockAware::step,
// ConcurrentCache::get_batch and serve_partitioned.
//
// Output checks run in both modes; every failed check and every call
// that throws counts as a failure against the attempts. The last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"};
// the line before it carries the pass counts, quartiles and host stamp.
// perfbench/NOTES.md explains the workloads and the noise handling.
#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algs/det_online.hpp"
#include "algs/fractional.hpp"
#include "algs/rounding.hpp"
#include "algs/zoo.hpp"
#include "core/block_map.hpp"
#include "core/instance.hpp"
#include "core/policy.hpp"
#include "core/request_source.hpp"
#include "core/simulator.hpp"
#include "driver/sweep.hpp"
#include "server/concurrent_cache.hpp"
#include "server/dispatch.hpp"
#include "submodular/separation.hpp"
#include "trace/bact.hpp"
#include "trace/csv.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using bac::Cost;
using bac::Instance;
using bac::PageId;
using bac::Stopwatch;

constexpr int kBeta = 8;             // block size of every workload
constexpr int kServeSlice = 512;     // requests per get_batch call
constexpr int kMaxShards = 64;       // bacload's automatic shard cap
constexpr int kSetupReps = 5;        // set-up repetitions per run
constexpr int kMinRounds = 3;        // timed rounds even on a tiny budget
constexpr int kLruStride = 16;       // traced run: time 1 in 16 lru calls

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The request process of a workload's traces.
struct Process {
  enum class Kind { Zipf, BlockLocal } kind;
  double alpha;  ///< Zipf exponent over pages (Zipf) or blocks (BlockLocal)
  double stay;   ///< BlockLocal: probability the next request stays in-block
};

/// A paper-algorithm path: its own small trace of the same process.
struct PaperPath {
  int n;
  int k;
  long long T;
};

struct Workload {
  const char* name;
  Process process;
  int n;               ///< pages of the replay/serve trace
  int k;               ///< cache size of the replay/serve paths
  long long replay_T;  ///< requests in the .bact trace
  long long csv_T;     ///< requests in the .csv trace (a prefix)
  long long serve_T;   ///< requests per serve pass (a prefix)
  PaperPath det;       ///< det_online (BA-Det)
  PaperPath rand;      ///< rand_online (BA-Rand), fixed horizon
};

// Request counts size one pass at roughly 0.3-1 s on a 4-vCPU x86 VM;
// n, k, beta and the process parameters are what define a workload.
constexpr Workload kWorkloads[] = {
    {"zipf-wide",
     {Process::Kind::Zipf, 0.9, 0.0},
     1 << 18, 1 << 16,
     6'000'000, 1'500'000, 2'000'000,
     {1024, 256, 400'000},
     {256, 64, 2000}},
    {"blocklocal-miss",
     {Process::Kind::BlockLocal, 0.5, 0.75},
     1 << 16, (1 << 16) / 32,
     8'000'000, 1'500'000, 3'000'000,
     {1024, 64, 600'000},
     {256, 16, 2000}},
};

/// --scale tiny: the self-test sizes (same n/k shapes, short traces).
Workload tiny(Workload w) {
  w.n = std::min(w.n, 1 << 12);
  w.k = std::max(w.k >> 6, 64);
  w.replay_T = 20'000;
  w.csv_T = 10'000;
  w.serve_T = 10'000;
  w.det.T = 5'000;
  w.rand.T = 200;
  return w;
}

/// SplitMix64: the benchmark's own generator, so its inputs depend only
/// on the seed and not on the library's RNG or generators.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  int below(int n) {
    return static_cast<int>(next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

/// Zipf(alpha) over ranks 0..n-1 (rank 0 most popular) by inverse CDF.
class ZipfTable {
 public:
  ZipfTable(int n, double alpha) : cum_(static_cast<std::size_t>(n)) {
    double s = 0;
    for (int i = 0; i < n; ++i) {
      s += 1.0 / std::pow(static_cast<double>(i + 1), alpha);
      cum_[static_cast<std::size_t>(i)] = s;
    }
  }
  int draw(SplitMix64& rng) const {
    const double u = rng.uniform() * cum_.back();
    const auto it = std::upper_bound(cum_.begin(), cum_.end(), u);
    return static_cast<int>(
        std::min<std::ptrdiff_t>(it - cum_.begin(),
                                 static_cast<std::ptrdiff_t>(cum_.size()) - 1));
  }

 private:
  std::vector<double> cum_;
};

/// Pages are numbered so that page p sits in block p / kBeta.
std::vector<PageId> generate(const Process& proc, int n, long long T,
                             std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<PageId> out;
  out.reserve(static_cast<std::size_t>(T));
  if (proc.kind == Process::Kind::Zipf) {
    const ZipfTable zipf(n, proc.alpha);
    for (long long t = 0; t < T; ++t) out.push_back(zipf.draw(rng));
    return out;
  }
  const ZipfTable blocks(n / kBeta, proc.alpha);
  int block = blocks.draw(rng);
  for (long long t = 0; t < T; ++t) {
    if (t > 0 && rng.uniform() >= proc.stay) block = blocks.draw(rng);
    out.push_back(block * kBeta + rng.below(kBeta));
  }
  return out;
}

/// Independent per-stream seeds from the run seed.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed * 0x100000001b3ULL + stream);
  return mix.next();
}

void write_bact(const std::string& path, int n, int k,
                const std::vector<PageId>& requests, std::size_t count) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot write " + path);
  bac::BactWriter writer(os, bac::BlockMap::contiguous(n, kBeta), k,
                         static_cast<long long>(count));
  for (std::size_t i = 0; i < count; ++i) writer.add(requests[i]);
  writer.finish();
  os.close();
  if (!os) throw std::runtime_error("short write to " + path);
}

/// `timestamp,key,size` rows; keys are decimal page numbers (MSR-style
/// offsets), so the CSV adapter's numeric block inference groups them
/// into the same aligned spans of kBeta pages as the .bact block map.
void write_csv(const std::string& path, const std::vector<PageId>& requests,
               std::size_t count) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot write " + path);
  std::string buf;
  buf.reserve(1 << 20);
  char num[24];
  for (std::size_t i = 0; i < count; ++i) {
    auto r = std::to_chars(num, num + sizeof num, i + 1);
    buf.append(num, r.ptr);
    buf.push_back(',');
    r = std::to_chars(num, num + sizeof num, requests[i]);
    buf.append(num, r.ptr);
    buf.append(",1\n");
    if (buf.size() > (1u << 20) - 64) {
      os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  os.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  os.close();
  if (!os) throw std::runtime_error("short write to " + path);
}

long long file_bytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0)
    throw std::runtime_error("cannot stat " + path);
  return static_cast<long long>(st.st_size);
}

/// Bytes of a .bact header plus end sentinel for this structure (the
/// part of the file that is not request payload).
long long bact_overhead_bytes(int n, int k) {
  std::ostringstream os;
  bac::BactWriter writer(os, bac::BlockMap::contiguous(n, kBeta), k, 0);
  writer.finish();
  return static_cast<long long>(os.str().size());
}

struct Inputs {
  std::vector<PageId> main;  ///< the replay trace; csv/serve use prefixes
  std::vector<PageId> det;
  std::vector<PageId> rand;
  std::string main_bact, main_csv, det_bact, rand_bact;
  long long bact_payload_bytes = 0;
};

Inputs make_inputs(const Workload& w, std::uint64_t seed,
                   const std::string& dir) {
  Inputs in;
  const long long longest = std::max({w.replay_T, w.csv_T, w.serve_T});
  in.main = generate(w.process, w.n, longest, stream_seed(seed, 1));
  in.det = generate(w.process, w.det.n, w.det.T, stream_seed(seed, 2));
  in.rand = generate(w.process, w.rand.n, w.rand.T, stream_seed(seed, 3));
  in.main_bact = dir + "/main.bact";
  in.main_csv = dir + "/main.csv";
  in.det_bact = dir + "/det.bact";
  in.rand_bact = dir + "/rand.bact";
  write_bact(in.main_bact, w.n, w.k, in.main,
             static_cast<std::size_t>(w.replay_T));
  write_csv(in.main_csv, in.main, static_cast<std::size_t>(w.csv_T));
  write_bact(in.det_bact, w.det.n, w.det.k, in.det, in.det.size());
  write_bact(in.rand_bact, w.rand.n, w.rand.k, in.rand, in.rand.size());
  in.bact_payload_bytes =
      file_bytes(in.main_bact) - bact_overhead_bytes(w.n, w.k);
  return in;
}

// ---------------------------------------------------------------------------
// Process memory
// ---------------------------------------------------------------------------

/// A "VmHWM:"-style field of /proc/self/status in kB, or -1.
long long status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line))
    if (line.compare(0, len, field) == 0)
      return std::strtoll(line.c_str() + len, nullptr, 10);
  return -1;
}

/// Reset VmHWM to the current RSS (Linux clear_refs value 5).
bool reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------
// Statistics and output
// ---------------------------------------------------------------------------

struct Summary {
  std::size_t n = 0;
  double q1 = 0, median = 0, q3 = 0;
};

/// Quartiles by linear interpolation between order statistics.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  const auto at = [&](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  s.q1 = at(0.25);
  s.median = at(0.5);
  s.q3 = at(0.75);
  return s;
}

/// p-th quantile of one pass's samples (nearest rank).
double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"replay_rps.bact", "1/s"},
    {"replay_rps.csv", "1/s"},
    {"replay_rps.ba_det", "1/s"},
    {"replay_rps.ba_rand", "1/s"},
    {"serve_rps.t1", "1/s"},
    {"serve_batch_p50_us", "us"},
    {"serve_batch_p99_us", "us"},
};

constexpr MetricDef kPerLayer[] = {
    {"trace.bact.decode_ns", "ns"},
    {"trace.bact.bytes_per_req", "bytes/req"},
    {"trace.csv.decode_ns", "ns"},
    {"trace.csv.map_s", "s"},
    {"driver.cell_ns", "ns"},
    {"core.step_ns", "ns"},
    {"core.miss_ratio", "ratio"},
    {"core.evict_events_per_req", "count/req"},
    {"core.pages_per_evict_event", "count/event"},
    {"obs.sketch_ns", "ns"},
    {"algs.lru.on_request_ns", "ns"},
    {"algs.ba_det.on_request_ns", "ns"},
    {"algs.ba_det.flushes_per_req", "count/req"},
    {"algs.ba_det.primal_dual", "ratio"},
    {"algs.ba_rand.on_request_ns", "ns"},
    {"algs.ba_rand.alterations_per_req", "count/req"},
    {"algs.fractional.step_us", "us"},
    {"submodular.find_violated_calls_per_step", "count/step"},
    {"submodular.find_violated_share", "ratio"},
    {"server.get_batch_ns.s64", "ns"},
    {"server.get_batch_ns.s1", "ns"},
    {"server.locks_per_req", "count/req"},
    {"server.lock_wait_ms", "ms"},
    {"server.shard_p99_us", "us"},
    {"server.dispatch.rps_t2", "1/s"},
    {"server.dispatch.scaling_eff", "ratio"},
    {"server.dispatch.lane_imbalance", "ratio"},
    {"server.dispatch.partition_ms", "ms"},
    {"replay.bact.trace_overhead_pct", "%"},
    {"replay.bact.unattributed_pct", "%"},
    {"replay.csv.trace_overhead_pct", "%"},
    {"replay.csv.unattributed_pct", "%"},
    {"replay.ba_det.trace_overhead_pct", "%"},
    {"replay.ba_det.unattributed_pct", "%"},
    {"replay.ba_rand.trace_overhead_pct", "%"},
    {"replay.ba_rand.unattributed_pct", "%"},
    {"serve.t1.trace_overhead_pct", "%"},
    {"serve.t1.unattributed_pct", "%"},
};

/// Attempts, failures and the per-metric samples of one run.
class Ledger {
 public:
  /// Run one call; an exception is reported and counted as a failure.
  bool attempt(const std::string& what, const std::function<void()>& fn) {
    ++attempted_;
    try {
      fn();
      return true;
    } catch (const std::exception& e) {
      fail(what + " threw: " + e.what());
    } catch (...) {
      fail(what + " threw a non-standard exception");
    }
    return false;
  }

  /// Record one output check.
  void check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) fail("check failed: " + what);
  }

  void sample(const std::string& metric, double value) {
    samples_[metric].push_back(value);
  }

  [[nodiscard]] long long attempted() const { return attempted_; }
  [[nodiscard]] long long failed() const { return failed_; }
  [[nodiscard]] const std::map<std::string, std::vector<double>>& samples()
      const {
    return samples_;
  }

 private:
  void fail(const std::string& msg) {
    ++failed_;
    std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  }

  long long attempted_ = 0;
  long long failed_ = 0;
  std::map<std::string, std::vector<double>> samples_;
};

// ---------------------------------------------------------------------------
// Forwarding decorators: per-layer timing from outside the library
// ---------------------------------------------------------------------------

/// Accumulated wall time and call count of one decorated seam. With a
/// stride > 1 only every stride-th call is timed (`timed` of `calls`),
/// so a ~20 ns call is not swamped by two ~30 ns clock reads.
struct Tally {
  double seconds = 0;  ///< summed over the timed calls
  long long calls = 0;
  long long timed = 0;
  int stride = 1;
  int countdown = 0;   ///< untimed calls left before the next timed one

  /// Self time over all calls: the timed calls less the clock read
  /// inside each interval, scaled up to every call.
  [[nodiscard]] double self_seconds(double clock_read) const {
    if (timed == 0) return 0;
    return (seconds - static_cast<double>(timed) * clock_read) *
           static_cast<double>(calls) / static_cast<double>(timed);
  }
};

class TimedSource final : public bac::RequestSource {
 public:
  explicit TimedSource(std::unique_ptr<bac::RequestSource> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] const Instance& context() const override {
    return inner_->context();
  }
  [[nodiscard]] bool materialized() const override {
    return inner_->materialized();
  }
  [[nodiscard]] long long horizon_hint() const override {
    return inner_->horizon_hint();
  }
  bool next(PageId& p) override {
    const Stopwatch clock;
    const bool ok = inner_->next(p);
    tally_.seconds += clock.seconds();
    ++tally_.calls;
    ++tally_.timed;
    return ok;
  }
  int next_batch(PageId* out, int cap) override {
    const Stopwatch clock;
    const int m = inner_->next_batch(out, cap);
    tally_.seconds += clock.seconds();
    ++tally_.calls;
    ++tally_.timed;
    return m;
  }
  void rewind() override { inner_->rewind(); }

  [[nodiscard]] const Tally& tally() const { return tally_; }

 private:
  std::unique_ptr<bac::RequestSource> inner_;
  Tally tally_;
};

/// Times on_request; clones share the tally (single-threaded use only).
class TimedPolicy final : public bac::OnlinePolicy {
 public:
  TimedPolicy(std::unique_ptr<bac::OnlinePolicy> inner,
              std::shared_ptr<Tally> tally)
      : inner_(std::move(inner)), tally_(std::move(tally)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  void reset(const Instance& inst) override { inner_->reset(inst); }
  void seed(std::uint64_t s) override { inner_->seed(s); }
  void on_request(bac::Time t, PageId p, bac::CacheOps& cache) override {
    ++tally_->calls;
    if (tally_->countdown-- > 0) {
      inner_->on_request(t, p, cache);
      return;
    }
    tally_->countdown = tally_->stride - 1;
    const Stopwatch clock;
    inner_->on_request(t, p, cache);
    tally_->seconds += clock.seconds();
    ++tally_->timed;
  }
  [[nodiscard]] bool randomized() const override {
    return inner_->randomized();
  }
  [[nodiscard]] bool requires_future() const override {
    return inner_->requires_future();
  }
  [[nodiscard]] std::unique_ptr<bac::OnlinePolicy> clone() const override {
    auto copy = inner_->clone();
    if (!copy) return nullptr;
    return std::make_unique<TimedPolicy>(std::move(copy), tally_);
  }
  void export_metrics(bac::obs::MetricRegistry& registry) const override {
    inner_->export_metrics(registry);
  }

  [[nodiscard]] bac::OnlinePolicy& inner() { return *inner_; }

 private:
  std::unique_ptr<bac::OnlinePolicy> inner_;
  std::shared_ptr<Tally> tally_;
};

class TimedOracle final : public bac::SeparationOracle {
 public:
  TimedOracle(std::unique_ptr<bac::SeparationOracle> inner,
              std::shared_ptr<Tally> tally)
      : inner_(std::move(inner)), tally_(std::move(tally)) {}

  std::optional<bac::Violation> find_violated(
      const bac::FlushSet& S, const bac::FlushVars& phi) override {
    const Stopwatch clock;
    auto v = inner_->find_violated(S, phi);
    tally_->seconds += clock.seconds();
    ++tally_->calls;
    ++tally_->timed;
    return v;
  }

 private:
  std::unique_ptr<bac::SeparationOracle> inner_;
  std::shared_ptr<Tally> tally_;
};

/// Cost of one Stopwatch clock read: a decorated call pays two reads,
/// one inside its measured interval and one outside it.
double clock_read_seconds() {
  std::vector<double> per;
  constexpr int kReads = 4096;
  for (int batch = 0; batch < 31; ++batch) {
    const Stopwatch outer;
    for (int i = 0; i < kReads; ++i) {
      const Stopwatch inner;
      static_cast<void>(inner.seconds());
    }
    per.push_back(outer.seconds() / (2.0 * kReads));
  }
  return summarize(per).median;
}

// ---------------------------------------------------------------------------
// The paths
// ---------------------------------------------------------------------------

struct Outcome {
  double seconds = 0;
  long long requests = 0;
  Cost cost = 0;
  Cost eviction_cost = 0;
  long long misses = 0;
};

bac::driver::SweepConfig sweep_config(const std::string& policy,
                                      const std::string& path, int k,
                                      std::uint64_t seed) {
  bac::driver::SweepConfig c;
  c.policies = {policy};
  c.workloads = {path};
  c.ks = {k};
  c.seed = seed;
  c.trials = 1;
  c.csv_block_pages = kBeta;
  return c;
}

/// One `bacsim` replay: run_sweep over one (policy, trace, k) cell.
Outcome sweep_once(const std::string& policy, const std::string& path, int k,
                   std::uint64_t seed) {
  const auto config = sweep_config(policy, path, k, seed);
  bac::driver::SweepRecord record;
  int records = 0;
  const Stopwatch clock;
  bac::driver::run_sweep(config, [&](const bac::driver::SweepRecord& r) {
    record = r;
    ++records;
  });
  Outcome out;
  out.seconds = clock.seconds();
  if (records != 1)
    throw std::runtime_error("run_sweep produced " + std::to_string(records) +
                             " records for one cell");
  out.requests = record.requests;
  out.cost = record.cost;
  out.eviction_cost = record.eviction_cost;
  out.misses = record.misses;
  return out;
}

/// The same cell built by hand, so the library's layers can be wrapped.
/// `stride` = 0 runs it undecorated; otherwise source and policy are
/// wrapped and every stride-th on_request is timed. The outcome's
/// seconds include source open and policy construction, as in the
/// sweep's cell body.
struct CellTiming {
  Outcome outcome;
  double simulate_seconds = 0;
  Tally decode;
  Tally policy;
  bac::RunResult result;
};

CellTiming cell_once(const std::string& policy_name, const std::string& path,
                     int k, std::uint64_t seed, int stride,
                     bool record_sketch,
                     const std::function<void(bac::OnlinePolicy&)>& inspect =
                         nullptr) {
  const auto config = sweep_config(policy_name, path, k, seed);
  CellTiming out;
  auto tally = std::make_shared<Tally>();
  tally->stride = std::max(1, stride);
  const Stopwatch clock;
  std::unique_ptr<bac::RequestSource> source =
      bac::driver::make_workload_source(path, config, k);
  std::unique_ptr<bac::OnlinePolicy> policy = bac::make_policy(policy_name);
  TimedSource* timed_source = nullptr;
  TimedPolicy* timed_policy = nullptr;
  if (stride > 0) {
    auto ts = std::make_unique<TimedSource>(std::move(source));
    timed_source = ts.get();
    source = std::move(ts);
    auto tp = std::make_unique<TimedPolicy>(std::move(policy), tally);
    timed_policy = tp.get();
    policy = std::move(tp);
  }
  bac::SimOptions options;
  options.seed = seed;
  options.record_sketch = record_sketch;
  const Stopwatch sim_clock;
  out.result = bac::simulate(*source, *policy, options);
  out.simulate_seconds = sim_clock.seconds();
  out.outcome.seconds = clock.seconds();
  out.outcome.requests = out.result.requests;
  out.outcome.eviction_cost = out.result.eviction_cost;
  out.outcome.cost = out.result.eviction_cost + out.result.fetch_cost;
  out.outcome.misses = out.result.misses;
  if (timed_source != nullptr) out.decode = timed_source->tally();
  if (timed_policy != nullptr) {
    out.policy = *tally;
    if (inspect) inspect(timed_policy->inner());
  } else if (inspect) {
    inspect(*policy);
  }
  return out;
}

struct ServeRun {
  Outcome outcome;
  double call_seconds = 0;         ///< summed get_batch wall time
  std::vector<double> call_us;     ///< per get_batch call
  bac::server::ServerStats stats;
};

/// One `bacload --threads 1` client: get_batch over 512-request slices.
ServeRun serve_once(const Instance& ctx, const bac::OnlinePolicy& prototype,
                    int shards, const std::vector<PageId>& requests,
                    std::size_t count, std::uint64_t seed) {
  ServeRun run;
  run.call_us.reserve(count / kServeSlice + 1);
  bac::server::ConcurrentCache cache(ctx, prototype, shards, seed);
  const Stopwatch total;
  for (std::size_t i = 0; i < count; i += kServeSlice) {
    const int m = static_cast<int>(
        std::min<std::size_t>(kServeSlice, count - i));
    const Stopwatch call;
    cache.get_batch(requests.data() + i, m);
    const double s = call.seconds();
    run.call_seconds += s;
    run.call_us.push_back(s * 1e6);
  }
  run.outcome.seconds = total.seconds();
  run.stats = cache.stats();
  run.outcome.requests = run.stats.requests;
  run.outcome.cost = run.stats.total_cost();
  run.outcome.eviction_cost = run.stats.eviction_cost;
  run.outcome.misses = run.stats.misses;
  return run;
}

/// serve_partitioned over a fresh cache; `wall` includes partitioning
/// and thread start, the returned seconds only the parallel serve.
struct DispatchRun {
  Outcome outcome;
  double wall_seconds = 0;
};

DispatchRun dispatch_once(const Instance& ctx,
                          const bac::OnlinePolicy& prototype, int shards,
                          const std::vector<PageId>& requests, int threads,
                          std::uint64_t seed) {
  bac::server::ConcurrentCache cache(ctx, prototype, shards, seed);
  DispatchRun run;
  const Stopwatch wall;
  run.outcome.seconds =
      bac::server::serve_partitioned(cache, requests, threads);
  run.wall_seconds = wall.seconds();
  const auto stats = cache.stats();
  run.outcome.requests = stats.requests;
  run.outcome.cost = stats.total_cost();
  run.outcome.misses = stats.misses;
  return run;
}

// ---------------------------------------------------------------------------
// The benchmark
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string dir;
  bool tiny = false;
  bool inject_wrong_cost = false;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "zipf-wide|blocklocal-miss --seed <u64> --seconds <s> "
               "--trace 0|1 --dir <input dir> [--scale full|tiny] "
               "[--inject-wrong-cost]\n",
               msg);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_dir = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        a.workload = value();
        have_workload = true;
      } else if (arg == "--seed") {
        a.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        a.seconds = std::stod(value());
      } else if (arg == "--trace") {
        a.trace = std::stoi(value());
      } else if (arg == "--dir") {
        a.dir = value();
        have_dir = true;
      } else if (arg == "--scale") {
        const std::string s = value();
        if (s != "full" && s != "tiny") usage("--scale wants full|tiny");
        a.tiny = s == "tiny";
      } else if (arg == "--inject-wrong-cost") {
        a.inject_wrong_cost = true;
      } else {
        usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + arg).c_str());
    }
  }
  if (!have_workload || !have_dir) usage("--workload and --dir are required");
  if (a.trace != 0 && a.trace != 1) usage("--trace wants 0 or 1");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

class Bench {
 public:
  Bench(const Args& args, const Workload& w)
      : args_(args),
        w_(w),
        serve_ctx_{bac::BlockMap::contiguous(w.n, kBeta), {}, w.k},
        shards_(std::min(bac::server::ConcurrentCache::max_shards(serve_ctx_),
                         kMaxShards)),
        lru_(bac::make_policy("lru")) {}

  int run();

 private:
  // -- set-up ---------------------------------------------------------------
  void measure_setup();

  // -- end-to-end passes (untraced) -----------------------------------------
  /// A `bacsim`-style replay path; metrics and references are keyed
  /// replay_rps.<name> and replay.<name>.
  struct Replay {
    const char* name;
    const char* policy;
    std::string file;
    int k;
  };
  [[nodiscard]] std::vector<Replay> replays() const;
  void replay_pass(const Replay& r, bool keep);
  void serve_pass(bool keep);
  /// One pass of every path, in a fixed round-robin order.
  void round(bool keep) {
    for (const Replay& r : replays()) replay_pass(r, keep);
    serve_pass(keep);
  }
  void same_as_reference(const std::string& path, const Outcome& o);

  // -- traced run ------------------------------------------------------------
  void layer_round();

  // -- checks ----------------------------------------------------------------
  void final_checks();

  void print(double peak_rss_mb);

  const Args& args_;
  const Workload w_;
  Instance serve_ctx_;
  int shards_;  ///< min(max_shards, 64), as bacload picks by default
  std::unique_ptr<bac::OnlinePolicy> lru_;
  Inputs in_;
  Ledger ledger_;
  double clock_read_ = 0;
  std::map<std::string, Outcome> reference_;  ///< first pass per path
  std::map<std::string, double> stamp_num_;
  std::map<std::string, std::string> stamp_str_;
};

std::vector<Bench::Replay> Bench::replays() const {
  return {{"bact", "lru", in_.main_bact, w_.k},
          {"csv", "lru", in_.main_csv, w_.k},
          {"ba_det", "det_online", in_.det_bact, w_.det.k},
          {"ba_rand", "rand_online", in_.rand_bact, w_.rand.k}};
}

void Bench::same_as_reference(const std::string& path, const Outcome& o) {
  const auto [it, inserted] = reference_.try_emplace(path, o);
  if (inserted) return;
  ledger_.check(o.cost == it->second.cost && o.misses == it->second.misses &&
                    o.requests == it->second.requests,
                path + ": cost/misses differ between passes");
}

void Bench::measure_setup() {
  std::vector<double> total, map, open, reset, cache_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    ledger_.attempt("setup", [&] {
      const Stopwatch clock;
      bac::CsvOptions options;
      options.block_pages = kBeta;
      options.k = w_.k;
      Stopwatch step;
      const bac::CsvMapping mapping =
          bac::build_csv_mapping(in_.main_csv, options);
      map.push_back(step.seconds());
      step.reset();
      bac::BactSource source(in_.main_bact);
      open.push_back(step.seconds());
      step.reset();
      auto policy = bac::make_policy("lru");
      policy->reset(source.context());
      reset.push_back(step.seconds());
      step.reset();
      const bac::server::ConcurrentCache cache(serve_ctx_, *lru_,
                                               shards_, args_.seed);
      cache_s.push_back(step.seconds());
      total.push_back(clock.seconds());
      ledger_.check(mapping.numeric_keys &&
                        mapping.blocks.n_blocks() <= w_.n / kBeta,
                    "csv mapping infers numeric-key blocks");
    });
  }
  for (const double s : total) ledger_.sample("setup_s", s);
  for (const double s : map) ledger_.sample("trace.csv.map_s", s);
  stamp_num_["setup.csv_map_s"] = summarize(map).median;
  stamp_num_["setup.bact_open_s"] = summarize(open).median;
  stamp_num_["setup.policy_reset_s"] = summarize(reset).median;
  stamp_num_["setup.server_s"] = summarize(cache_s).median;
}

void Bench::replay_pass(const Replay& r, bool keep) {
  ledger_.attempt(std::string("replay ") + r.name, [&] {
    const Outcome o = sweep_once(r.policy, r.file, r.k, args_.seed);
    same_as_reference(std::string("replay.") + r.name, o);
    if (keep)
      ledger_.sample(std::string("replay_rps.") + r.name,
                     static_cast<double>(o.requests) / o.seconds);
  });
}

void Bench::serve_pass(bool keep) {
  ledger_.attempt("serve t1", [&] {
    const ServeRun r = serve_once(serve_ctx_, *lru_, shards_, in_.main,
                                  static_cast<std::size_t>(w_.serve_T),
                                  args_.seed);
    same_as_reference("serve.t1", r.outcome);
    if (keep) {
      ledger_.sample("serve_rps.t1", static_cast<double>(r.outcome.requests) /
                                         r.outcome.seconds);
      ledger_.sample("serve_batch_p50_us", quantile(r.call_us, 0.50));
      ledger_.sample("serve_batch_p99_us", quantile(r.call_us, 0.99));
    }
  });
}

/// One round of the traced run: every path untraced and traced, back to
/// back, plus the layer-only drives (fractional step, 1 shard, dispatch).
void Bench::layer_round() {
  const std::uint64_t seed = args_.seed;
  const double c = clock_read_;
  const auto ns_per = [](double seconds, long long n) {
    return seconds * 1e9 / static_cast<double>(std::max(1LL, n));
  };
  const auto pct = [](double part, double whole) {
    return 100.0 * part / whole;
  };

  // Replay paths: e2e = run_sweep; plain = the hand-built cell untraced;
  // traced = the hand-built cell through the decorators. A timed call
  // pays two clock reads (c each): one falls inside its measured
  // interval and is taken off the layer's self time, and both are
  // tracing cost, so core (simulate's own loop) is what remains of the
  // traced simulate after its children and 2c per timed call.
  struct ReplayLayers {
    double decode = 0, policy = 0, core = 0, cell = 0;  // ns per request
    CellTiming traced;
  };
  const std::vector<Replay> paths = replays();
  const auto replay = [&](const Replay& r, int stride,
                          const std::function<void(bac::OnlinePolicy&)>&
                              inspect) {
    ReplayLayers L;
    const std::string label = r.name;
    const Outcome e2e = sweep_once(r.policy, r.file, r.k, seed);
    const CellTiming plain = cell_once(r.policy, r.file, r.k, seed, 0, true);
    L.traced = cell_once(r.policy, r.file, r.k, seed, stride, true, inspect);
    const auto& t = L.traced;
    ledger_.check(
        t.outcome.cost == e2e.cost && plain.outcome.cost == e2e.cost,
        label + ": hand-built cell cost equals run_sweep");
    same_as_reference("replay." + label, e2e);
    const long long n = e2e.requests;
    const double decode = t.decode.self_seconds(c);
    const double pol = t.policy.self_seconds(c);
    const double core =
        t.simulate_seconds - decode - pol -
        2.0 * static_cast<double>(t.decode.timed + t.policy.timed) * c;
    const double cell = e2e.seconds - plain.simulate_seconds;
    L.decode = ns_per(decode, n);
    L.policy = ns_per(pol, n);
    L.core = ns_per(core, n);
    L.cell = ns_per(cell, n);
    ledger_.sample("replay." + label + ".trace_overhead_pct",
                   pct(t.outcome.seconds - e2e.seconds, e2e.seconds));
    ledger_.sample(
        "replay." + label + ".unattributed_pct",
        pct(e2e.seconds - (decode + pol + core + cell), e2e.seconds));
    return L;
  };

  ledger_.attempt("layers bact", [&] {
    const ReplayLayers L = replay(paths[0], kLruStride, nullptr);
    const auto& r = L.traced.result;
    const double req = static_cast<double>(r.requests);
    ledger_.sample("trace.bact.decode_ns", L.decode);
    ledger_.sample("trace.bact.bytes_per_req",
                   static_cast<double>(in_.bact_payload_bytes) / req);
    ledger_.sample("driver.cell_ns", L.cell);
    ledger_.sample("core.step_ns", L.core);
    ledger_.sample("algs.lru.on_request_ns", L.policy);
    ledger_.sample("core.miss_ratio", static_cast<double>(r.misses) / req);
    ledger_.sample("core.evict_events_per_req",
                   static_cast<double>(r.evict_block_events) / req);
    ledger_.sample("core.pages_per_evict_event",
                   static_cast<double>(r.evicted_pages) /
                       static_cast<double>(
                           std::max(1LL, r.evict_block_events)));
    // The sketch: the sweep's simulate (record_sketch on) against off.
    const CellTiming on =
        cell_once("lru", in_.main_bact, w_.k, seed, 0, true);
    const CellTiming off =
        cell_once("lru", in_.main_bact, w_.k, seed, 0, false);
    ledger_.sample("obs.sketch_ns",
                   ns_per(on.simulate_seconds - off.simulate_seconds,
                          r.requests));
  });

  ledger_.attempt("layers csv", [&] {
    const ReplayLayers L = replay(paths[1], kLruStride, nullptr);
    ledger_.sample("trace.csv.decode_ns", L.decode);
  });

  ledger_.attempt("layers ba_det", [&] {
    double flushes = 0, primal = 0, dual = 0;
    const ReplayLayers L = replay(
        paths[2], 1, [&](bac::OnlinePolicy& p) {
          auto& det = dynamic_cast<bac::DetOnlineBlockAware&>(p);
          flushes = static_cast<double>(det.flushes());
          primal = det.primal_cost();
          dual = det.dual_objective();
        });
    const double req = static_cast<double>(L.traced.result.requests);
    ledger_.sample("algs.ba_det.on_request_ns", L.policy);
    ledger_.sample("algs.ba_det.flushes_per_req", flushes / req);
    ledger_.sample("algs.ba_det.primal_dual", dual > 0 ? primal / dual : 0.0);
  });

  ledger_.attempt("layers ba_rand", [&] {
    double alterations = 0;
    const ReplayLayers L = replay(
        paths[3], 1, [&](bac::OnlinePolicy& p) {
          alterations = static_cast<double>(
              dynamic_cast<bac::RandomizedBlockAware&>(p).alterations());
        });
    const double req = static_cast<double>(L.traced.result.requests);
    ledger_.sample("algs.ba_rand.on_request_ns", L.policy);
    ledger_.sample("algs.ba_rand.alterations_per_req", alterations / req);
  });

  ledger_.attempt("layers fractional", [&] {
    // Algorithm 2 driven alone over the BA-Rand trace, with the
    // separation oracle behind a forwarding decorator.
    const bac::BlockMap blocks = bac::BlockMap::contiguous(w_.rand.n, kBeta);
    auto oracle_tally = std::make_shared<Tally>();
    bac::FractionalBlockAware frac(
        blocks, w_.rand.k,
        std::make_unique<TimedOracle>(
            std::make_unique<bac::ThresholdSeparation>(), oracle_tally));
    const Stopwatch clock;
    bac::Time t = 0;
    for (const PageId p : in_.rand) frac.step(++t, p);
    const double step_s = clock.seconds();
    const double steps = static_cast<double>(in_.rand.size());
    const double oracle_s = oracle_tally->self_seconds(c);
    ledger_.sample("algs.fractional.step_us", step_s * 1e6 / steps);
    ledger_.sample("submodular.find_violated_calls_per_step",
                   static_cast<double>(oracle_tally->calls) / steps);
    ledger_.sample("submodular.find_violated_share", oracle_s / step_s);
    ledger_.check(frac.dual_objective() <= frac.fractional_cost() + 1e-6,
                  "fractional: dual objective <= fractional cost");
  });

  ledger_.attempt("layers serve", [&] {
    const auto count = static_cast<std::size_t>(w_.serve_T);
    const ServeRun e2e =
        serve_once(serve_ctx_, *lru_, shards_, in_.main, count, seed);
    same_as_reference("serve.t1", e2e.outcome);
    auto tally = std::make_shared<Tally>();
    tally->stride = kLruStride;
    const TimedPolicy timed(bac::make_policy("lru"), tally);
    const ServeRun traced =
        serve_once(serve_ctx_, timed, shards_, in_.main, count, seed);
    const ServeRun one =
        serve_once(serve_ctx_, *lru_, 1, in_.main, count, seed);
    ledger_.check(traced.outcome.cost == e2e.outcome.cost,
                  "serve: decorated policy cost equals plain");
    const long long n = e2e.outcome.requests;
    ledger_.sample("server.get_batch_ns.s64", ns_per(e2e.call_seconds, n));
    ledger_.sample("server.get_batch_ns.s1", ns_per(one.call_seconds, n));
    const auto& stats = e2e.stats;
    ledger_.sample("server.locks_per_req",
                   static_cast<double>(stats.lock_wait_us.count()) /
                       static_cast<double>(n));
    ledger_.sample("server.lock_wait_ms", stats.lock_wait_us.sum() / 1e3);
    ledger_.sample("server.shard_p99_us", stats.lat_p99_us);
    // Layers of the serve path: policy (inside the shards) and the
    // server itself (routing, shard lock, latency sampling, audits).
    const double pol = tally->self_seconds(c);
    const double server = traced.call_seconds - pol -
                          2.0 * static_cast<double>(tally->timed) * c;
    ledger_.sample("serve.t1.trace_overhead_pct",
                   pct(traced.outcome.seconds - e2e.outcome.seconds,
                       e2e.outcome.seconds));
    ledger_.sample("serve.t1.unattributed_pct",
                   pct(e2e.outcome.seconds - (pol + server),
                       e2e.outcome.seconds));

    // Dispatch: serve_partitioned at 1 and 2 threads over fresh caches.
    const std::vector<PageId> reqs(in_.main.begin(),
                                   in_.main.begin() +
                                       static_cast<std::ptrdiff_t>(count));
    const DispatchRun d1 =
        dispatch_once(serve_ctx_, *lru_, shards_, reqs, 1, seed);
    const DispatchRun d2 =
        dispatch_once(serve_ctx_, *lru_, shards_, reqs, 2, seed);
    ledger_.check(d1.outcome.cost == e2e.outcome.cost &&
                      d2.outcome.cost == e2e.outcome.cost &&
                      d2.outcome.misses == e2e.outcome.misses,
                  "serve: 1- and 2-thread partitioned runs equal the client");
    const double rps1 = static_cast<double>(n) / d1.outcome.seconds;
    const double rps2 = static_cast<double>(n) / d2.outcome.seconds;
    ledger_.sample("server.dispatch.rps_t2", rps2);
    ledger_.sample("server.dispatch.scaling_eff", rps2 / (2.0 * rps1));
    ledger_.sample("server.dispatch.partition_ms",
                   (d2.wall_seconds - d2.outcome.seconds) * 1e3);
    bac::server::ConcurrentCache router(serve_ctx_, *lru_, shards_, seed);
    long long lane[2] = {0, 0};
    for (const PageId p : reqs) ++lane[router.shard_of(p) % 2];
    ledger_.sample("server.dispatch.lane_imbalance",
                   static_cast<double>(std::max(lane[0], lane[1])) /
                       (static_cast<double>(n) / 2.0));
  });
}

/// Correctness of the outputs against references the paths do not share.
void Bench::final_checks() {
  const std::uint64_t seed = args_.seed;
  const Cost wrong = args_.inject_wrong_cost ? 1.0 : 0.0;
  const auto replay_in_memory = [&](std::size_t count) {
    Instance inst{bac::BlockMap::contiguous(w_.n, kBeta),
                  std::vector<PageId>(in_.main.begin(),
                                      in_.main.begin() +
                                          static_cast<std::ptrdiff_t>(count)),
                  w_.k};
    bac::InstanceSource source(std::move(inst));
    auto policy = bac::make_policy("lru");
    bac::SimOptions options;
    options.seed = seed;
    return bac::simulate(source, *policy, options);
  };
  const auto compare = [&](const char* path, std::size_t count) {
    ledger_.attempt(std::string("in-memory replay for ") + path, [&] {
      const bac::RunResult r = replay_in_memory(count);
      const auto it = reference_.find(path);
      ledger_.check(it != reference_.end() &&
                        it->second.cost ==
                            r.eviction_cost + r.fetch_cost + wrong &&
                        it->second.misses == r.misses &&
                        it->second.requests == static_cast<long long>(count),
                    std::string(path) +
                        ": cost/misses equal an in-memory replay of the same "
                        "requests");
    });
  };
  compare("replay.bact", static_cast<std::size_t>(w_.replay_T));
  compare("replay.csv", static_cast<std::size_t>(w_.csv_T));

  ledger_.attempt("BA-Det certificate", [&] {
    bac::DetOnlineBlockAware det;
    bac::InstanceSource source(Instance{
        bac::BlockMap::contiguous(w_.det.n, kBeta), in_.det, w_.det.k});
    bac::SimOptions options;
    options.seed = seed;
    const bac::RunResult r = bac::simulate(source, det, options);
    const auto it = reference_.find("replay.ba_det");
    ledger_.check(it != reference_.end() &&
                      it->second.eviction_cost == r.eviction_cost,
                  "BA-Det: run_sweep cost equals an in-memory run");
    ledger_.check(det.primal_cost() == r.eviction_cost,
                  "BA-Det: primal equals the metered eviction cost");
    ledger_.check(det.primal_cost() <= static_cast<double>(w_.det.k) *
                                               det.dual_objective() +
                                           1e-6,
                  "BA-Det: primal <= k * dual");
    ledger_.check(det.max_load_ratio() <= 1.0 + 1e-9,
                  "BA-Det: max_load_ratio <= 1 + tol");
  });

  ledger_.attempt("BA-Rand certificate", [&] {
    bac::RandomizedBlockAware rnd;
    bac::InstanceSource source(Instance{
        bac::BlockMap::contiguous(w_.rand.n, kBeta), in_.rand, w_.rand.k});
    bac::SimOptions options;
    options.seed = seed;
    const bac::RunResult r = bac::simulate(source, rnd, options);
    const auto it = reference_.find("replay.ba_rand");
    ledger_.check(it != reference_.end() &&
                      it->second.eviction_cost == r.eviction_cost,
                  "BA-Rand: run_sweep cost equals an in-memory run");
    ledger_.check(r.eviction_cost >= rnd.dual_objective() - 1e-9,
                  "BA-Rand: eviction cost >= dual objective");
  });

  ledger_.attempt("serve 2 threads", [&] {
    const auto count = static_cast<std::size_t>(w_.serve_T);
    const std::vector<PageId> reqs(in_.main.begin(),
                                   in_.main.begin() +
                                       static_cast<std::ptrdiff_t>(count));
    const DispatchRun d2 =
        dispatch_once(serve_ctx_, *lru_, shards_, reqs, 2, seed);
    const auto it = reference_.find("serve.t1");
    ledger_.check(it != reference_.end() &&
                      it->second.cost == d2.outcome.cost &&
                      it->second.misses == d2.outcome.misses,
                  "serve: the 2-thread run equals the 1-thread run");
  });
}

void Bench::print(double peak_rss_mb) {
  const auto& samples = ledger_.samples();
  const auto& defs = args_.trace == 0 ? std::vector<MetricDef>(
                                            std::begin(kEndToEnd),
                                            std::end(kEndToEnd))
                                      : std::vector<MetricDef>(
                                            std::begin(kPerLayer),
                                            std::end(kPerLayer));
  std::string passes, metrics;
  for (const MetricDef& d : defs) {
    double value = 0;
    Summary s;
    if (std::string(d.name) == "peak_rss_mb") {
      value = peak_rss_mb;
      s = summarize({value});
    } else {
      const auto it = samples.find(d.name);
      ledger_.check(it != samples.end() && !it->second.empty(),
                    std::string("metric ") + d.name + " was measured");
      if (it != samples.end()) s = summarize(it->second);
      value = s.median;
    }
    ledger_.check(std::isfinite(value),
                  std::string("metric ") + d.name + " is finite");
    std::printf("  %-42s %16.6g %-12s n=%zu q1=%.6g q3=%.6g\n", d.name, value,
                d.unit, s.n, s.q1, s.q3);
    if (!passes.empty()) passes += ", ";
    passes += json_string(d.name) + ": {\"n\": " + std::to_string(s.n) +
              ", \"q1\": " + json_number(s.q1) +
              ", \"median\": " + json_number(s.median) +
              ", \"q3\": " + json_number(s.q3) + "}";
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(d.name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(d.unit) + "}";
  }
  std::string stamp;
  for (const auto& [k, v] : stamp_str_)
    stamp += (stamp.empty() ? "" : ", ") + json_string(k) + ": " +
             json_string(v);
  for (const auto& [k, v] : stamp_num_)
    stamp += (stamp.empty() ? "" : ", ") + json_string(k) + ": " +
             json_number(v);
  std::printf("{\"perfbench\": {\"stamp\": {%s}, \"passes\": {%s}}}\n",
              stamp.c_str(), passes.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {%s}}\n",
      ledger_.failed() == 0 ? "true" : "false", ledger_.attempted(),
      ledger_.failed(), metrics.c_str());
  std::fflush(stdout);
}

int Bench::run() {
  bac::configure_global_pool(1);  // bacsim --threads 1: one sweep worker

  stamp_str_["workload"] = w_.name;
  stamp_str_["seed"] = std::to_string(args_.seed);
  stamp_str_["scale"] = args_.tiny ? "tiny" : "full";
  stamp_str_["cpu"] = cpu_model();
  stamp_str_["compiler"] = PERFBENCH_COMPILER;
  stamp_str_["build_type"] = PERFBENCH_BUILD_TYPE;
  stamp_num_["nproc"] = std::thread::hardware_concurrency();
  stamp_num_["trace"] = args_.trace;
  stamp_num_["shards"] = shards_;

  const Stopwatch gen_clock;
  in_ = make_inputs(w_, args_.seed, args_.dir);
  stamp_num_["input_gen_s"] = gen_clock.seconds();

  // The peak from here on is the library's: the benchmark's inputs are
  // already resident, so the figure is the growth above them.
  const bool reset_ok = reset_peak_rss();
  const long long rss_base_kb = status_kb("VmRSS:");
  stamp_str_["peak_rss_reset"] = reset_ok ? "clear_refs" : "unavailable";
  clock_read_ = clock_read_seconds();
  stamp_num_["clock_read_ns"] = clock_read_ * 1e9;

  measure_setup();

  // Warm round, discarded: caches fill, the sweep's CSV mapping is built
  // (pass 1), and every path's reference output is fixed.
  round(false);

  const Stopwatch budget;
  int rounds = 0;
  double round_s = 0;
  while (rounds < kMinRounds || budget.seconds() + round_s <= args_.seconds) {
    const Stopwatch round_clock;
    if (args_.trace == 0) {
      round(true);
    } else {
      layer_round();
    }
    const double s = round_clock.seconds();
    round_s = std::max(round_s, s);
    ++rounds;
  }
  stamp_num_["rounds"] = rounds;
  stamp_num_["measured_s"] = budget.seconds();

  const long long hwm_kb = status_kb("VmHWM:");
  const double peak_rss_mb =
      static_cast<double>(hwm_kb - rss_base_kb) / 1024.0;
  stamp_num_["rss_base_mb"] = static_cast<double>(rss_base_kb) / 1024.0;
  stamp_num_["rss_hwm_mb"] = static_cast<double>(hwm_kb) / 1024.0;
  ledger_.check(hwm_kb > 0 && rss_base_kb > 0 && peak_rss_mb > 0,
                "peak RSS is readable and above the input baseline");

  final_checks();
  print(peak_rss_mb);
  return ledger_.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* spec = nullptr;
  for (const Workload& w : kWorkloads)
    if (args.workload == w.name) spec = &w;
  if (spec == nullptr) usage(("unknown workload " + args.workload).c_str());
  const Workload w = args.tiny ? tiny(*spec) : *spec;
  try {
    Bench bench(args, w);
    return bench.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
