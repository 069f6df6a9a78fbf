// Shared plumbing for the experiment benches: standard workload builders,
// table/CSV emission, structured JSON records, and the experiment registry
// driven by the bench_main.cpp entry point. Each bench binary regenerates
// one experiment from the per-binary index in bench/DESIGN.md and prints a
// paper-style table plus the theory prediction next to it.
//
// Every binary accepts the shared flags parsed by bench_main.cpp:
//   --seed <u64>     offset all workload seeds (default 1 = paper tables)
//   --trials <n>     override Monte-Carlo trial counts (default: per-exp)
//   --threads <n>    worker threads for parallel sweeps (default: hardware)
//   --json [path]    write a BENCH_<bench>.json record file
//   --compare <path> print per-case speedup vs a baseline record file
//   --only <name>    run a single registered experiment (repeatable)
//   --list           print registered experiments and exit
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/instance.hpp"
#include "trace/generators.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace bac::bench {

// --- harness state (storage lives in bench_main.cpp) -----------------------

struct Options {
  std::uint64_t seed = 1;   ///< 1 = the seeds baked into each experiment
  int trials = 0;           ///< 0 = per-experiment default
  int threads = 0;          ///< 0 = hardware concurrency
  bool json = false;
  std::string json_path;    ///< resolved to BENCH_<bench>.json when empty
  std::string compare_path; ///< baseline BENCH_*.json to diff against
  std::vector<std::string> only;
};

/// Flags for the current run; populated by bench_main before experiments.
Options& options();

/// One structured data point (a row of the JSON output). `extra` holds
/// experiment-specific numeric columns (ratios, bounds, throughput, ...).
struct Record {
  std::string workload;
  int n = 0;      ///< pages
  int m = 0;      ///< blocks
  int k = 0;      ///< cache size
  int beta = 0;   ///< max block size
  double cost = 0.0;
  double wall_ms = 0.0;
  std::vector<std::pair<std::string, double>> extra;

  Record& named(std::string w) { workload = std::move(w); return *this; }
  Record& costing(double c) { cost = c; return *this; }
  Record& timing(double ms) { wall_ms = ms; return *this; }
  Record& with(std::string key, double value) {
    extra.emplace_back(std::move(key), value);
    return *this;
  }
};

/// Append a record under the experiment currently being run.
void record(Record r);

using ExperimentFn = void (*)();
/// Register an experiment; returns true so it can seed a namespace-scope
/// initializer. Experiments run in registration order.
bool register_experiment(const char* name, ExperimentFn fn);

#define BAC_BENCH_CONCAT_(a, b) a##b
#define BAC_BENCH_CONCAT(a, b) BAC_BENCH_CONCAT_(a, b)
/// Register `fn` (a void() function or captureless lambda) as an
/// experiment named `name` in this binary's registry.
#define BAC_BENCH_EXPERIMENT(name, fn)                                      \
  [[maybe_unused]] const bool BAC_BENCH_CONCAT(bac_bench_reg_, __LINE__) = \
      ::bac::bench::register_experiment(name, fn)

/// Derive a workload seed from the experiment's baked-in value so that the
/// default --seed 1 reproduces the paper tables and other seeds explore
/// fresh instances.
inline std::uint64_t seed_of(std::uint64_t baked) {
  return baked + options().seed - 1;
}

/// Monte-Carlo trial count: the --trials override, or the experiment default.
inline int trials_or(int experiment_default) {
  return options().trials > 0 ? options().trials : experiment_default;
}

/// Fill a record's instance-shape columns (n / m / k / beta).
inline Record shape_of(const Instance& inst) {
  Record r;
  r.n = inst.n_pages();
  r.m = inst.blocks.n_blocks();
  r.k = inst.k;
  for (BlockId b = 0; b < inst.blocks.n_blocks(); ++b)
    r.beta = std::max(r.beta, inst.blocks.block_size(b));
  return r;
}

// --- workloads --------------------------------------------------------------

/// Workloads used across experiments (names appear in result tables).
enum class Load { Zipf, BlockLocal, Scan, Phased, Uniform };

inline const char* load_name(Load l) {
  switch (l) {
    case Load::Zipf: return "zipf0.9";
    case Load::BlockLocal: return "blocklocal";
    case Load::Scan: return "scan";
    case Load::Phased: return "phased";
    case Load::Uniform: return "uniform";
  }
  return "?";
}

/// Workload `l` over n pages in contiguous blocks of beta, materialized;
/// the parameters behind each name are trace/generators.hpp's
/// named_workload table, shared with bacsim.
inline Instance build_load(Load l, int n, int beta, int k, Time T,
                           std::uint64_t seed) {
  SyntheticSource source(BlockMap::contiguous(n, beta), k, T,
                         *named_workload(load_name(l), k, beta, T),
                         Xoshiro256pp(seed));
  return materialize(source);
}

// --- reporting --------------------------------------------------------------

/// Print the table and mirror it to bench_results/<bench>_<tag>.csv.
inline void emit(Table& table, const std::string& bench,
                 const std::string& title, const std::string& tag = "") {
  table.print(std::cout, title);
  std::filesystem::create_directories("bench_results");
  const std::string path =
      "bench_results/" + bench + (tag.empty() ? "" : "_" + tag) + ".csv";
  table.write_csv(path);
  std::cout << "  [csv: " << path << "]\n\n";
}

}  // namespace bac::bench
