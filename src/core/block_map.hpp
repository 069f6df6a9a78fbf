// Partition of the page universe into blocks with per-block costs.
//
// This is the static structure of a block-aware caching instance: fetching
// (or evicting) any non-empty subset of one block in one time step costs the
// block's cost c_B once (Section 2 of the paper). The weighted setting
// (per-block costs, aspect ratio Delta) is supported throughout.
//
// A BlockMap is immutable after construction and holds its data behind a
// shared handle, so copies are O(1) reference bumps rather than O(n_pages)
// vector clones. Every Instance header derived from the same trace (k-sweep
// overrides, per-shard server headers, streaming-source contexts) therefore
// shares one physical block structure.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/types.hpp"

namespace bac {

class BlockMap {
 public:
  /// Empty placeholder (0 pages, 0 blocks) so aggregates like Instance are
  /// default-constructible; Instance::validate() rejects it (k <= 0 or a
  /// request to a nonexistent page) before any simulation touches it.
  BlockMap();

  /// Build from an explicit page -> block assignment and per-block costs.
  /// Requires every block id in [0, block_costs.size()), positive costs and
  /// at least one page in every block.
  BlockMap(std::vector<BlockId> page_to_block, std::vector<Cost> block_costs);

  /// n pages in contiguous blocks of `block_size` (last may be smaller),
  /// all with the same cost. The unweighted setting of the paper.
  static BlockMap contiguous(int n_pages, int block_size, Cost cost = 1.0);

  /// n pages in contiguous blocks of `block_size` with explicit costs
  /// (size must equal ceil(n_pages / block_size)).
  static BlockMap contiguous_weighted(int n_pages, int block_size,
                                      std::vector<Cost> block_costs);

  [[nodiscard]] int n_pages() const noexcept {
    return static_cast<int>(data_->page_to_block.size());
  }
  [[nodiscard]] int n_blocks() const noexcept {
    return static_cast<int>(data_->block_costs.size());
  }
  [[nodiscard]] BlockId block_of(PageId p) const {
    return data_->page_to_block[static_cast<std::size_t>(p)];
  }
  [[nodiscard]] Cost cost(BlockId b) const {
    return data_->block_costs[static_cast<std::size_t>(b)];
  }
  [[nodiscard]] std::span<const PageId> pages_in(BlockId b) const {
    const auto begin = data_->block_offsets[static_cast<std::size_t>(b)];
    const auto end = data_->block_offsets[static_cast<std::size_t>(b) + 1];
    return {data_->block_pages.data() + begin,
            data_->block_pages.data() + end};
  }
  [[nodiscard]] int block_size(BlockId b) const {
    return static_cast<int>(pages_in(b).size());
  }

  /// beta: the maximum block size.
  [[nodiscard]] int beta() const noexcept { return data_->beta; }
  [[nodiscard]] Cost min_cost() const noexcept { return data_->min_cost; }
  [[nodiscard]] Cost max_cost() const noexcept { return data_->max_cost; }
  /// Delta = c_max / c_min.
  [[nodiscard]] double aspect_ratio() const noexcept {
    return data_->max_cost / data_->min_cost;
  }
  [[nodiscard]] Cost total_block_cost() const noexcept {
    return data_->total_cost;
  }

  /// True when `other` is a copy sharing this map's physical data (the
  /// k-sweep and the sharded server rely on copies being O(1); tests
  /// assert it through this).
  [[nodiscard]] bool shares_structure(const BlockMap& other) const noexcept {
    return data_ == other.data_;
  }

 private:
  struct Data {
    std::vector<BlockId> page_to_block;
    std::vector<Cost> block_costs;
    std::vector<PageId> block_pages;        // pages grouped by block
    std::vector<std::size_t> block_offsets; // n_blocks + 1 offsets
    int beta = 0;
    Cost min_cost = 0, max_cost = 0, total_cost = 0;
  };
  std::shared_ptr<const Data> data_;
};

}  // namespace bac
