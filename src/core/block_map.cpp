#include "core/block_map.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace bac {

BlockMap::BlockMap() {
  static const std::shared_ptr<const Data> empty = std::make_shared<Data>(
      Data{{}, {}, {}, std::vector<std::size_t>{0}, 0, 0, 0, 0});
  data_ = empty;
}

BlockMap::BlockMap(std::vector<BlockId> page_to_block,
                   std::vector<Cost> block_costs) {
  auto data = std::make_shared<Data>();
  data->page_to_block = std::move(page_to_block);
  data->block_costs = std::move(block_costs);
  if (data->block_costs.empty())
    throw std::invalid_argument("BlockMap: no blocks");
  const auto n_blocks = data->block_costs.size();
  for (Cost c : data->block_costs)
    if (!(c > 0)) throw std::invalid_argument("BlockMap: costs must be > 0");

  std::vector<std::size_t> sizes(n_blocks, 0);
  for (BlockId b : data->page_to_block) {
    if (b < 0 || static_cast<std::size_t>(b) >= n_blocks)
      throw std::invalid_argument("BlockMap: page assigned to invalid block");
    ++sizes[static_cast<std::size_t>(b)];
  }

  data->block_offsets.assign(n_blocks + 1, 0);
  for (std::size_t b = 0; b < n_blocks; ++b) {
    if (sizes[b] == 0) {
      // A block without pages would be drawn by block-local processes
      // and has no page to request; name it.
      throw std::invalid_argument("BlockMap: block " + std::to_string(b) +
                                  " has no pages");
    }
    data->block_offsets[b + 1] = data->block_offsets[b] + sizes[b];
  }
  data->block_pages.resize(data->page_to_block.size());
  std::vector<std::size_t> cursor(data->block_offsets.begin(),
                                  data->block_offsets.end() - 1);
  const int n = static_cast<int>(data->page_to_block.size());
  for (PageId p = 0; p < n; ++p)
    data->block_pages[cursor[static_cast<std::size_t>(
        data->page_to_block[static_cast<std::size_t>(p)])]++] = p;

  data->beta = static_cast<int>(*std::max_element(sizes.begin(), sizes.end()));
  data->min_cost =
      *std::min_element(data->block_costs.begin(), data->block_costs.end());
  data->max_cost =
      *std::max_element(data->block_costs.begin(), data->block_costs.end());
  data->total_cost = 0;
  for (Cost c : data->block_costs) data->total_cost += c;
  data_ = std::move(data);
}

BlockMap BlockMap::contiguous(int n_pages, int block_size, Cost cost) {
  if (n_pages <= 0 || block_size <= 0)
    throw std::invalid_argument("BlockMap::contiguous: sizes must be > 0");
  const int n_blocks = (n_pages + block_size - 1) / block_size;
  return contiguous_weighted(n_pages, block_size,
                             std::vector<Cost>(static_cast<std::size_t>(n_blocks), cost));
}

BlockMap BlockMap::contiguous_weighted(int n_pages, int block_size,
                                       std::vector<Cost> block_costs) {
  if (n_pages <= 0 || block_size <= 0)
    throw std::invalid_argument("BlockMap: sizes must be > 0");
  const int n_blocks = (n_pages + block_size - 1) / block_size;
  if (static_cast<int>(block_costs.size()) != n_blocks)
    throw std::invalid_argument("BlockMap: wrong number of block costs");
  std::vector<BlockId> assign(static_cast<std::size_t>(n_pages));
  for (int p = 0; p < n_pages; ++p)
    assign[static_cast<std::size_t>(p)] = p / block_size;
  return {std::move(assign), std::move(block_costs)};
}

}  // namespace bac
