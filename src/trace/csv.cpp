#include "trace/csv.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string_view>

namespace bac {

namespace {

/// One parsed data row. The key is a view into the caller's line buffer:
/// parsing allocates nothing, which matters in pass 2 where every
/// request re-parses a line.
struct RowView {
  std::string_view key;
  double size = 1.0;
};

/// Numeric-field validation plus (optionally) the parsed value. Keeps
/// strtod semantics exactly — `scratch` is a reused buffer that only
/// exists because strtod needs NUL termination a view cannot provide.
bool numeric(std::string_view field, std::string& scratch,
             double* out = nullptr) {
  // Space-padded fields ("1, 4096") are common in hand-written and
  // tool-exported CSVs; strtod accepted the leading whitespace, so the
  // validation must keep doing so.
  std::size_t lo = 0, hi = field.size();
  while (lo < hi && (field[lo] == ' ' || field[lo] == '\t')) ++lo;
  while (hi > lo && (field[hi - 1] == ' ' || field[hi - 1] == '\t')) --hi;
  if (lo == hi) return false;
  const std::string_view s = field.substr(lo, hi - lo);
  // Plain decimal/scientific only. strtod also accepts "inf", "nan", and
  // hex floats ("0x1p3"); none of those is a sane timestamp or object
  // size, and letting them through turns one corrupt row into a silently
  // skewed instance. The charset gate rejects them before parsing; the
  // isfinite check catches overflow ("1e999" parses to +inf with ERANGE).
  for (const char c : s) {
    const bool ok = (c >= '0' && c <= '9') || c == '+' || c == '-' ||
                    c == '.' || c == 'e' || c == 'E';
    if (!ok) return false;
  }
  scratch.assign(s.data(), s.size());
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(scratch.c_str(), &end);
  if (errno != 0 || end != scratch.c_str() + scratch.size() ||
      !std::isfinite(v))
    return false;
  if (out != nullptr) *out = v;
  return true;
}

/// Parse one line, keeping only the columns that matter as views into
/// `line`. Non-data rows (headers, comments, ragged lines — i.e.
/// anything whose timestamp column is not numeric) return false and are
/// skipped. In strict mode, rows that *are* data rows but carry a
/// malformed size field throw with the 1-based line number instead of
/// silently coercing the size to 1.0.
bool parse_row(std::string_view line, const CsvOptions& opt, RowView& row,
               long long line_no, std::string& scratch) {
  std::string_view time_field, key_field, size_field;
  bool have_time = false, have_key = false, have_size = false;
  std::size_t start = 0;
  for (int idx = 0;; ++idx) {
    const std::size_t pos = line.find(opt.delimiter, start);
    const bool last = pos == std::string_view::npos;
    std::string_view field =
        line.substr(start, (last ? line.size() : pos) - start);
    // CRLF normalization: a Windows line ending would otherwise glue
    // '\r' onto the last field (rejecting it as numeric or corrupting
    // the key).
    if (last && !field.empty() && field.back() == '\r')
      field.remove_suffix(1);
    if (idx == opt.time_col) {
      time_field = field;
      have_time = true;
    }
    if (idx == opt.key_col) {
      key_field = field;
      have_key = true;
    }
    if (opt.size_col >= 0 && idx == opt.size_col) {
      size_field = field;
      have_size = true;
    }
    if (last) break;
    start = pos + 1;
  }
  // Only timestamp and key are required; the size column is optional
  // (two-column timestamp,key traces are valid, size defaults to 1).
  if (!have_time || !have_key) return false;
  if (!numeric(time_field, scratch)) return false;
  row.key = key_field;
  if (row.key.empty()) {
    if (opt.strict)
      throw std::runtime_error("csv: empty key field at line " +
                               std::to_string(line_no));
    return false;
  }
  row.size = 1.0;
  if (have_size) {
    if (!numeric(size_field, scratch, &row.size)) {
      row.size = 1.0;
      if (opt.strict)
        throw std::runtime_error("csv: malformed size field '" +
                                 std::string(size_field) + "' at line " +
                                 std::to_string(line_no));
    }
  }
  return true;
}

bool parse_unsigned(std::string_view s, std::string& scratch,
                    std::uint64_t& out) {
  if (s.empty()) return false;
  scratch.assign(s.data(), s.size());
  char* end = nullptr;
  errno = 0;
  const std::uint64_t v = std::strtoull(scratch.c_str(), &end, 10);
  if (errno != 0 || end != scratch.c_str() + scratch.size()) return false;
  out = v;
  return true;
}

void check_options(const CsvOptions& opt) {
  if (opt.block_pages <= 0)
    throw std::invalid_argument("csv: block_pages must be positive");
  if (opt.k <= 0)
    throw std::invalid_argument("csv: options.k (cache size) must be set");
  if (opt.time_col < 0 || opt.key_col < 0)
    throw std::invalid_argument("csv: negative column index");
}

}  // namespace

CsvMapping build_csv_mapping(const std::string& path,
                             const CsvOptions& options) {
  check_options(options);
  std::ifstream in(path);
  if (!in) throw std::runtime_error("csv: cannot open " + path);

  // First-appearance page ids; per-page key value and size statistics.
  FlatMap<std::string, PageId> key_to_page;
  std::vector<std::uint64_t> key_values;  // numeric value per page
  std::vector<double> size_sum;
  std::vector<long long> size_count;
  bool all_numeric = true;
  long long rows = 0;

  std::string line;
  std::string scratch;
  RowView row;
  long long line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (!parse_row(line, options, row, line_no, scratch)) continue;
    ++rows;
    // Heterogeneous upsert: one hash per row, and the key is only copied
    // into an owning std::string the first time it appears.
    const auto [page, inserted] = key_to_page.try_emplace(
        row.key, static_cast<PageId>(key_to_page.size()));
    if (inserted) {
      std::uint64_t v = 0;
      if (all_numeric && parse_unsigned(row.key, scratch, v)) {
        key_values.push_back(v);
      } else {
        all_numeric = false;
      }
      size_sum.push_back(0.0);
      size_count.push_back(0);
    }
    const auto p = static_cast<std::size_t>(*page);
    size_sum[p] += row.size;
    ++size_count[p];
  }
  if (in.bad()) throw std::runtime_error("csv: read error on " + path);
  if (rows == 0)
    throw std::runtime_error("csv: no data rows in " + path +
                             " (expected timestamp" +
                             std::string(1, options.delimiter) + "key" +
                             std::string(1, options.delimiter) + "size)");

  const auto n = static_cast<int>(key_to_page.size());
  std::vector<BlockId> page_to_block(static_cast<std::size_t>(n));
  int n_blocks;
  if (all_numeric) {
    // Extent grouping: keys in the same aligned span share a block.
    const auto span = static_cast<std::uint64_t>(options.block_pages);
    std::map<std::uint64_t, BlockId> extent_ids;  // ordered for determinism
    for (const std::uint64_t v : key_values) extent_ids[v / span] = 0;
    BlockId next = 0;
    for (auto& [extent, id] : extent_ids) id = next++;
    for (std::size_t p = 0; p < key_values.size(); ++p)
      page_to_block[p] = extent_ids[key_values[p] / span];
    n_blocks = static_cast<int>(extent_ids.size());
  } else {
    // Arrival grouping: consecutive first-seen keys share a block.
    for (int p = 0; p < n; ++p)
      page_to_block[static_cast<std::size_t>(p)] = p / options.block_pages;
    n_blocks = (n + options.block_pages - 1) / options.block_pages;
  }

  std::vector<Cost> costs(static_cast<std::size_t>(n_blocks), 1.0);
  if (options.cost_from_size) {
    std::vector<double> block_sum(static_cast<std::size_t>(n_blocks), 0.0);
    std::vector<long long> block_cnt(static_cast<std::size_t>(n_blocks), 0);
    for (int p = 0; p < n; ++p) {
      const auto b = static_cast<std::size_t>(
          page_to_block[static_cast<std::size_t>(p)]);
      block_sum[b] += size_sum[static_cast<std::size_t>(p)];
      block_cnt[b] += size_count[static_cast<std::size_t>(p)];
    }
    for (std::size_t b = 0; b < costs.size(); ++b)
      if (block_cnt[b] > 0)
        costs[b] = std::max(
            1.0, block_sum[b] / static_cast<double>(block_cnt[b]) /
                     options.page_bytes);
  }

  CsvMapping mapping{BlockMap(std::move(page_to_block), std::move(costs)),
                     options.k, std::move(key_to_page), rows, all_numeric};
  // The inferred structure must itself be a valid instance (beta <= k).
  mapping.header().validate();
  return mapping;
}

CsvSource::CsvSource(const std::string& path,
                     std::shared_ptr<const CsvMapping> map,
                     CsvOptions options)
    : path_(path),
      map_(std::move(map)),
      options_(options),
      in_(path),
      header_(map_->header()) {
  if (!in_) throw std::runtime_error("csv: cannot open " + path);
}

bool CsvSource::read_row(std::string& line, std::string_view& key) {
  RowView row;
  while (std::getline(in_, line)) {
    ++line_no_;
    if (!parse_row(line, options_, row, line_no_, scratch_)) continue;
    key = row.key;
    return true;
  }
  if (in_.bad()) throw std::runtime_error("csv: read error on " + path_);
  return false;
}

PageId CsvSource::translate(std::uint64_t hash, std::string_view key) const {
  const PageId* p = map_->key_to_page.find_hashed(hash, key);
  if (p == nullptr)
    throw std::runtime_error("csv: key '" + std::string(key) + "' in " +
                             path_ +
                             " absent from the mapping (file changed "
                             "between passes?)");
  return *p;
}

bool CsvSource::next(PageId& p) {
  std::string_view key;
  if (!read_row(lines_[0], key)) return false;
  p = translate(map_->key_to_page.hash(key), key);
  return true;
}

int CsvSource::next_batch(PageId* out, int cap) {
  // baclint: hot-path — the per-request decode loop must stay allocation-free
  //
  // Software-pipelined: parse row r+1 and prefetch its probe group while
  // row r's lookup resolves, hiding the interner's cache miss behind the
  // next line's parse. Two alternating line buffers keep the pending
  // key's view alive while getline overwrites the other buffer.
  int produced = 0;
  std::string_view pending_key;
  std::uint64_t pending_hash = 0;
  bool has_pending = false;
  int buf = 0;
  while (produced + (has_pending ? 1 : 0) < cap) {
    std::string_view key;
    if (!read_row(lines_[buf], key)) break;
    const std::uint64_t h = map_->key_to_page.hash(key);
    map_->key_to_page.prefetch(h);
    if (has_pending) out[produced++] = translate(pending_hash, pending_key);
    pending_key = key;
    pending_hash = h;
    has_pending = true;
    buf ^= 1;
  }
  if (has_pending && produced < cap)
    out[produced++] = translate(pending_hash, pending_key);
  return produced;
}

void CsvSource::rewind() {
  in_.clear();
  in_.seekg(0);
  line_no_ = 0;
  if (!in_) throw std::runtime_error("csv: rewind failed on " + path_);
}

Instance load_csv_trace(const std::string& path, const CsvOptions& options) {
  auto map = std::make_shared<const CsvMapping>(
      build_csv_mapping(path, options));
  CsvSource src(path, map, options);
  return materialize(src);
}

}  // namespace bac
