#include "trace/bact.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <vector>

namespace bac {

namespace {

constexpr char kMagic[6] = {'B', 'A', 'C', 'T', '1', '\n'};

void put_varint(std::ostream& os, std::uint64_t v) {
  char buf[10];
  int n = 0;
  do {
    char byte = static_cast<char>(v & 0x7f);
    v >>= 7;
    if (v != 0) byte = static_cast<char>(byte | 0x80);
    buf[n++] = byte;
  } while (v != 0);
  os.write(buf, n);
}

std::uint64_t get_varint(std::istream& is, const char* what) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const int c = is.get();
    if (c == std::char_traits<char>::eof())
      throw std::runtime_error(std::string("bact: truncated ") + what);
    // The 10th byte (shift 63) may only carry the top bit of a 64-bit
    // value; anything in bits 1-6 would be shifted out of the word and
    // silently decode to a wrong (smaller) value instead of an error.
    if (shift == 63 && (c & 0x7e) != 0)
      throw std::runtime_error(std::string("bact: varint overflow in ") +
                               what);
    v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) return v;
    shift += 7;
    if (shift >= 64)
      throw std::runtime_error(std::string("bact: varint overflow in ") +
                               what);
  }
}

void put_double(std::ostream& os, double x) {
  const auto bits = std::bit_cast<std::uint64_t>(x);
  char buf[8];
  for (int i = 0; i < 8; ++i)
    buf[i] = static_cast<char>((bits >> (8 * i)) & 0xff);
  os.write(buf, 8);
}

double get_double(std::istream& is, const char* what) {
  char buf[8];
  if (!is.read(buf, 8))
    throw std::runtime_error(std::string("bact: truncated ") + what);
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(static_cast<unsigned char>(buf[i]))
            << (8 * i);
  return std::bit_cast<double>(bits);
}

void write_header(std::ostream& os, const BlockMap& blocks, int k,
                  long long declared_T) {
  os.write(kMagic, sizeof kMagic);
  put_varint(os, static_cast<std::uint64_t>(blocks.n_pages()));
  put_varint(os, static_cast<std::uint64_t>(k));
  put_varint(os, static_cast<std::uint64_t>(blocks.n_blocks()));
  for (BlockId b = 0; b < blocks.n_blocks(); ++b)
    put_double(os, blocks.cost(b));
  for (PageId p = 0; p < blocks.n_pages(); ++p)
    put_varint(os, static_cast<std::uint64_t>(blocks.block_of(p)));
  put_varint(os, static_cast<std::uint64_t>(declared_T));
}

/// Parses the fixed-size header; leaves the stream at the first request.
Instance read_header(std::istream& is, long long& declared_T) {
  char magic[sizeof kMagic];
  if (!is.read(magic, sizeof magic) ||
      std::memcmp(magic, kMagic, sizeof kMagic) != 0)
    throw std::runtime_error("bact: missing BACT1 magic (not a .bact file?)");
  const auto n = static_cast<long long>(get_varint(is, "n_pages"));
  const auto k = static_cast<long long>(get_varint(is, "k"));
  const auto m = static_cast<long long>(get_varint(is, "n_blocks"));
  constexpr long long kMax = 1ll << 31;
  if (n <= 0 || n >= kMax || k <= 0 || k >= kMax || m <= 0 || m >= kMax)
    throw std::runtime_error("bact: implausible header sizes");
  std::vector<Cost> costs(static_cast<std::size_t>(m));
  for (auto& c : costs) {
    c = get_double(is, "block cost");
    if (!(c > 0))
      throw std::runtime_error("bact: non-positive block cost");
  }
  std::vector<BlockId> page_to_block(static_cast<std::size_t>(n));
  for (auto& b : page_to_block) {
    const auto v = get_varint(is, "page map");
    if (v >= static_cast<std::uint64_t>(m))
      throw std::runtime_error("bact: page mapped to out-of-range block");
    b = static_cast<BlockId>(v);
  }
  declared_T = static_cast<long long>(get_varint(is, "declared_T"));
  Instance header{BlockMap(std::move(page_to_block), std::move(costs)),
                  {},
                  static_cast<int>(k)};
  header.validate();
  return header;
}

Instance open_bact_header(std::ifstream& in, const std::string& path,
                          long long& declared_T) {
  if (!in) throw std::runtime_error("bact: cannot open " + path);
  return read_header(in, declared_T);
}

}  // namespace

BactWriter::BactWriter(std::ostream& os, const BlockMap& blocks, int k,
                       long long declared_T)
    : os_(&os), n_pages_(blocks.n_pages()), declared_T_(declared_T) {
  write_header(os, blocks, k, declared_T);
}

void BactWriter::add(PageId p) {
  if (finished_) throw std::logic_error("BactWriter: add after finish");
  if (p < 0 || p >= n_pages_)
    throw std::out_of_range("BactWriter: page out of range");
  put_varint(*os_, static_cast<std::uint64_t>(p) + 1);
  ++written_;
}

void BactWriter::finish() {
  if (finished_) return;
  finished_ = true;
  put_varint(*os_, 0);
  if (declared_T_ > 0 && written_ != declared_T_)
    throw std::logic_error("BactWriter: wrote " + std::to_string(written_) +
                           " requests, declared " +
                           std::to_string(declared_T_));
  if (!os_->flush())
    throw std::runtime_error("BactWriter: short write");
}

BactWriter::~BactWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; call finish() directly to observe errors.
  }
}

void save_bact(const Instance& inst, std::ostream& os) {
  BactWriter writer(os, inst.blocks, inst.k,
                    static_cast<long long>(inst.requests.size()));
  for (PageId p : inst.requests) writer.add(p);
  writer.finish();
}

void save_bact(const Instance& inst, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_bact: cannot open " + path);
  save_bact(inst, out);
}

Instance load_bact(const std::string& path) {
  BactSource src(path);
  return materialize(src);
}

BactSource::BactSource(const std::string& path)
    : path_(path),
      in_(path, std::ios::binary),
      header_(open_bact_header(in_, path, declared_T_)),
      buf_(64 * 1024) {
  first_request_ = in_.tellg();
}

int BactSource::read_byte() {
  if (buf_pos_ == buf_len_) {
    in_.read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_len_ = static_cast<std::size_t>(in_.gcount());
    buf_pos_ = 0;
    if (buf_len_ == 0) return -1;
  }
  return static_cast<unsigned char>(buf_[buf_pos_++]);
}

bool BactSource::decode_request(PageId& p) {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    const int c = read_byte();
    if (c < 0) throw std::runtime_error("bact: truncated request");
    // Mirror of get_varint's 10th-byte guard: bits 1-6 of the shift-63
    // byte would be discarded by the shift, turning an over-range varint
    // into a silently wrong page id.
    if (shift == 63 && (c & 0x7e) != 0)
      throw std::runtime_error("bact: varint overflow in request");
    v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
    if ((c & 0x80) == 0) break;
    shift += 7;
    if (shift >= 64)
      throw std::runtime_error("bact: varint overflow in request");
  }
  if (v == 0) {
    done_ = true;
    if (declared_T_ > 0 && yielded_ != declared_T_)
      throw std::runtime_error(
          "bact: " + path_ + " declared " + std::to_string(declared_T_) +
          " requests but contains " + std::to_string(yielded_));
    return false;
  }
  if (v > static_cast<std::uint64_t>(header_.n_pages()))
    throw std::runtime_error("bact: request to out-of-range page in " +
                             path_);
  p = static_cast<PageId>(v - 1);
  ++yielded_;
  return true;
}

bool BactSource::next(PageId& p) {
  if (done_) return false;
  return decode_request(p);
}

int BactSource::next_batch(PageId* out, int cap) {
  if (done_) return 0;
  int i = 0;
  while (i < cap && decode_request(out[i])) ++i;
  return i;
}

void BactSource::rewind() {
  in_.clear();
  in_.seekg(first_request_);
  if (!in_)
    throw std::runtime_error("bact: rewind failed on " + path_);
  yielded_ = 0;
  done_ = false;
  buf_pos_ = buf_len_ = 0;
}

}  // namespace bac
