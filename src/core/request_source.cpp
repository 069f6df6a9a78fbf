#include "core/request_source.hpp"

namespace bac {

Instance materialize(RequestSource& source) {
  const Instance& ctx = source.context();
  Instance inst{ctx.blocks, {}, ctx.k};
  const long long hint = source.horizon_hint();
  if (hint > 0) inst.requests.reserve(static_cast<std::size_t>(hint));
  PageId batch[512];
  int got;
  while ((got = source.next_batch(batch, 512)) > 0)
    inst.requests.insert(inst.requests.end(), batch, batch + got);
  inst.validate();
  return inst;
}

}  // namespace bac
