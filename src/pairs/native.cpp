#include "pairs/native.hpp"

namespace hacc::pairs {

LeafPartners LeafPartners::build(std::size_t n_leaves, domain::PairSource pairs) {
  LeafPartners out;
  out.offsets.assign(n_leaves + 1, 0);
  for (const tree::LeafPair& lp : pairs) {
    ++out.offsets[lp.a + 1];
    if (lp.b != lp.a) ++out.offsets[lp.b + 1];
  }
  for (std::size_t l = 0; l < n_leaves; ++l) out.offsets[l + 1] += out.offsets[l];
  out.partners.resize(out.offsets[n_leaves]);
  std::vector<std::int32_t> next(out.offsets.begin(), out.offsets.end() - 1);
  for (const tree::LeafPair& lp : pairs) {
    out.partners[next[lp.a]++] = lp.b;
    if (lp.b != lp.a) out.partners[next[lp.b]++] = lp.a;
  }
  return out;
}

}  // namespace hacc::pairs
