#pragma once

// The pair drivers of the six pair kernels (geometry, corrections, extras,
// acceleration, energy and short-range gravity) and their one launch entry.
// A force evaluation enumerates its leaf pairs once
// (domain::InteractionDomain::pairs) and every kernel reads that list
// through pairs::launch, which picks the driver from the variant:
//   - kNative: the production driver (pairs/native.hpp), one sub-group per
//     leaf, owner computes, bit-identical at any thread count;
//   - kSelect ... kVISA: the half-warp study harness (pairs/half_warp.hpp),
//     one sub-group per leaf pair, atomic commits.
//
// Traits contract, shared by both drivers (implementations in
// sph/geometry.cpp ... sph/energy.cpp and gravity/pp_short.cpp):
//   using State;                       // trivially copyable, 4-byte multiple,
//                                      // with px, py, pz, idx and valid
//   using Accum;                       // default-zero, operator+=
//   static constexpr int kAccumWords;  // floats committed per particle
//   float box;                         // periodic box interact images in
//   State load(std::int32_t i) const;
//   Accum interact(const State& own, const State& other) const;
//   void commit(xsycl::SubGroup&, std::int32_t idx, const Accum&) const;
//   float reach2(const State& s) const;  // native prefilter: interact is
//                                        // exactly zero once the minimum-
//                                        // image r² >= max(reach2(own),
//                                        // reach2(other))

#include <string>

#include "domain/domain.hpp"
#include "pairs/half_warp.hpp"
#include "pairs/native.hpp"
#include "xsycl/comm_variant.hpp"
#include "xsycl/queue.hpp"

namespace hacc::pairs {

// Runs `traits` over the leaf pairs of `pairs` as one launch, so the launch
// history, the per-kernel cascade and the xsycl.<kernel> trace spans see one
// launch per call under every variant.
template <typename Traits>
xsycl::LaunchStats launch(xsycl::Queue& q, const std::string& name,
                          const Traits& traits, const domain::SpeciesView& view,
                          domain::PairSource pairs, xsycl::CommVariant variant,
                          const xsycl::LaunchConfig& cfg) {
  if (variant == xsycl::CommVariant::kNative) {
    return launch_native(q, name, traits, view, pairs, cfg);
  }
  const PairInteractionKernel<Traits> kernel(name, traits, view, pairs.data(),
                                             pairs.size(), variant);
  return q.submit(kernel, pairs.size(), cfg);
}

}  // namespace hacc::pairs
