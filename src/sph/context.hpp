#pragma once

// Shared launch context for the five hot-spot kernels.  Mirrors CRK-HACC's
// kernel launch abstraction (§4.2): kernels are function objects submitted
// through a queue, with per-launch sub-group size and variant selection.
//
// HydroOptions::variant picks the pair driver.  The default, kNative, is
// the production path: the owner-computes CPU driver of sph/native.hpp,
// one launch per kernel with an exact cutoff prefilter and results that do
// not depend on the thread count.  The five study variants run the
// half-warp sub-group emulation of sph/half_warp.hpp for the portability
// study (profiles, figures, variant tests).
//
// Pair kernels consume a domain::SpeciesView (leaf slot ranges + slot ->
// particle permutation) and a domain::PairSource.  The native driver
// collects the source once into per-leaf partner lists; the harness
// submits one launch per leaf-pair batch, so a streamed source never holds
// the full interaction list there.

#include <span>
#include <string>

#include "core/particles.hpp"
#include "domain/domain.hpp"
#include "sph/half_warp.hpp"
#include "sph/physics.hpp"
#include "tree/rcb.hpp"
#include "xsycl/queue.hpp"

namespace hacc::sph {

struct HydroOptions {
  float box = 1.0f;
  ViscosityParams<float> visc;
  xsycl::CommVariant variant = xsycl::CommVariant::kNative;
  xsycl::LaunchConfig launch;
};

template <typename Traits>
xsycl::LaunchStats launch_pairs(xsycl::Queue& q, const std::string& name, Traits traits,
                                const domain::SpeciesView& view,
                                const domain::PairSource& pairs,
                                const HydroOptions& opt) {
  return launch_pair_batches(q, name, traits, view, pairs, opt.variant,
                             opt.launch);
}

template <typename Body>
xsycl::LaunchStats launch_particles(xsycl::Queue& q, const std::string& name,
                                    std::size_t n, Body body, const HydroOptions& opt) {
  ForEachParticleKernel<Body> kernel(name, n, std::move(body));
  return q.submit(kernel, subgroups_for(n, opt.launch.sub_group_size), opt.launch);
}

}  // namespace hacc::sph
