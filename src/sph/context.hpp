#pragma once

// Shared launch context for the five hot-spot kernels.  Mirrors CRK-HACC's
// kernel launch abstraction (§4.2): kernels are function objects submitted
// through a queue, with per-launch sub-group size and variant selection.
//
// HydroOptions::variant picks the pair driver (pairs/pairs.hpp).  The
// default, kNative, is the production path: the owner-computes CPU driver,
// one launch per kernel with an exact cutoff prefilter and results that do
// not depend on the thread count.  The five study variants run the
// half-warp sub-group emulation for the portability study (profiles,
// figures, variant tests).
//
// Pair kernels consume a domain::SpeciesView (leaf slot ranges + slot ->
// particle permutation) and the leaf-pair list of the force evaluation (a
// domain::PairSource); all five read the same list.  The per-particle
// finalize passes run through ForEachParticleKernel below.

#include <span>
#include <string>

#include "core/particles.hpp"
#include "domain/domain.hpp"
#include "pairs/pairs.hpp"
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

// Per-particle "finalize" kernels (self terms, moment solves, EOS): one lane
// per particle, S particles per sub-group.
template <typename Body>
class ForEachParticleKernel {
 public:
  ForEachParticleKernel(std::string name, std::size_t n, Body body)
      : name_(std::move(name)), n_(n), body_(std::move(body)) {}

  std::string name() const { return name_; }
  std::size_t local_bytes_per_sg(int) const { return 0; }
  std::size_t n_particles() const { return n_; }

  void operator()(xsycl::SubGroup& sg) const {
    for (int l = 0; l < sg.size(); ++l) {
      const std::size_t i = sg.index() * static_cast<std::size_t>(sg.size()) + l;
      if (i < n_) body_(static_cast<std::int32_t>(i));
    }
    sg.counters().global_loads += static_cast<std::uint64_t>(sg.size());
    sg.counters().global_stores += static_cast<std::uint64_t>(sg.size());
  }

 private:
  std::string name_;
  std::size_t n_;
  Body body_;
};

// Sub-groups needed to cover n particles one lane each.
inline std::uint64_t subgroups_for(std::size_t n, int sg_size) {
  return (n + sg_size - 1) / static_cast<std::size_t>(sg_size);
}

template <typename Body>
xsycl::LaunchStats launch_particles(xsycl::Queue& q, const std::string& name,
                                    std::size_t n, Body body, const HydroOptions& opt) {
  ForEachParticleKernel<Body> kernel(name, n, std::move(body));
  return q.submit(kernel, subgroups_for(n, opt.launch.sub_group_size), opt.launch);
}

}  // namespace hacc::sph
