#pragma once

/// \file
/// Short-range particle-particle gravity: the direct-comparison kernel
/// branch of HACC (§3.1).  Its Traits run through the same pair drivers as
/// the SPH kernels, selected by PpOptions::variant: the default kNative is
/// the production driver (sph/native.hpp — owner-computes per leaf, exact
/// cutoff prefilter, bit-identical at any thread count); a study variant
/// runs the half-warp sub-group emulation (sph/half_warp.hpp), so the
/// portability study exercises the xsycl communication variants end to
/// end.

#include <span>

#include "domain/domain.hpp"
#include "gravity/poisson.hpp"
#include "tree/rcb.hpp"
#include "xsycl/comm_variant.hpp"
#include "xsycl/queue.hpp"

namespace hacc::gravity {

/// Flat array view of the combined (dark matter + baryon) particle state
/// the gravity solver operates on.
struct GravityArrays {
  const float* x = nullptr;
  const float* y = nullptr;
  const float* z = nullptr;
  const float* mass = nullptr;
  float* ax = nullptr;  ///< accumulated (not zeroed here)
  float* ay = nullptr;
  float* az = nullptr;
  std::size_t n = 0;
};

/// Physics and launch knobs of the short-range kernel.
struct PpOptions {
  float box = 1.0f;
  float G = 1.0f;
  float softening = 0.0f;  ///< Plummer softening length
  xsycl::CommVariant variant = xsycl::CommVariant::kNative;
  xsycl::LaunchConfig launch;
};

/// Flops per particle-pair interaction (cost model / op counting).
inline constexpr double kGravityPpFlops = 40.0;

/// Runs the short-range kernel over the leaf pairs of `pairs` (cutoff must
/// match poly.r_cut()).  The view is a whole tree (implicit conversion) or a
/// species-filtered window of the shared interaction domain; the source may
/// be streamed.  Accelerations are accumulated into arrays.ax/ay/az — under
/// kNative with one add per particle.
xsycl::LaunchStats run_pp_short(xsycl::Queue& q, const GravityArrays& arrays,
                                const domain::SpeciesView& view,
                                const domain::PairSource& pairs,
                                const PolyShortForce& poly, const PpOptions& opt,
                                const std::string& timer_name = "grav_pp");

/// Scalar double-precision reference (brute force over all pairs).
void reference_pp_short(const GravityArrays& arrays, const PolyShortForce& poly,
                        float box, float G, float softening);

}  // namespace hacc::gravity
