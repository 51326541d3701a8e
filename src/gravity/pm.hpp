#pragma once

/// \file
/// Particle-mesh long-range gravity: CIC deposit -> real-to-complex FFT ->
/// filtered inverse-Laplacian Green's function on the half spectrum ->
/// gradient -> CIC interpolation.  This is the distributed-FFT Poisson path
/// of HACC (§3.1), realized with the in-house threaded FFT at single-node
/// scale.
///
/// The density field is real, so the spectral pipeline runs on an
/// n x n x (n/2+1) half spectrum (Hermitian symmetry) instead of full
/// complex grids.  The force gradient is selectable: the spectral reference
/// multiplies phi(k) by -i k_a per component (one r2c + three c2r per
/// solve), while the fd4/fd6 paths inverse-transform phi once and
/// differentiate the real-space potential with a 4th/6th-order centered
/// stencil — trading a small, documented force error for 3x fewer inverse
/// transforms.  The spectral forces never need the real-space potential, so
/// that path keeps phi(k) and potential() inverts it on demand.

#include <span>
#include <string>
#include <vector>

#include "fft/fft.hpp"
#include "gravity/poisson.hpp"
#include "mesh/cic.hpp"
#include "obs/metrics.hpp"
#include "util/vec3.hpp"

namespace hacc::gravity {

/// How real-space forces are derived from the spectral potential phi(k).
enum class PmGradient {
  kSpectral,  ///< -i k_a phi(k), one inverse per component (accuracy reference)
  kFd4,       ///< one inverse of phi(k) + 4th-order finite-difference gradient
  kFd6,       ///< one inverse of phi(k) + 6th-order finite-difference gradient
};

/// The config-key spelling of a gradient mode ("spectral" | "fd4" | "fd6").
const char* to_string(PmGradient g);

/// Parses "spectral" | "fd4" | "fd6"; returns false (out untouched) for
/// unknown names — the util::Config wiring used by examples and tools.
bool parse_pm_gradient(const std::string& name, PmGradient& out);

/// Mesh geometry and physics knobs of one PM solve.
struct PmOptions {
  int grid_n = 32;          ///< mesh cells per side (power of two)
  double box = 1.0;         ///< periodic box size
  double r_split = 0.0;     ///< Gaussian split scale; 0 disables the filter
  double G = 1.0;           ///< gravitational constant in code units
  bool deconvolve_cic = true;  ///< divide by the CIC window twice
  PmGradient gradient = PmGradient::kSpectral;
};

/// The long-range Poisson solver.  Thread-compatible, not thread-safe:
/// compute_forces parallelizes internally over the pool but works in member
/// workspace buffers (mass/potential/force grids, half-spectrum arrays)
/// reused across calls, so concurrent calls need one PmSolver instance per
/// caller (docs/CONCURRENCY.md).
class PmSolver {
 public:
  explicit PmSolver(const PmOptions& opt,
                    util::ThreadPool& pool = util::ThreadPool::global());

  const PmOptions& options() const { return opt_; }

  /// The gravitational "constant" varies with the scale factor in comoving
  /// coordinates; the solver rescales it per force evaluation.
  void set_gravitational_constant(double g) { opt_.G = g; }

  /// Computes long-range accelerations at the particle positions.
  /// mass and pos must have equal lengths; accel is overwritten.
  void compute_forces(std::span<const util::Vec3d> pos, std::span<const double> mass,
                      std::span<util::Vec3d> accel);

  /// The gravitational potential grid from the last compute_forces call
  /// (diagnostics / tests); empty before the first call.  The fd paths
  /// invert it during the solve; the spectral path inverts a copy of the
  /// retained phi(k) here, on every call, and leaves the next solve's
  /// forces untouched.
  const mesh::GridD& potential();

 private:
  template <int Order>
  void fd_gradient();

  PmOptions opt_;
  util::ThreadPool* pool_;
  fft::Fft3D fft_;
  mesh::CicDepositor depositor_;

  // Handles into obs::MetricsRegistry::global(), interned once at
  // construction: a solve count plus accumulated per-phase seconds.  The
  // registry keeps registrations across reset(), so these stay valid for
  // the solver's lifetime (docs/OBSERVABILITY.md).
  obs::MetricsRegistry::Handle m_solves_;
  obs::MetricsRegistry::Handle m_deposit_s_;
  obs::MetricsRegistry::Handle m_forward_s_;
  obs::MetricsRegistry::Handle m_green_s_;
  obs::MetricsRegistry::Handle m_inverse_s_;
  obs::MetricsRegistry::Handle m_gradient_s_;
  obs::MetricsRegistry::Handle m_interp_s_;

  // Persistent workspace, sized on first use and reused across calls.
  mesh::GridD mass_grid_;
  std::vector<fft::cplx> phi_k_;      // half-spectrum potential
  std::vector<fft::cplx> comp_k_[3];  // half-spectrum force components (spectral)
  mesh::GridD potential_;             // allocated by the fd solve or by potential()
  mesh::GridD force_[3];
};

}  // namespace hacc::gravity
