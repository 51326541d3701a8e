#pragma once

// The SPH interpolation kernel: the cubic B-spline (M4) with compact
// support at r = 2h.  Templated on the real type so the float GPU-style
// kernels and the double-precision scalar reference share one definition.

#include <cmath>

#include "util/vec3.hpp"

namespace hacc::sph {

// Support radius multiplier: W(r, h) == 0 for r >= kSupport * h.
inline constexpr double kSupport = 2.0;

// Smoothing-length scale relative to the local volume, h = kEta * V^(1/3).
inline constexpr double kEta = 1.3;

// Cubic spline W(r, h) in 3-D with sigma = 1/(pi h^3); q = r/h in [0, 2).
template <typename Real>
inline Real kernel_w(Real r, Real h) {
  const Real q = r / h;
  const Real sigma = Real(M_1_PI) / (h * h * h);
  if (q < Real(1)) {
    return sigma * (Real(1) - Real(1.5) * q * q + Real(0.75) * q * q * q);
  }
  if (q < Real(2)) {
    const Real t = Real(2) - q;
    return sigma * Real(0.25) * t * t * t;
  }
  return Real(0);
}

// dW/dr (scalar radial derivative; <= 0 everywhere).
template <typename Real>
inline Real kernel_dwdr(Real r, Real h) {
  const Real q = r / h;
  const Real sigma = Real(M_1_PI) / (h * h * h);
  if (q < Real(1)) {
    return sigma / h * (Real(-3) * q + Real(2.25) * q * q);
  }
  if (q < Real(2)) {
    const Real t = Real(2) - q;
    return sigma / h * (Real(-0.75) * t * t);
  }
  return Real(0);
}

// ∇_i W(|x_i - x_j|, h): gradient with respect to x_i given x_ij = x_i - x_j.
template <typename Real>
inline util::Vec3<Real> kernel_grad(const util::Vec3<Real>& xij, Real r, Real h) {
  if (r <= Real(0)) return {};
  const Real dwdr = kernel_dwdr(r, h);
  return xij * (dwdr / r);
}

// W(0, h): the self contribution used by Geometry and the density estimate.
template <typename Real>
inline Real kernel_self(Real h) {
  return kernel_w(Real(0), h);
}

// Squared support radius (kSupport h)^2.  Every SPH pair term of i and j is
// exactly zero once r >= kSupport * max(h_i, h_j) — the reach the native
// driver's cutoff prefilter relies on (sph/native.hpp).
template <typename Real>
inline Real support2(Real h) {
  const Real s = Real(kSupport) * h;
  return s * s;
}

// Symmetrized pair smoothing length.
template <typename Real>
inline Real pair_h(Real hi, Real hj) {
  return Real(0.5) * (hi + hj);
}

// Numerically integrates W over its support (unit-normalization check).
double kernel_normalization(int n_samples);

}  // namespace hacc::sph
