#include "ic/zeldovich.hpp"

#include <cmath>

#include "mesh/cic.hpp"
#include "util/rng.hpp"

namespace hacc::ic {

ZeldovichGenerator::ZeldovichGenerator(const Cosmology& cosmo, const PowerSpectrum& pk,
                                       const ZeldovichOptions& opt,
                                       util::ThreadPool& pool)
    : cosmo_(cosmo), pk_(&pk), opt_(opt), pool_(&pool) {}

ZeldovichField ZeldovichGenerator::generate(double lattice_offset_cells) const {
  const double box = opt_.box;
  // The displacement field is synthesized on a power-of-two FFT grid at
  // least as fine as the particle lattice and sampled by CIC interpolation,
  // so any particle count is supported.
  int n = 2;
  while (n < opt_.np_side) n *= 2;
  const std::size_t n3 = static_cast<std::size_t>(n) * n * n;
  fft::Fft3D fft(n, *pool_);

  // White noise, counter-based so the field is independent of threading and
  // shared between species.
  std::vector<fft::cplx> delta(n3);
  const util::CounterRng rng(opt_.seed);
  // shared: delta (one element per index; rng is counter-based, stateless).
  pool_->parallel_for_chunks(static_cast<std::int64_t>(n3), 4096,
                             [&](std::int64_t b, std::int64_t e) {
                               for (std::int64_t i = b; i < e; ++i) {
                                 delta[i] = fft::cplx(rng.normal(i), 0.0);
                               }
                             });
  fft.forward(delta);

  // Scale to the target spectrum: <|delta_k|^2> = P(k) N^6 / L^3.
  const double two_pi_over_l = 2.0 * M_PI / box;
  const auto signed_freq = [n](int i) { return i < n / 2 ? i : i - n; };
  std::vector<fft::cplx> psi_k[3];
  for (auto& c : psi_k) c.resize(n3);
  for (int ix = 0; ix < n; ++ix) {
    const double kx = two_pi_over_l * signed_freq(ix);
    for (int iy = 0; iy < n; ++iy) {
      const double ky = two_pi_over_l * signed_freq(iy);
      for (int iz = 0; iz < n; ++iz) {
        const double kz = two_pi_over_l * signed_freq(iz);
        const std::size_t idx = (static_cast<std::size_t>(ix) * n + iy) * n + iz;
        const double k2 = kx * kx + ky * ky + kz * kz;
        if (k2 == 0.0) {
          psi_k[0][idx] = psi_k[1][idx] = psi_k[2][idx] = 0.0;
          continue;
        }
        const double k = std::sqrt(k2);
        const double amp = std::sqrt((*pk_)(k) * static_cast<double>(n3) / (box * box * box));
        const fft::cplx dk = delta[idx] * amp;
        // psi(k) = i k / k^2 * delta(k)  (displacement potential gradient).
        psi_k[0][idx] = fft::mul(fft::cplx(0.0, kx / k2), dk);
        psi_k[1][idx] = fft::mul(fft::cplx(0.0, ky / k2), dk);
        psi_k[2][idx] = fft::mul(fft::cplx(0.0, kz / k2), dk);
      }
    }
  }

  mesh::GridD psi[3];
  for (int a = 0; a < 3; ++a) {
    fft.inverse(psi_k[a]);
    psi[a] = mesh::GridD(n);
    for (std::size_t i = 0; i < n3; ++i) psi[a].data()[i] = psi_k[a][i].real();
  }

  // Growth normalization and the Zel'dovich growing-mode momentum factor.
  const double d_now = cosmo_.growth(1.0);
  const double d_init = cosmo_.growth(opt_.a_init) / d_now;
  const double dd_da = cosmo_.growth_deriv(opt_.a_init) / d_now;
  const double a = opt_.a_init;
  const double mom_factor = a * a * a * cosmo_.e_of_a(a) * dd_da;

  const int np = opt_.np_side;
  const double dx = box / np;
  const std::size_t np3 = static_cast<std::size_t>(np) * np * np;

  ZeldovichField field;
  field.growth = d_init;
  field.lattice.resize(np3);
  field.displacement.resize(np3);
  field.position.resize(np3);
  field.momentum.resize(np3);

  std::size_t p = 0;
  for (int ix = 0; ix < np; ++ix) {
    for (int iy = 0; iy < np; ++iy) {
      for (int iz = 0; iz < np; ++iz, ++p) {
        const util::Vec3d q{(ix + 0.5 + lattice_offset_cells) * dx,
                            (iy + 0.5 + lattice_offset_cells) * dx,
                            (iz + 0.5 + lattice_offset_cells) * dx};
        const util::Vec3d disp =
            mesh::cic_interpolate3(psi[0], psi[1], psi[2], q, box);
        field.lattice[p] = q;
        field.displacement[p] = disp;
        util::Vec3d x = q + disp * d_init;
        for (int c = 0; c < 3; ++c) {
          x[c] = std::fmod(x[c], box);
          if (x[c] < 0.0) x[c] += box;
        }
        field.position[p] = x;
        field.momentum[p] = disp * mom_factor;
      }
    }
  }
  return field;
}

}  // namespace hacc::ic
