#include "gravity/pm.hpp"

#include <cmath>

#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace hacc::gravity {

namespace {

// CIC assignment window along one axis (squared sinc), at mesh frequency
// index n of an N-cell grid.
double cic_window_1d(int n, int grid_n) {
  if (n == 0) return 1.0;
  const double x = M_PI * n / grid_n;
  const double s = std::sin(x) / x;
  return s * s;
}

// Signed frequency index in [-N/2, N/2).
int signed_freq(int i, int n) { return i < n / 2 ? i : i - n; }

}  // namespace

const char* to_string(PmGradient g) {
  switch (g) {
    case PmGradient::kSpectral:
      return "spectral";
    case PmGradient::kFd4:
      return "fd4";
    case PmGradient::kFd6:
      return "fd6";
  }
  return "spectral";
}

bool parse_pm_gradient(const std::string& name, PmGradient& out) {
  if (name == "spectral") {
    out = PmGradient::kSpectral;
  } else if (name == "fd4") {
    out = PmGradient::kFd4;
  } else if (name == "fd6") {
    out = PmGradient::kFd6;
  } else {
    return false;
  }
  return true;
}

PmSolver::PmSolver(const PmOptions& opt, util::ThreadPool& pool)
    : opt_(opt), pool_(&pool), fft_(opt.grid_n, pool), depositor_(pool) {
  auto& m = obs::MetricsRegistry::global();
  m_solves_ = m.counter("pm.solves");
  m_deposit_s_ = m.counter("pm.deposit_s");
  m_forward_s_ = m.counter("pm.forward_s");
  m_green_s_ = m.counter("pm.green_s");
  m_inverse_s_ = m.counter("pm.inverse_s");
  m_gradient_s_ = m.counter("pm.gradient_s");
  m_interp_s_ = m.counter("pm.interp_s");
}

void PmSolver::compute_forces(std::span<const util::Vec3d> pos,
                              std::span<const double> mass,
                              std::span<util::Vec3d> accel) {
  const int n = opt_.grid_n;
  const double box = opt_.box;
  const double cell_vol = (box / n) * (box / n) * (box / n);
  const SplitForce split(opt_.r_split);
  const bool spectral = opt_.gradient == PmGradient::kSpectral;
  auto& metrics = obs::MetricsRegistry::global();
  // The t0/t1 readings bracket each phase once; its trace span and its
  // pm.<phase>_s counter are both written from them.
  const auto record = [&metrics](const char* span, obs::MetricsRegistry::Handle h,
                                 double t0, double t1) {
    obs::Tracer::global().record(span, t0, t1);
    metrics.inc(h, t1 - t0);
  };

  // Density contrast source: 4 pi G (rho - rho_bar); the k=0 mode removal
  // implements the mean subtraction.  The mass -> density conversion
  // (1/cell_vol) is folded into the Green's function below, so the deposit
  // grid goes into the transform untouched.
  double t0 = util::wtime();
  if (mass_grid_.n() != n) {
    mass_grid_ = mesh::GridD(n);
  } else {
    mass_grid_.fill(0.0);
  }
  depositor_.deposit(mass_grid_, pos, mass, box);
  double t1 = util::wtime();
  record("pm.deposit", m_deposit_s_, t0, t1);

  t0 = util::wtime();
  fft_.forward_r2c(mass_grid_.data(), phi_k_);
  t1 = util::wtime();
  record("pm.forward", m_forward_s_, t0, t1);

  // Green's function (and, on the spectral path, the three force spectra
  // a(k) = -i k phi(k)) on the half spectrum.  Differentiated components are
  // zeroed on their axis' Nyquist plane: -i k breaks Hermitian symmetry
  // there, and the full-spectrum transform's real part discarded exactly
  // that contribution too.
  t0 = util::wtime();
  if (spectral) {
    for (auto& c : comp_k_) c.resize(fft_.half_size());
  }
  const int nh = fft_.half_nz();
  const double two_pi_over_l = 2.0 * M_PI / box;
  const double green_num = -4.0 * M_PI * opt_.G;
  // The CIC window is separable: tabulate it once per axis, at the same
  // frequency argument the element loop used (signed nx, ny; unsigned iz).
  std::vector<double> win_xy(n, 1.0), win_z(nh, 1.0);
  if (opt_.deconvolve_cic) {
    for (int i = 0; i < n; ++i) win_xy[i] = cic_window_1d(signed_freq(i, n), n);
    for (int iz = 0; iz < nh; ++iz) win_z[iz] = cic_window_1d(iz, n);
  }
  // shared: phi_k_, comp_k_ (disjoint kx-plane rows per index).
  pool_->parallel_for_chunks(n, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t ix = b; ix < e; ++ix) {
      const int nx = signed_freq(static_cast<int>(ix), n);
      const bool x_nyq = 2 * static_cast<int>(ix) == n;
      const double kx = two_pi_over_l * nx;
      for (int iy = 0; iy < n; ++iy) {
        const int ny = signed_freq(iy, n);
        const bool y_nyq = 2 * iy == n;
        const double ky = two_pi_over_l * ny;
        const double kxy2 = kx * kx + ky * ky;
        const double wxy = win_xy[ix] * win_xy[iy];
        const std::size_t row = (static_cast<std::size_t>(ix) * n + iy) * nh;
        for (int iz = 0; iz < nh; ++iz) {
          const std::size_t idx = row + iz;
          if (nx == 0 && ny == 0 && iz == 0) {
            phi_k_[idx] = 0.0;
            if (spectral) {
              comp_k_[0][idx] = comp_k_[1][idx] = comp_k_[2][idx] = 0.0;
            }
            continue;
          }
          const double kz = two_pi_over_l * iz;  // iz in [0, n/2]
          const double k2 = kxy2 + kz * kz;
          double green = green_num / (k2 * cell_vol);
          if (opt_.r_split > 0.0) green *= split.k_filter(std::sqrt(k2));
          if (opt_.deconvolve_cic) {
            const double w = wxy * win_z[iz];
            green /= (w * w);  // deposit + interpolation
          }
          const fft::cplx phi = green * phi_k_[idx];
          phi_k_[idx] = phi;
          if (spectral) {
            // a = -ik phi; Nyquist planes of the differentiated axis -> 0.
            comp_k_[0][idx] = x_nyq ? fft::cplx(0.0) : fft::mul(fft::cplx(0.0, -kx), phi);
            comp_k_[1][idx] = y_nyq ? fft::cplx(0.0) : fft::mul(fft::cplx(0.0, -ky), phi);
            comp_k_[2][idx] =
                2 * iz == n ? fft::cplx(0.0) : fft::mul(fft::cplx(0.0, -kz), phi);
          }
        }
      }
    }
  });
  t1 = util::wtime();
  record("pm.green", m_green_s_, t0, t1);

  // The spectral path reads forces straight off the three component spectra
  // and keeps phi_k_ for potential(); only the fd paths need the real-space
  // potential, so only they invert phi_k_ here.
  t0 = util::wtime();
  for (auto& f : force_) {
    if (f.n() != n) f = mesh::GridD(n);
  }
  if (spectral) {
    for (int a = 0; a < 3; ++a) {
      fft_.inverse_c2r(comp_k_[a], force_[a].data());
    }
  } else {
    if (potential_.n() != n) potential_ = mesh::GridD(n);
    fft_.inverse_c2r(phi_k_, potential_.data());
  }
  t1 = util::wtime();
  record("pm.inverse", m_inverse_s_, t0, t1);

  if (!spectral) {
    t0 = util::wtime();
    if (opt_.gradient == PmGradient::kFd4) {
      fd_gradient<4>();
    } else {
      fd_gradient<6>();
    }
    t1 = util::wtime();
    record("pm.gradient", m_gradient_s_, t0, t1);
  }

  t0 = util::wtime();
  // shared: accel (one element per particle index; force_ grids read-only).
  pool_->parallel_for_chunks(
      static_cast<std::int64_t>(pos.size()), 256, [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          accel[i] = mesh::cic_interpolate3(force_[0], force_[1], force_[2], pos[i], box);
        }
      });
  t1 = util::wtime();
  record("pm.interp", m_interp_s_, t0, t1);
  metrics.inc(m_solves_);
}

const mesh::GridD& PmSolver::potential() {
  if (opt_.gradient == PmGradient::kSpectral && !phi_k_.empty()) {
    if (potential_.n() != opt_.grid_n) potential_ = mesh::GridD(opt_.grid_n);
    // inverse_c2r destroys its input; comp_k_[0] is free scratch between
    // solves (the next solve rewrites it in full).
    comp_k_[0] = phi_k_;
    fft_.inverse_c2r(comp_k_[0], potential_.data());
  }
  return potential_;
}

// Centered finite-difference gradient of the real-space potential,
// a = -grad phi, at 4th (Order=4) or 6th (Order=6) order with periodic wrap.
template <int Order>
void PmSolver::fd_gradient() {
  static_assert(Order == 4 || Order == 6);
  const int n = opt_.grid_n;
  const double h = opt_.box / n;
  // d/dx f ~ [c1 (f+1 - f-1) + c2 (f+2 - f-2) + c3 (f+3 - f-3)] / h;
  // the minus of a = -grad phi is folded into the coefficients.
  const double s1 = -(Order == 4 ? 8.0 / 12.0 : 45.0 / 60.0) / h;
  const double s2 = -(Order == 4 ? -1.0 / 12.0 : -9.0 / 60.0) / h;
  const double s3 = -(Order == 4 ? 0.0 : 1.0 / 60.0) / h;

  // Periodic neighbor index tables (branch-free inner loops).
  const int reach = Order / 2;
  std::vector<int> off[7];  // off[r + 3][i] = wrap(i + r)
  for (int r = -reach; r <= reach; ++r) {
    if (r == 0) continue;
    auto& tab = off[r + 3];
    tab.resize(n);
    for (int i = 0; i < n; ++i) tab[i] = potential_.wrap(i + r);
  }

  const double* phi = potential_.data().data();
  const std::size_t nn = static_cast<std::size_t>(n) * n;
  // shared: force_ (disjoint x-plane rows per index; potential_ read-only).
  pool_->parallel_for_chunks(n, 1, [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t ix = b; ix < e; ++ix) {
      const double* xp1 = phi + off[4][ix] * nn;
      const double* xm1 = phi + off[2][ix] * nn;
      const double* xp2 = phi + off[5][ix] * nn;
      const double* xm2 = phi + off[1][ix] * nn;
      const double* xp3 = Order == 6 ? phi + off[6][ix] * nn : nullptr;
      const double* xm3 = Order == 6 ? phi + off[0][ix] * nn : nullptr;
      const std::size_t xrow = ix * nn;
      for (int iy = 0; iy < n; ++iy) {
        const std::size_t ry = static_cast<std::size_t>(iy) * n;
        const std::size_t base = xrow + ry;
        const double* p0 = phi + base;
        const double* yp1 = phi + xrow + static_cast<std::size_t>(off[4][iy]) * n;
        const double* ym1 = phi + xrow + static_cast<std::size_t>(off[2][iy]) * n;
        const double* yp2 = phi + xrow + static_cast<std::size_t>(off[5][iy]) * n;
        const double* ym2 = phi + xrow + static_cast<std::size_t>(off[1][iy]) * n;
        const double* yp3 =
            Order == 6 ? phi + xrow + static_cast<std::size_t>(off[6][iy]) * n : nullptr;
        const double* ym3 =
            Order == 6 ? phi + xrow + static_cast<std::size_t>(off[0][iy]) * n : nullptr;
        double* fx = force_[0].data().data() + base;
        double* fy = force_[1].data().data() + base;
        double* fz = force_[2].data().data() + base;
        const int* zp1 = off[4].data();
        const int* zm1 = off[2].data();
        const int* zp2 = off[5].data();
        const int* zm2 = off[1].data();
        for (int iz = 0; iz < n; ++iz) {
          double ax = s1 * (xp1[ry + iz] - xm1[ry + iz]) + s2 * (xp2[ry + iz] - xm2[ry + iz]);
          double ay = s1 * (yp1[iz] - ym1[iz]) + s2 * (yp2[iz] - ym2[iz]);
          double az = s1 * (p0[zp1[iz]] - p0[zm1[iz]]) + s2 * (p0[zp2[iz]] - p0[zm2[iz]]);
          if constexpr (Order == 6) {
            ax += s3 * (xp3[ry + iz] - xm3[ry + iz]);
            ay += s3 * (yp3[iz] - ym3[iz]);
            az += s3 * (p0[off[6][iz]] - p0[off[0][iz]]);
          }
          fx[iz] = ax;
          fy[iz] = ay;
          fz[iz] = az;
        }
      }
    }
  });
}

}  // namespace hacc::gravity
