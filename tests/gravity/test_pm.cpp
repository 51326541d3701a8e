#include "gravity/pm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "gravity/pp_short.hpp"
#include "obs/metrics.hpp"
#include "tree/rcb.hpp"
#include "util/rng.hpp"
#include "xsycl/queue.hpp"

namespace hacc::gravity {
namespace {

using util::Vec3d;

TEST(PmSolver, UniformLatticeFeelsNoForce) {
  util::ThreadPool pool(4);
  PmOptions opt;
  opt.grid_n = 16;
  opt.box = 8.0;
  opt.G = 1.0;
  PmSolver pm(opt, pool);
  std::vector<Vec3d> pos;
  std::vector<double> mass;
  for (int ix = 0; ix < 8; ++ix) {
    for (int iy = 0; iy < 8; ++iy) {
      for (int iz = 0; iz < 8; ++iz) {
        pos.push_back({ix + 0.5, iy + 0.5, iz + 0.5});
        mass.push_back(1.0);
      }
    }
  }
  std::vector<Vec3d> accel(pos.size());
  pm.compute_forces(pos, mass, accel);
  for (const auto& a : accel) {
    EXPECT_NEAR(norm(a), 0.0, 1e-10);
  }
}

TEST(PmSolver, NetMomentumChangeVanishes) {
  util::ThreadPool pool(4);
  PmOptions opt;
  opt.grid_n = 32;
  opt.box = 10.0;
  PmSolver pm(opt, pool);
  util::CounterRng rng(5);
  std::vector<Vec3d> pos;
  std::vector<double> mass;
  for (int i = 0; i < 300; ++i) {
    pos.push_back({10.0 * rng.uniform(3 * i), 10.0 * rng.uniform(3 * i + 1),
                   10.0 * rng.uniform(3 * i + 2)});
    mass.push_back(0.5 + rng.uniform(1000 + i));
  }
  std::vector<Vec3d> accel(pos.size());
  pm.compute_forces(pos, mass, accel);
  Vec3d net{};
  double scale = 0.0;
  for (std::size_t i = 0; i < pos.size(); ++i) {
    net += accel[i] * mass[i];
    scale += mass[i] * norm(accel[i]);
  }
  EXPECT_LT(norm(net), 2e-2 * scale);
}

TEST(PmSolver, PairForceIsAttractiveAndSymmetric) {
  util::ThreadPool pool(2);
  PmOptions opt;
  opt.grid_n = 32;
  opt.box = 16.0;
  opt.r_split = 0.0;  // unfiltered: full force from the mesh
  PmSolver pm(opt, pool);
  const std::vector<Vec3d> pos = {{6.0, 8.0, 8.0}, {10.0, 8.0, 8.0}};
  const std::vector<double> mass = {1.0, 1.0};
  std::vector<Vec3d> accel(2);
  pm.compute_forces(pos, mass, accel);
  EXPECT_GT(accel[0].x, 0.0);  // pulled toward the other particle
  EXPECT_LT(accel[1].x, 0.0);
  EXPECT_NEAR(accel[0].x, -accel[1].x, 1e-6 * std::abs(accel[0].x) + 1e-12);
  EXPECT_NEAR(accel[0].y, 0.0, 1e-8);
  EXPECT_NEAR(accel[0].z, 0.0, 1e-8);
}

// The force-splitting recombination test: PM(filtered) + PP(short) must
// reproduce Newton across separations spanning the split scale.
class SplitRecombination : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Separations, SplitRecombination,
                         ::testing::Values(0.8, 1.5, 2.5, 4.0),
                         [](const auto& info) {
                           return "r" + std::to_string(int(info.param * 10));
                         });

TEST_P(SplitRecombination, PmPlusPpMatchesNewton) {
  const double sep = GetParam();
  util::ThreadPool pool(2);
  const double box = 32.0;
  const double g = 1.0;
  const double rs = 1.25;  // split scale ~ PM cell
  PmOptions opt;
  opt.grid_n = 64;
  opt.box = box;
  opt.r_split = rs;
  opt.G = g;
  PmSolver pm(opt, pool);
  const PolyShortForce poly(rs, 5.0 * rs);

  const Vec3d x0{16.0 - sep / 2, 16.0, 16.0};
  const Vec3d x1{16.0 + sep / 2, 16.0, 16.0};
  const std::vector<Vec3d> pos = {x0, x1};
  const std::vector<double> mass = {1.0, 1.0};
  std::vector<Vec3d> accel(2);
  pm.compute_forces(pos, mass, accel);

  // Short-range contribution (reference path, brute force).
  std::vector<float> xs = {float(x0.x), float(x1.x)};
  std::vector<float> ys = {float(x0.y), float(x1.y)};
  std::vector<float> zs = {float(x0.z), float(x1.z)};
  std::vector<float> ms = {1.f, 1.f};
  std::vector<float> ax(2, 0.f), ay(2, 0.f), az(2, 0.f);
  GravityArrays arrays{xs.data(), ys.data(), zs.data(), ms.data(),
                       ax.data(), ay.data(), az.data(), 2};
  reference_pp_short(arrays, poly, float(box), float(g), 0.f);

  const double total_x = accel[0].x + ax[0];
  const double newton = g / (sep * sep);
  EXPECT_NEAR(total_x, newton, 0.05 * newton) << "sep=" << sep;
}

TEST(PmGradient, ParseRoundTripAndRejects) {
  for (const PmGradient g : {PmGradient::kSpectral, PmGradient::kFd4, PmGradient::kFd6}) {
    PmGradient out = PmGradient::kFd4;
    ASSERT_TRUE(parse_pm_gradient(to_string(g), out)) << to_string(g);
    EXPECT_EQ(out, g);
  }
  PmGradient out = PmGradient::kFd6;
  EXPECT_FALSE(parse_pm_gradient("fd2", out));
  EXPECT_FALSE(parse_pm_gradient("", out));
  EXPECT_FALSE(parse_pm_gradient("SPECTRAL", out));
  EXPECT_EQ(out, PmGradient::kFd6);  // untouched on failure
}

namespace gradient_modes {

struct Cloud {
  std::vector<Vec3d> pos;
  std::vector<double> mass;
};

Cloud random_cloud(int n, double box) {
  util::CounterRng rng(19);
  Cloud s;
  for (int i = 0; i < n; ++i) {
    s.pos.push_back({box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
                     box * rng.uniform(3 * i + 2)});
    s.mass.push_back(0.5 + rng.uniform(4000 + i));
  }
  return s;
}

std::vector<Vec3d> forces_for(PmGradient g, const Cloud& s, double box,
                              util::ThreadPool& pool,
                              std::unique_ptr<PmSolver>* keep = nullptr) {
  PmOptions opt;
  opt.grid_n = 32;
  opt.box = box;
  opt.r_split = 1.25 * box / opt.grid_n;
  opt.gradient = g;
  auto pm = std::make_unique<PmSolver>(opt, pool);
  std::vector<Vec3d> accel(s.pos.size());
  pm->compute_forces(s.pos, s.mass, accel);
  if (keep) *keep = std::move(pm);
  return accel;
}

double rel_rms_diff(const std::vector<Vec3d>& a, const std::vector<Vec3d>& b) {
  double diff = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff += norm2(a[i] - b[i]);
    ref += norm2(b[i]);
  }
  return std::sqrt(diff / ref);
}

}  // namespace gradient_modes

TEST(PmGradient, FdPathsTrackSpectralWithinDocumentedBounds) {
  // The split-filtered long-range field is smooth on the mesh scale, so the
  // centered differences converge fast: fd4 stays within a few percent of
  // the spectral reference and fd6 within about one percent (the bounds
  // documented in the README; the bench prints the measured values).
  using namespace gradient_modes;
  util::ThreadPool pool(4);
  const double box = 10.0;
  const Cloud s = random_cloud(400, box);
  const auto spectral = forces_for(PmGradient::kSpectral, s, box, pool);
  const auto fd4 = forces_for(PmGradient::kFd4, s, box, pool);
  const auto fd6 = forces_for(PmGradient::kFd6, s, box, pool);
  const double err4 = rel_rms_diff(fd4, spectral);
  const double err6 = rel_rms_diff(fd6, spectral);
  EXPECT_LT(err4, 0.04) << "fd4 vs spectral";
  EXPECT_LT(err6, 0.015) << "fd6 vs spectral";
  EXPECT_LT(err6, err4) << "higher order must be closer to spectral";
}

TEST(PmGradient, PotentialIsIdenticalAcrossGradientModes) {
  // The gradient mode only changes how forces are derived; the spectral
  // potential solve is shared.
  using namespace gradient_modes;
  util::ThreadPool pool(2);
  const double box = 10.0;
  const Cloud s = random_cloud(200, box);
  std::unique_ptr<PmSolver> pm_s, pm_fd;
  forces_for(PmGradient::kSpectral, s, box, pool, &pm_s);
  forces_for(PmGradient::kFd6, s, box, pool, &pm_fd);
  const auto& a = pm_s->potential().data();
  const auto& b = pm_fd->potential().data();
  ASSERT_EQ(a.size(), b.size());
  double max_mag = 0.0;
  for (double v : a) max_mag = std::max(max_mag, std::abs(v));
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], 1e-12 * max_mag) << i;
  }
}

TEST(PmGradient, QueryingTheSpectralPotentialChangesNothing) {
  // The spectral path inverts phi(k) only when potential() asks for it, in
  // solver workspace; that must leave the next solve's forces bit-identical
  // and return the same grid on every call.
  using namespace gradient_modes;
  util::ThreadPool pool(2);
  const double box = 10.0;
  const Cloud first = random_cloud(200, box);
  Cloud second = first;
  for (auto& p : second.pos) p = {std::fmod(p.x + 1.7, box), p.y, std::fmod(p.z + 0.3, box)};
  PmOptions opt;
  opt.grid_n = 32;
  opt.box = box;
  opt.r_split = 1.25 * box / opt.grid_n;
  PmSolver queried(opt, pool), plain(opt, pool);
  std::vector<Vec3d> aq(first.pos.size()), ap(first.pos.size());

  queried.compute_forces(first.pos, first.mass, aq);
  const std::vector<double> phi1 = queried.potential().data();
  const std::vector<double> phi2 = queried.potential().data();
  ASSERT_EQ(phi1.size(), static_cast<std::size_t>(32 * 32 * 32));
  for (std::size_t i = 0; i < phi1.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(phi1[i]), std::bit_cast<std::uint64_t>(phi2[i]))
        << i;
  }
  queried.compute_forces(second.pos, second.mass, aq);

  plain.compute_forces(first.pos, first.mass, ap);
  plain.compute_forces(second.pos, second.mass, ap);
  for (std::size_t i = 0; i < aq.size(); ++i) {
    for (int c = 0; c < 3; ++c) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(aq[i][c]), std::bit_cast<std::uint64_t>(ap[i][c]))
          << i << " component " << c;
    }
  }
}

TEST(PmGradient, FdPathConservesMomentum) {
  using namespace gradient_modes;
  util::ThreadPool pool(4);
  const double box = 10.0;
  const Cloud s = random_cloud(300, box);
  const auto accel = forces_for(PmGradient::kFd4, s, box, pool);
  Vec3d net{};
  double scale = 0.0;
  for (std::size_t i = 0; i < accel.size(); ++i) {
    net += accel[i] * s.mass[i];
    scale += s.mass[i] * norm(accel[i]);
  }
  EXPECT_LT(norm(net), 2e-2 * scale);
}

// Seconds one solve adds to the pm.<phase>_s counter of each phase.
std::map<std::string, double> phase_seconds(PmGradient g, const gradient_modes::Cloud& s,
                                            double box, util::ThreadPool& pool) {
  const auto counters = [] {
    std::map<std::string, double> out;
    for (const auto& v : obs::MetricsRegistry::global().snapshot()) out[v.name] = v.value;
    return out;
  };
  auto before = counters();
  gradient_modes::forces_for(g, s, box, pool);
  std::map<std::string, double> delta;
  for (const char* phase : {"deposit", "forward", "green", "inverse", "gradient", "interp"}) {
    const std::string key = std::string("pm.") + phase + "_s";
    delta[phase] = counters()[key] - before[key];
  }
  return delta;
}

TEST(PmSolver, PhaseTimesCoverThePipeline) {
  using namespace gradient_modes;
  util::ThreadPool pool(2);
  const double box = 10.0;
  const Cloud s = random_cloud(100, box);
  auto t = phase_seconds(PmGradient::kSpectral, s, box, pool);
  EXPECT_GT(t["forward"], 0.0);
  EXPECT_GT(t["inverse"], 0.0);
  EXPECT_EQ(t["gradient"], 0.0);  // spectral path has no FD stage
  EXPECT_GT(phase_seconds(PmGradient::kFd4, s, box, pool)["gradient"], 0.0);
}

TEST(PpShortKernel, MatchesBruteForceReference) {
  // Both pair drivers — the native production loop and the half-warp study
  // harness — at the pm_pp split and at the fmm backend's Newtonian cutoff
  // (sqrt(3)/2 box, beyond half the box: the minimum-image corner case).
  util::ThreadPool pool(4);
  const float box = 10.0f;
  const double rs = 0.8;
  const PolyShortForce split(rs, 4.0 * rs);
  const PolyShortForce newton = PolyShortForce::newtonian(std::sqrt(3.0) / 2.0 * box);
  util::CounterRng rng(11);
  const int n = 500;
  std::vector<Vec3d> pos_d(n);
  std::vector<float> x(n), y(n), z(n), m(n);
  for (int i = 0; i < n; ++i) {
    pos_d[i] = {box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
                box * rng.uniform(3 * i + 2)};
    x[i] = float(pos_d[i].x);
    y[i] = float(pos_d[i].y);
    z[i] = float(pos_d[i].z);
    m[i] = 1.0f + float(rng.uniform(9000 + i));
  }
  tree::RcbTree tr(pos_d, box, 24);
  for (const PolyShortForce* poly : {&split, &newton}) {
    // Reference path.
    std::vector<float> rx(n, 0.f), ry(n, 0.f), rz(n, 0.f);
    reference_pp_short({x.data(), y.data(), z.data(), m.data(), rx.data(),
                        ry.data(), rz.data(), static_cast<std::size_t>(n)},
                       *poly, box, 0.7f, 0.05f);
    double scale = 1e-20;
    for (int i = 0; i < n; ++i) scale = std::max(scale, double(std::abs(rx[i])));
    const auto pairs = tr.interacting_pairs(poly->r_cut());
    for (const auto variant : {xsycl::CommVariant::kNative, xsycl::CommVariant::kSelect}) {
      // Kernel path.
      xsycl::Queue q(pool);
      std::vector<float> ax(n, 0.f), ay(n, 0.f), az(n, 0.f);
      PpOptions opt;
      opt.box = box;
      opt.G = 0.7f;
      opt.softening = 0.05f;
      opt.variant = variant;
      run_pp_short(q, {x.data(), y.data(), z.data(), m.data(), ax.data(), ay.data(),
                       az.data(), static_cast<std::size_t>(n)},
                   tr, pairs, *poly, opt);
      for (int i = 0; i < n; ++i) {
        ASSERT_NEAR(ax[i], rx[i], 2e-4 * scale) << to_string(variant) << " " << i;
        ASSERT_NEAR(ay[i], ry[i], 2e-4 * scale) << to_string(variant) << " " << i;
        ASSERT_NEAR(az[i], rz[i], 2e-4 * scale) << to_string(variant) << " " << i;
      }
    }
  }
}

TEST(PpShortKernel, MomentumConservedAcrossVariants) {
  util::ThreadPool pool(4);
  const float box = 8.0f;
  const double rs = 0.6;
  const PolyShortForce poly(rs, 4.0 * rs);
  util::CounterRng rng(13);
  const int n = 300;
  std::vector<Vec3d> pos_d(n);
  std::vector<float> x(n), y(n), z(n), m(n);
  for (int i = 0; i < n; ++i) {
    pos_d[i] = {box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
                box * rng.uniform(3 * i + 2)};
    x[i] = float(pos_d[i].x);
    y[i] = float(pos_d[i].y);
    z[i] = float(pos_d[i].z);
    m[i] = 1.0f;
  }
  tree::RcbTree tr(pos_d, box, 16);
  const auto pairs = tr.interacting_pairs(poly.r_cut());
  for (const auto variant : xsycl::kAllVariants) {
    xsycl::Queue q(pool);
    std::vector<float> ax(n, 0.f), ay(n, 0.f), az(n, 0.f);
    PpOptions opt;
    opt.box = box;
    opt.softening = 0.05f;
    opt.variant = variant;
    run_pp_short(q, {x.data(), y.data(), z.data(), m.data(), ax.data(), ay.data(),
                     az.data(), static_cast<std::size_t>(n)},
                 tr, pairs, poly, opt);
    double px = 0, scale = 0;
    for (int i = 0; i < n; ++i) {
      px += ax[i];
      scale += std::abs(ax[i]);
    }
    EXPECT_NEAR(px, 0.0, 1e-3 * std::max(scale, 1e-12)) << to_string(variant);
  }
}

}  // namespace
}  // namespace hacc::gravity
