// The native pair driver (sph/native.hpp), the production path of all six
// pair kernels: its cutoff prefilter must be exact (bitwise equal to handing
// every listed pair to interact), its result must not depend on the thread
// count, and it counts only the interact calls it makes.  Its physics is
// held to the study variants' checks elsewhere: the NativeDriver
// instantiation of VariantEquivalence (test_variants.cpp) and
// PpShortKernel.MatchesBruteForceReference (test_pm.cpp).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "gas_fixture.hpp"
#include "gravity/pp_short.hpp"
#include "sph/native.hpp"
#include "sph/pipeline.hpp"
#include "tree/rcb.hpp"
#include "util/rng.hpp"

namespace hacc::sph {
namespace {

using testing::GasOptions;
using testing::make_gas;
using xsycl::CommVariant;

GasOptions small_gas_options() {
  GasOptions opt;
  opt.n_side = 7;
  opt.box = 1.0;
  opt.fill = 1.0;
  opt.jitter = 0.25;
  opt.vel_amp = 0.4;
  opt.seed = 2024;
  return opt;
}

PipelineOptions pipeline_options(CommVariant v, int leaf_size = 32) {
  PipelineOptions opt;
  opt.hydro.box = 1.0f;
  opt.hydro.variant = v;
  opt.leaf_size = leaf_size;
  return opt;
}

core::ParticleSet run_chain(const core::ParticleSet& base, const PipelineOptions& opt,
                            unsigned threads = 4) {
  core::ParticleSet p = base;
  util::ThreadPool pool(threads);
  xsycl::Queue q(pool);
  run_hydro_pipeline(q, p, opt);
  return p;
}

// Every field a pair kernel or its finalize writes, compared bit for bit.
void expect_identical(const core::ParticleSet& a, const core::ParticleSet& b,
                      const std::string& label) {
  EXPECT_EQ(a.m0, b.m0) << label;
  EXPECT_EQ(a.V, b.V) << label;
  EXPECT_EQ(a.moments, b.moments) << label;
  EXPECT_EQ(a.crk, b.crk) << label;
  EXPECT_EQ(a.rho, b.rho) << label;
  EXPECT_EQ(a.dvel, b.dvel) << label;
  EXPECT_EQ(a.P, b.P) << label;
  EXPECT_EQ(a.cs, b.cs) << label;
  EXPECT_EQ(a.ax, b.ax) << label;
  EXPECT_EQ(a.ay, b.ay) << label;
  EXPECT_EQ(a.az, b.az) << label;
  EXPECT_EQ(a.vsig, b.vsig) << label;
  EXPECT_EQ(a.du, b.du) << label;
}

TEST(NativeDriver, IsTheDefaultVariant) {
  EXPECT_EQ(HydroOptions{}.variant, CommVariant::kNative);
  EXPECT_EQ(gravity::PpOptions{}.variant, CommVariant::kNative);
  CommVariant v = CommVariant::kSelect;
  ASSERT_TRUE(xsycl::parse_variant("native", v));
  EXPECT_EQ(v, CommVariant::kNative);
  ASSERT_TRUE(xsycl::parse_variant(to_string(CommVariant::kNative), v));
  EXPECT_EQ(v, CommVariant::kNative);
  // Not a study variant: the enumerations behind the figures exclude it.
  for (const CommVariant s : xsycl::kAllVariants) EXPECT_NE(s, CommVariant::kNative);
}

// A lattice translated by a fraction of a cell and wrapped, so particles sit
// on both sides of every periodic face.
core::ParticleSet straddling_gas() {
  GasOptions opt = small_gas_options();
  opt.n_side = 6;
  opt.jitter = 0.3;
  core::ParticleSet p = make_gas(opt);
  const float box = static_cast<float>(opt.box);
  const float shift = static_cast<float>(0.6 * opt.box / opt.n_side);
  for (std::vector<float>* axis : {&p.x, &p.y, &p.z}) {
    for (float& c : *axis) {
      c += shift;
      if (c >= box) c -= box;
    }
  }
  return p;
}

struct ExactnessCase {
  std::string name;
  core::ParticleSet gas;
  int leaf_size;
};

TEST(NativePrefilter, SphKernelsMatchTheUnfilteredPassBitwise) {
  GasOptions tiny = small_gas_options();
  tiny.n_side = 4;  // 64 particles in two leaves: each spans over box/2
  const std::vector<ExactnessCase> cases = {
      {"lattice", make_gas(small_gas_options()), 32},
      {"np4 wide leaves", make_gas(tiny), 32},
      {"periodic straddle", straddling_gas(), 16},
  };
  for (const ExactnessCase& c : cases) {
    const PipelineOptions opt = pipeline_options(CommVariant::kNative, c.leaf_size);
    const core::ParticleSet filtered = run_chain(c.gas, opt);
    core::ParticleSet unfiltered;
    {
      const ScopedUnfilteredNativePairs all_pairs;
      unfiltered = run_chain(c.gas, opt);
    }
    expect_identical(filtered, unfiltered, c.name);
  }
}

TEST(NativeDriver, BitIdenticalAcrossThreadCounts) {
  const auto gas = straddling_gas();
  const PipelineOptions opt = pipeline_options(CommVariant::kNative, 16);
  const core::ParticleSet serial = run_chain(gas, opt, 1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    expect_identical(serial, run_chain(gas, opt, threads),
                     std::to_string(threads) + " threads");
  }
}

TEST(NativeDriver, CountsOnlyInteractCalls) {
  const auto gas = make_gas(small_gas_options());
  const PipelineOptions opt = pipeline_options(CommVariant::kNative);
  const auto interactions_of = [&](bool filtered) {
    core::ParticleSet p = gas;
    util::ThreadPool pool(2);
    xsycl::Queue q(pool);
    const Pipeline pipe = build_pipeline(p, opt);
    if (filtered) {
      run_hydro_chain(q, p, pipe, opt);
    } else {
      const ScopedUnfilteredNativePairs all_pairs;
      run_hydro_chain(q, p, pipe, opt);
    }
    std::uint64_t total = 0;
    for (const auto& s : q.history()) {
      if (s.kernel != "upBarAc") continue;  // pair launch only, no finalize
      EXPECT_EQ(s.n_sub_groups, pipe.tree().leaves().size());
      EXPECT_EQ(s.ops.atomic_f32_add, 0u);
      EXPECT_EQ(s.ops.atomic_f32_minmax, 0u);
      EXPECT_EQ(s.ops.global_loads, 0u);
      EXPECT_EQ(s.ops.select_words, 0u);
      EXPECT_EQ(s.ops.broadcast_ops, 0u);
      total += s.ops.interactions;
    }
    return total;
  };
  const std::uint64_t filtered = interactions_of(true);
  const std::uint64_t unfiltered = interactions_of(false);
  const std::uint64_t n = gas.size();
  EXPECT_GT(filtered, 0u);
  EXPECT_LT(filtered, unfiltered);  // the prefilter prunes
  // Unfiltered, every leaf pair is evaluated in full: at most all ordered
  // pairs once each.
  EXPECT_LE(unfiltered, n * (n - 1));
}

// ---- Short-range gravity ----

struct Cloud {
  std::vector<util::Vec3d> pos;
  std::vector<float> x, y, z, m;
};

Cloud random_cloud(int n, float box, std::uint64_t seed) {
  util::CounterRng rng(seed);
  Cloud c;
  c.pos.resize(n);
  c.x.resize(n);
  c.y.resize(n);
  c.z.resize(n);
  c.m.resize(n);
  for (int i = 0; i < n; ++i) {
    c.pos[i] = {box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
                box * rng.uniform(3 * i + 2)};
    c.x[i] = float(c.pos[i].x);
    c.y[i] = float(c.pos[i].y);
    c.z[i] = float(c.pos[i].z);
    c.m[i] = 1.0f + float(rng.uniform(9000 + i));
  }
  return c;
}

struct Accel {
  std::vector<float> x, y, z;
};

Accel run_native_pp(const Cloud& c, float box, const gravity::PolyShortForce& poly,
                    int leaf_size, unsigned threads = 4) {
  const std::size_t n = c.x.size();
  Accel a{std::vector<float>(n, 0.f), std::vector<float>(n, 0.f),
          std::vector<float>(n, 0.f)};
  const tree::RcbTree tr(c.pos, box, leaf_size);
  const auto pairs = tr.interacting_pairs(poly.r_cut());
  util::ThreadPool pool(threads);
  xsycl::Queue q(pool);
  gravity::PpOptions opt;
  opt.box = box;
  opt.G = 0.7f;
  opt.softening = 0.05f;
  gravity::run_pp_short(q,
                        {c.x.data(), c.y.data(), c.z.data(), c.m.data(), a.x.data(),
                         a.y.data(), a.z.data(), n},
                        tr, pairs, poly, opt);
  return a;
}

struct GravityCase {
  std::string name;
  gravity::PolyShortForce poly;
};

std::vector<GravityCase> gravity_cases(float box) {
  const double rs = 0.8;
  return {{"pm split", gravity::PolyShortForce(rs, 4.0 * rs)},
          {"fmm newtonian", gravity::PolyShortForce::newtonian(
                                std::sqrt(3.0) / 2.0 * box)}};
}

TEST(NativePrefilter, PpShortMatchesTheUnfilteredPassBitwise) {
  const float box = 10.0f;
  for (const GravityCase& gc : gravity_cases(box)) {
    for (const int leaf_size : {8, 24, 200}) {
      const std::string label = gc.name + " leaf " + std::to_string(leaf_size);
      const Cloud c = random_cloud(400, box, 17);
      const Accel filtered = run_native_pp(c, box, gc.poly, leaf_size);
      Accel unfiltered;
      {
        const ScopedUnfilteredNativePairs all_pairs;
        unfiltered = run_native_pp(c, box, gc.poly, leaf_size);
      }
      EXPECT_EQ(filtered.x, unfiltered.x) << label;
      EXPECT_EQ(filtered.y, unfiltered.y) << label;
      EXPECT_EQ(filtered.z, unfiltered.z) << label;
      const Accel serial = run_native_pp(c, box, gc.poly, leaf_size, 1);
      EXPECT_EQ(filtered.x, serial.x) << label << " vs 1 thread";
      EXPECT_EQ(filtered.y, serial.y) << label << " vs 1 thread";
      EXPECT_EQ(filtered.z, serial.z) << label << " vs 1 thread";
    }
  }
}

}  // namespace
}  // namespace hacc::sph
