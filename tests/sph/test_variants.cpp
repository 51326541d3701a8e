// The central correctness claim of the reproduction: all five communication
// variants of the half-warp kernels (Select / Memory-32bit / Memory-Object /
// Broadcast / vISA) compute the same physics, across sub-group sizes of 16,
// 32 and 64 — only their communication mechanics (and hence cost) differ.
// The native production driver is held to the same equivalence checks.

#include <gtest/gtest.h>

#include <cmath>

#include "gas_fixture.hpp"
#include "sph/pipeline.hpp"
#include "sph/reference.hpp"

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

PipelineOptions pipeline_options(CommVariant v, int sg_size) {
  PipelineOptions opt;
  opt.hydro.box = 1.0f;
  opt.hydro.variant = v;
  opt.hydro.launch.sub_group_size = sg_size;
  opt.leaf_size = 32;
  return opt;
}

struct PipelineOutputs {
  std::vector<float> V, rho, P, ax, ay, az, du, vsig, crkA;
};

PipelineOutputs run_variant(const core::ParticleSet& base, CommVariant v, int sg_size) {
  core::ParticleSet p = base;
  util::ThreadPool pool(4);
  xsycl::Queue q(pool);
  run_hydro_pipeline(q, p, pipeline_options(v, sg_size));
  return {p.V, p.rho, p.P, p.ax, p.ay, p.az, p.du, p.vsig,
          [&p] {
            std::vector<float> a(p.size());
            for (std::size_t i = 0; i < p.size(); ++i) {
              a[i] = p.crk[core::crk_idx::kCount * i + core::crk_idx::kA];
            }
            return a;
          }()};
}

double max_abs(const std::vector<float>& v) {
  double m = 0.0;
  for (const float x : v) m = std::max(m, double(std::fabs(x)));
  return m;
}

void expect_close(const std::vector<float>& a, const std::vector<float>& b,
                  double rel_of_max, const char* what) {
  ASSERT_EQ(a.size(), b.size());
  const double scale = std::max(max_abs(a), 1e-20);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a[i], b[i], rel_of_max * scale) << what << " particle " << i;
  }
}

class VariantEquivalence
    : public ::testing::TestWithParam<std::tuple<CommVariant, int>> {};

std::string variant_param_name(
    const ::testing::TestParamInfo<std::tuple<CommVariant, int>>& info) {
  std::string v = to_string(std::get<0>(info.param));
  for (char& c : v) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return v + "_sg" + std::to_string(std::get<1>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AllVariantsAllSgSizes, VariantEquivalence,
    ::testing::Combine(::testing::ValuesIn(xsycl::kAllVariants),
                       ::testing::Values(16, 32, 64)),
    variant_param_name);

// The production pair driver (pairs/native.hpp) must pass the same checks.
// It emulates no sub-group, so one sub-group size covers it.
INSTANTIATE_TEST_SUITE_P(
    NativeDriver, VariantEquivalence,
    ::testing::Combine(::testing::Values(CommVariant::kNative),
                       ::testing::Values(32)),
    variant_param_name);

TEST_P(VariantEquivalence, MatchesScalarDoubleReference) {
  const auto [variant, sg_size] = GetParam();
  const auto opt = small_gas_options();
  const auto gas = make_gas(opt);
  const auto got = run_variant(gas, variant, sg_size);
  const auto ref = reference_hydro(gas, opt.box);

  const auto check = [&](const std::vector<float>& a, const std::vector<double>& r,
                         double tol_rel, const char* what) {
    double scale = 1e-20;
    for (const double x : r) scale = std::max(scale, std::fabs(x));
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_NEAR(a[i], r[i], tol_rel * scale) << what << " particle " << i;
    }
  };
  check(got.V, ref.V, 1e-4, "V");
  check(got.crkA, [&] {
    std::vector<double> v(ref.crk.size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = ref.crk[i].A;
    return v;
  }(), 1e-4, "crkA");
  check(got.rho, ref.rho, 1e-4, "rho");
  check(got.P, ref.P, 1e-4, "P");
  check(got.du, ref.du, 5e-3, "du");
  check(got.vsig, ref.vsig, 1e-3, "vsig");
  check(got.ax, [&] {
    std::vector<double> v(ref.accel.size());
    for (std::size_t i = 0; i < v.size(); ++i) v[i] = ref.accel[i].x;
    return v;
  }(), 5e-3, "ax");
}

TEST_P(VariantEquivalence, MatchesSelectVariantTightly) {
  const auto [variant, sg_size] = GetParam();
  if (variant == CommVariant::kSelect && sg_size == 32) GTEST_SKIP();
  const auto opt = small_gas_options();
  const auto gas = make_gas(opt);
  const auto got = run_variant(gas, variant, sg_size);
  const auto sel = run_variant(gas, CommVariant::kSelect, 32);

  // Same float math, different summation order: tight tolerances.
  expect_close(got.V, sel.V, 1e-5, "V");
  expect_close(got.crkA, sel.crkA, 1e-5, "crkA");
  expect_close(got.rho, sel.rho, 1e-5, "rho");
  expect_close(got.P, sel.P, 1e-5, "P");
  expect_close(got.du, sel.du, 2e-3, "du");
  expect_close(got.ax, sel.ax, 2e-3, "ax");
  expect_close(got.ay, sel.ay, 2e-3, "ay");
  expect_close(got.az, sel.az, 2e-3, "az");
  expect_close(got.vsig, sel.vsig, 1e-4, "vsig");
}

TEST(VariantCounters, ExchangeVariantsEvaluateIdenticalInteractionCounts) {
  const auto opt = small_gas_options();
  const auto gas = make_gas(opt);
  std::uint64_t select_count = 0;
  for (const auto v : xsycl::kExchangeVariants) {
    core::ParticleSet p = gas;
    util::ThreadPool pool(2);
    xsycl::Queue q(pool);
    run_hydro_pipeline(q, p, pipeline_options(v, 32));
    std::uint64_t total = 0;
    for (const auto& s : q.history()) total += s.ops.interactions;
    if (v == CommVariant::kSelect) {
      select_count = total;
    } else {
      EXPECT_EQ(total, select_count) << to_string(v);
    }
  }
  EXPECT_GT(select_count, 0u);
}

TEST(VariantCounters, BroadcastIssuesFewerAtomics) {
  // §5.3.2: "Restructuring the loops to use broadcasts also allows us to
  // generate fewer atomic instructions."
  const auto opt = small_gas_options();
  const auto gas = make_gas(opt);
  const auto atomics_for = [&](CommVariant v) {
    core::ParticleSet p = gas;
    util::ThreadPool pool(2);
    xsycl::Queue q(pool);
    run_hydro_pipeline(q, p, pipeline_options(v, 32));
    std::uint64_t total = 0;
    for (const auto& s : q.history()) {
      total += s.ops.atomic_f32_add + s.ops.atomic_f32_minmax;
    }
    return total;
  };
  EXPECT_LT(atomics_for(CommVariant::kBroadcast), atomics_for(CommVariant::kSelect));
}

TEST(VariantCounters, VariantSpecificTrafficRecorded) {
  const auto opt = small_gas_options();
  const auto gas = make_gas(opt);
  const auto counters_for = [&](CommVariant v) {
    core::ParticleSet p = gas;
    util::ThreadPool pool(2);
    xsycl::Queue q(pool);
    run_hydro_pipeline(q, p, pipeline_options(v, 32));
    xsycl::OpCounters total;
    for (const auto& s : q.history()) total.merge(s.ops);
    return total;
  };
  const auto sel = counters_for(CommVariant::kSelect);
  EXPECT_GT(sel.select_words, 0u);
  EXPECT_EQ(sel.localobj_bytes, 0u);
  const auto mem = counters_for(CommVariant::kMemoryObject);
  EXPECT_GT(mem.localobj_bytes, 0u);
  EXPECT_EQ(mem.select_ops, 0u);
  const auto bro = counters_for(CommVariant::kBroadcast);
  EXPECT_GT(bro.broadcast_ops, 0u);
  EXPECT_GT(bro.reduce_ops, 0u);
  const auto visa = counters_for(CommVariant::kVISA);
  EXPECT_GT(visa.butterfly_words, 0u);
}

}  // namespace
}  // namespace hacc::sph
