// Integration tests of the full solver: the paper's benchmark scenario at
// miniature scale — two species, Zel'dovich ICs at z=200, five KDK steps to
// z=50 (§3.4.2-3.4.3).

#include "core/solver.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "obs/metrics.hpp"
#include "util/config.hpp"

namespace hacc::core {
namespace {

SimConfig small_config() {
  SimConfig cfg;
  cfg.np_side = 10;
  cfg.box = 25.0;
  cfg.pm_grid = 32;
  cfg.n_steps = 5;
  cfg.seed = 7;
  return cfg;
}

double measured_growth_ratio(const SimConfig& cfg, util::ThreadPool& pool) {
  Solver solver(cfg, pool);
  solver.initialize();
  const auto d0 = solver.diagnostics();
  for (int s = 0; s < cfg.n_steps; ++s) solver.step();
  const auto d1 = solver.diagnostics();
  return d1.max_displacement / d0.max_displacement;
}

// The run-wide PM solve counter (absent until some PmSolver registers it).
double pm_solves() {
  for (const auto& m : obs::MetricsRegistry::global().snapshot()) {
    if (m.name == "pm.solves") return m.value;
  }
  return 0.0;
}

double expected_growth_ratio(const SimConfig& cfg) {
  const double a_i = ic::Cosmology::a_of_z(cfg.z_init);
  const double a_f = ic::Cosmology::a_of_z(cfg.z_final);
  return cfg.cosmo.growth(a_f) / cfg.cosmo.growth(a_i);
}

TEST(Solver, GravityOnlyTracksLinearGrowth) {
  // The Zel'dovich consistency test: displacements must grow by
  // D(a_final)/D(a_init) over the run (20 steps keeps integrator error small).
  SimConfig cfg = small_config();
  cfg.hydro = false;
  cfg.np_side = 12;
  cfg.n_steps = 20;
  util::ThreadPool pool(8);
  const double expect = expected_growth_ratio(cfg);
  EXPECT_NEAR(measured_growth_ratio(cfg, pool), expect, 0.05 * expect);
}

TEST(Solver, GrowthErrorShrinksWithStepCount) {
  // The paper's 5-step benchmark configuration is deliberately coarse; the
  // integrator must converge toward linear theory as steps are refined.
  SimConfig cfg = small_config();
  cfg.hydro = false;
  util::ThreadPool pool(8);
  const double expect = expected_growth_ratio(cfg);
  cfg.n_steps = 5;
  const double err5 = std::abs(measured_growth_ratio(cfg, pool) / expect - 1.0);
  cfg.n_steps = 20;
  const double err20 = std::abs(measured_growth_ratio(cfg, pool) / expect - 1.0);
  EXPECT_LT(err20, 0.5 * err5);
  EXPECT_LT(err20, 0.06);
  EXPECT_LT(err5, 0.30);
}

TEST(Solver, GravityOnlyPerParticleGrowthCorrelation) {
  SimConfig cfg = small_config();
  cfg.hydro = false;
  cfg.n_steps = 20;
  util::ThreadPool pool(8);
  Solver solver(cfg, pool);
  solver.initialize();
  // Record initial displacements from the lattice.
  const double dx = cfg.box / cfg.np_side;
  const auto displacement = [&](const ParticleSet& p, std::vector<util::Vec3d>& out) {
    out.clear();
    std::size_t i = 0;
    for (int ix = 0; ix < cfg.np_side; ++ix) {
      for (int iy = 0; iy < cfg.np_side; ++iy) {
        for (int iz = 0; iz < cfg.np_side; ++iz, ++i) {
          const util::Vec3d q{(ix + 0.5) * dx, (iy + 0.5) * dx, (iz + 0.5) * dx};
          out.push_back(sph::min_image(p.pos_of(i) - q, cfg.box));
        }
      }
    }
  };
  std::vector<util::Vec3d> disp0, disp1;
  displacement(solver.dm(), disp0);
  for (int s = 0; s < cfg.n_steps; ++s) solver.step();
  displacement(solver.dm(), disp1);

  // Least-squares growth estimate <d1 . d0> / <d0 . d0>.
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < disp0.size(); ++i) {
    num += dot(disp1[i], disp0[i]);
    den += dot(disp0[i], disp0[i]);
  }
  const double a_i = ic::Cosmology::a_of_z(cfg.z_init);
  const double a_f = ic::Cosmology::a_of_z(cfg.z_final);
  const double growth_ratio = cfg.cosmo.growth(a_f) / cfg.cosmo.growth(a_i);
  EXPECT_NEAR(num / den, growth_ratio, 0.1 * growth_ratio);
}

TEST(Solver, FullHydroRunStaysFinite) {
  SimConfig cfg = small_config();
  cfg.n_steps = 3;
  util::ThreadPool pool(8);
  Solver solver(cfg, pool);
  solver.run();
  const auto& gas = solver.gas();
  for (std::size_t i = 0; i < gas.size(); ++i) {
    ASSERT_TRUE(std::isfinite(gas.x[i]));
    ASSERT_TRUE(std::isfinite(gas.vx[i]));
    ASSERT_TRUE(std::isfinite(gas.u[i]));
    ASSERT_GE(gas.u[i], 0.f);
    ASSERT_GT(gas.rho[i], 0.f);
    ASSERT_GT(gas.V[i], 0.f);
  }
}

TEST(Solver, TimersCoverAllPaperKernels) {
  SimConfig cfg = small_config();
  cfg.np_side = 8;
  cfg.n_steps = 2;
  util::ThreadPool pool(4);
  Solver solver(cfg, pool);
  solver.initialize();
  for (int s = 0; s < cfg.n_steps; ++s) {
    EXPECT_GT(solver.step().phases.at("pm"), 0.0);  // the PM stage wall
  }
  // The launch history holds the seven SPH kernels of Figs. 9-11 plus
  // short-range gravity.
  const auto launched = solver.queue().time_by_kernel();
  for (const char* name : {"upGeo", "upCor", "upBarEx", "upBarAc", "upBarDu",
                           "upBarAcF", "upBarDuF", "grav_pp"}) {
    EXPECT_TRUE(launched.contains(name)) << name;
  }
  // upBarAcF runs every step; upBarAc only at initialization.
  EXPECT_EQ(launched.at("upBarAcF").calls,
            static_cast<std::uint64_t>(cfg.n_steps));
  EXPECT_EQ(launched.at("upBarAc").calls, 1u);
}

TEST(Solver, StepPhasesTimeEachStageOnce) {
  // Regression: a stage-wide timer and the per-launch timer used to add into
  // one "grav_pp" entry, counting short-range gravity twice.  Now the stage
  // executor times stages and the launch history times kernels, so the
  // grav_pp launches fit inside their short_range stage, and the StepStats
  // stage fields are sums over phases.  Every backend builds one graph from
  // the same stage names, and the tree stage is the only tree timing.
  const std::set<std::string> stages = {"assemble",  "tree",        "sph",
                                        "pm",        "fmm_build",   "short_range",
                                        "far_field"};
  for (const GravityBackend backend :
       {GravityBackend::kPmPp, GravityBackend::kFmm, GravityBackend::kTreePm}) {
    SCOPED_TRACE(to_string(backend));
    SimConfig cfg = small_config();
    cfg.np_side = 8;
    cfg.n_steps = 1;
    cfg.gravity_backend = backend;
    util::ThreadPool pool(2);
    Solver solver(cfg, pool);
    solver.initialize();
    solver.queue().clear_history();
    const StepStats s = solver.step();
    const xsycl::KernelTime pp = solver.queue().time_by_kernel().at("grav_pp");
    EXPECT_GT(pp.calls, 0u);
    ASSERT_TRUE(s.phases.contains("short_range"));
    EXPECT_LE(pp.seconds, s.phases.at("short_range"));
    for (const auto& [name, seconds] : s.phases) {
      EXPECT_TRUE(stages.contains(name)) << "unexpected phase " << name;
    }

    const auto phase = [&s](const char* name) {
      const auto it = s.phases.find(name);
      return it == s.phases.end() ? 0.0 : it->second;
    };
    EXPECT_EQ(s.short_range_seconds, phase("sph") + phase("fmm_build") +
                                         phase("short_range") +
                                         phase("far_field"));
    EXPECT_EQ(s.pm_seconds, phase("pm"));
    ASSERT_TRUE(s.phases.contains("tree"));
  }
}

TEST(Solver, MassIsExactlyBoxVolume) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  solver.initialize();
  const auto d = solver.diagnostics();
  EXPECT_NEAR(d.total_mass, cfg.box * cfg.box * cfg.box, 1e-5 * d.total_mass);
}

TEST(Solver, BaryonFractionSplitsMass) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  cfg.baryon_fraction = 0.2;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  solver.initialize();
  double dm_mass = 0.0, gas_mass = 0.0;
  for (const float m : solver.dm().mass) dm_mass += m;
  for (const float m : solver.gas().mass) gas_mass += m;
  EXPECT_NEAR(gas_mass / (dm_mass + gas_mass), 0.2, 1e-6);
}

TEST(Solver, MomentumStaysSmall) {
  SimConfig cfg = small_config();
  cfg.np_side = 8;
  cfg.n_steps = 3;
  util::ThreadPool pool(4);
  Solver solver(cfg, pool);
  solver.run();
  const auto d = solver.diagnostics();
  // Zel'dovich ICs have zero net momentum; forces conserve it pair-wise.
  const double v_scale = std::sqrt(2.0 * d.kinetic_energy / d.total_mass);
  for (int c = 0; c < 3; ++c) {
    EXPECT_LT(std::abs(d.momentum[c]), 0.05 * d.total_mass * v_scale) << c;
  }
}

TEST(Solver, VariantSelectionIsExercised) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  cfg.n_steps = 1;
  cfg.variants = VariantSelection::uniform(xsycl::CommVariant::kMemoryObject);
  cfg.variants.acceleration = xsycl::CommVariant::kBroadcast;
  util::ThreadPool pool(4);
  Solver solver(cfg, pool);
  solver.run();
  xsycl::OpCounters total;
  for (const auto& s : solver.queue().history()) total.merge(s.ops);
  EXPECT_GT(total.localobj_bytes, 0u);   // MemoryObject kernels
  EXPECT_GT(total.broadcast_ops, 0u);    // Broadcast acceleration
  EXPECT_EQ(total.select_words, 0u);     // nothing used Select
}

TEST(Solver, SharedDomainBuildsExactlyOneTreePerForceEvaluation) {
  // The tentpole invariant: SPH and gravity share ONE tree build per force
  // evaluation.  initialize() runs one evaluation; each KDK step runs
  // exactly one more (the corrector — its output doubles as the next step's
  // predictor forces).
  for (const GravityBackend backend :
       {GravityBackend::kPmPp, GravityBackend::kTreePm}) {
    SimConfig cfg = small_config();
    cfg.np_side = 6;
    cfg.gravity_backend = backend;
    cfg.hydro = backend == GravityBackend::kPmPp;  // hydro exercises the SPH path
    util::ThreadPool pool(2);
    Solver solver(cfg, pool);
    solver.initialize();  // one force evaluation
    EXPECT_EQ(solver.interaction_domain().stats().builds, 1u) << to_string(backend);
    const auto s1 = solver.step();
    EXPECT_EQ(s1.tree_builds, 1) << to_string(backend);
    const auto s2 = solver.step();
    EXPECT_EQ(s2.tree_builds, 1) << to_string(backend);
    EXPECT_EQ(solver.interaction_domain().stats().builds, 3u) << to_string(backend);
  }
}

TEST(GravityBackend, StringRoundTripThroughConfig) {
  util::Config cfg;
  for (const GravityBackend b : {GravityBackend::kPmPp, GravityBackend::kFmm,
                                 GravityBackend::kTreePm}) {
    cfg.set("gravity.backend", to_string(b));
    GravityBackend out = GravityBackend::kPmPp;
    ASSERT_TRUE(parse_gravity_backend(cfg.get_string("gravity.backend", ""), out))
        << to_string(b);
    EXPECT_EQ(out, b);
  }
}

TEST(PmGradientConfig, StringRoundTripThroughConfig) {
  util::Config cfg;
  for (const gravity::PmGradient g :
       {gravity::PmGradient::kSpectral, gravity::PmGradient::kFd4,
        gravity::PmGradient::kFd6}) {
    cfg.set("gravity.pm_gradient", gravity::to_string(g));
    gravity::PmGradient out = gravity::PmGradient::kSpectral;
    ASSERT_TRUE(gravity::parse_pm_gradient(
        cfg.get_string("gravity.pm_gradient", ""), out))
        << gravity::to_string(g);
    EXPECT_EQ(out, g);
  }
}

TEST(PmGradientConfig, FdSolverTracksSpectralSolver) {
  // One predictor force evaluation with the fd6 gradient stays close to the
  // spectral reference at the solver level (long-range mesh part only; the
  // short-range PP sum is identical by construction).
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  cfg.n_steps = 1;
  util::ThreadPool pool(4);

  Solver spectral(cfg, pool);
  spectral.initialize();
  const auto a_ref = spectral.gravity_accelerations();

  cfg.pm_gradient = gravity::PmGradient::kFd6;
  Solver fd(cfg, pool);
  fd.initialize();
  const auto a_fd = fd.gravity_accelerations();

  ASSERT_EQ(a_ref.size(), a_fd.size());
  double diff = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < a_ref.size(); ++i) {
    diff += norm2(a_ref[i] - a_fd[i]);
    ref += norm2(a_ref[i]);
  }
  EXPECT_LT(std::sqrt(diff / std::max(ref, 1e-30)), 0.02);
}

TEST(GravityBackend, RejectsUnknownNames) {
  GravityBackend out = GravityBackend::kTreePm;
  EXPECT_FALSE(parse_gravity_backend("p3m", out));
  EXPECT_FALSE(parse_gravity_backend("", out));
  EXPECT_FALSE(parse_gravity_backend("FMM", out));
  EXPECT_EQ(out, GravityBackend::kTreePm);  // untouched on failure
}

namespace backend_parity {

double rms(const std::vector<util::Vec3d>& a) {
  double s = 0.0;
  for (const auto& v : a) s += norm2(v);
  return std::sqrt(s / static_cast<double>(a.size()));
}

double rms_diff(const std::vector<util::Vec3d>& a, const std::vector<util::Vec3d>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += norm2(a[i] - b[i]);
  return std::sqrt(s / static_cast<double>(a.size()));
}

}  // namespace backend_parity

TEST(Solver, BackendsAgreeOnUnperturbedLattice) {
  // sigma_norm = 0 leaves the exact initial lattice, whose gravity vanishes
  // by symmetry: every backend must keep it in equilibrium.  np_side is odd
  // so no particle pair sits exactly half a box apart, where the minimum
  // image is ambiguous.  The mesh-free fmm backend cancels to float
  // round-off; pm_pp carries a small CIC-aliasing self-force (the lattice
  // is incommensurate with the PM grid), which bounds the tolerance.
  SimConfig cfg = small_config();
  cfg.np_side = 9;
  cfg.hydro = false;
  cfg.sigma_norm = 0.0;
  util::ThreadPool pool(4);

  const double dx = cfg.box / cfg.np_side;
  const double m = cfg.box * cfg.box * cfg.box / (cfg.np_side * cfg.np_side * cfg.np_side);
  const double a_init = ic::Cosmology::a_of_z(cfg.z_init);
  const double g_code = 3.0 * cfg.cosmo.omega_m / (8.0 * M_PI * a_init);
  const double scale = g_code * m / (dx * dx);  // neighbor-force magnitude

  Solver pm(cfg, pool);
  pm.initialize();
  cfg.gravity_backend = GravityBackend::kFmm;
  Solver fmm(cfg, pool);
  fmm.initialize();
  cfg.gravity_backend = GravityBackend::kTreePm;
  Solver treepm(cfg, pool);
  treepm.initialize();

  const auto a_pm = pm.gravity_accelerations();
  const auto a_fmm = fmm.gravity_accelerations();
  const auto a_tp = treepm.gravity_accelerations();
  EXPECT_LT(backend_parity::rms(a_fmm), 1e-3 * scale);
  EXPECT_LT(backend_parity::rms(a_pm), 0.03 * scale);
  EXPECT_LT(backend_parity::rms_diff(a_fmm, a_pm), 0.03 * scale);
  EXPECT_LT(backend_parity::rms_diff(a_tp, a_pm), 0.03 * scale);
}

TEST(Solver, TreePmMatchesPmPpOnZeldovichIcs) {
  // Identical PM long range and short-range force law: the backends may
  // differ only by the far-field multipole approximation.
  SimConfig cfg = small_config();
  cfg.hydro = false;
  util::ThreadPool pool(4);
  Solver pm(cfg, pool);
  pm.initialize();
  cfg.gravity_backend = GravityBackend::kTreePm;
  Solver treepm(cfg, pool);
  treepm.initialize();

  const auto a_pm = pm.gravity_accelerations();
  const auto a_tp = treepm.gravity_accelerations();
  EXPECT_LT(backend_parity::rms_diff(a_tp, a_pm), 1e-3 * backend_parity::rms(a_pm));
}

TEST(Solver, FmmBackendExercisesFarFieldAndStaysFinite) {
  SimConfig cfg = small_config();
  cfg.np_side = 16;
  cfg.hydro = false;
  cfg.leaf_size = 4;  // thin leaves: the MAC accepts real far-field work
  cfg.gravity_backend = GravityBackend::kFmm;
  cfg.n_steps = 1;
  util::ThreadPool pool(4);
  Solver solver(cfg, pool);
  const double solves0 = pm_solves();
  solver.initialize();
  EXPECT_GT(solver.fmm_ops().m2p_ops, 0u);
  for (const auto& a : solver.gravity_accelerations()) {
    ASSERT_TRUE(std::isfinite(a.x) && std::isfinite(a.y) && std::isfinite(a.z));
  }
  // The fmm backend replaces the mesh: the tree stages and the near-field
  // launches run, a PM solve never does.
  EXPECT_TRUE(solver.queue().time_by_kernel().contains("grav_pp"));
  const StepStats s = solver.step();
  EXPECT_TRUE(s.phases.contains("fmm_build"));
  EXPECT_TRUE(s.phases.contains("far_field"));
  EXPECT_EQ(pm_solves(), solves0);
}

TEST(Solver, DoubleInitializeFailsLoudly) {
  // Regression: initialize() (and therefore run()) used to silently
  // regenerate ICs over an evolved state.
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  EXPECT_FALSE(solver.initialized());
  solver.initialize();
  EXPECT_TRUE(solver.initialized());
  EXPECT_THROW(solver.initialize(), std::logic_error);
  EXPECT_THROW(solver.run(), std::logic_error);  // run() re-initializes
}

TEST(Solver, StepBeforeInitializeFailsLoudly) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  EXPECT_THROW(solver.step(), std::logic_error);
  EXPECT_THROW(solver.prepare_forces(), std::logic_error);
  solver.initialize();
  EXPECT_NO_THROW(solver.step());
}

TEST(Solver, StepReportsStats) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  cfg.n_steps = 2;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  solver.initialize();
  const StepStats s1 = solver.step();
  const StepStats s2 = solver.step();
  EXPECT_EQ(s1.step, 1);
  EXPECT_EQ(s2.step, 2);
  EXPECT_DOUBLE_EQ(s2.a0, s1.a1);
  EXPECT_DOUBLE_EQ(s1.da, solver.time_step());
  EXPECT_DOUBLE_EQ(s2.z, solver.redshift());
  EXPECT_GT(s1.kinetic_energy, 0.0);
  EXPECT_GT(s1.thermal_energy, 0.0);
  EXPECT_GT(s1.max_velocity, 0.0);
  EXPECT_GT(s1.max_acceleration, 0.0);
  EXPECT_GE(s1.wall_seconds, 0.0);
  // The stats energies agree with the independent diagnostics pass.
  const auto d = solver.diagnostics();
  EXPECT_NEAR(s2.kinetic_energy, d.kinetic_energy,
              1e-12 * d.kinetic_energy);
}

TEST(Solver, RestoreValidatesShapeAndLifecycle) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  util::ThreadPool pool(2);

  Solver donor(cfg, pool);
  donor.initialize();
  const StepStats s = donor.step();

  // Shape mismatches and bad scale factors fail loudly.
  Solver fresh(cfg, pool);
  EXPECT_THROW(fresh.restore(ParticleSet{}, ParticleSet{}, s.a1, 1),
               std::invalid_argument);
  EXPECT_THROW(fresh.restore(donor.dm(), ParticleSet{}, s.a1, 1),
               std::invalid_argument);  // hydro config expects baryons
  EXPECT_THROW(fresh.restore(donor.dm(), donor.gas(), -1.0, 1),
               std::invalid_argument);

  // A valid restore adopts the state and continues.
  fresh.restore(donor.dm(), donor.gas(), s.a1, donor.steps_taken());
  EXPECT_TRUE(fresh.initialized());
  EXPECT_DOUBLE_EQ(fresh.scale_factor(), donor.scale_factor());
  EXPECT_EQ(fresh.steps_taken(), donor.steps_taken());
  EXPECT_THROW(fresh.restore(donor.dm(), donor.gas(), s.a1, 1),
               std::logic_error);  // restore is initialization too
  EXPECT_NO_THROW(fresh.step());
}

TEST(Solver, SetTimeStepValidatesAndApplies) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  util::ThreadPool pool(2);
  Solver solver(cfg, pool);
  EXPECT_THROW(solver.set_time_step(0.0), std::invalid_argument);
  EXPECT_THROW(solver.set_time_step(-1e-3), std::invalid_argument);
  solver.set_time_step(1e-3);
  EXPECT_DOUBLE_EQ(solver.time_step(), 1e-3);
  solver.initialize();
  const StepStats s = solver.step();
  EXPECT_DOUBLE_EQ(s.da, 1e-3);
}

TEST(ConfigSignature, SensitiveToPhysicsNotTuning) {
  const SimConfig base;
  EXPECT_EQ(config_signature(base), config_signature(SimConfig{}));

  SimConfig seed = base;
  seed.seed += 1;
  EXPECT_NE(config_signature(seed), config_signature(base));
  SimConfig np = base;
  np.np_side += 1;
  EXPECT_NE(config_signature(np), config_signature(base));
  SimConfig backend = base;
  backend.gravity_backend = GravityBackend::kFmm;
  EXPECT_NE(config_signature(backend), config_signature(base));
  SimConfig hydro = base;
  hydro.hydro = false;
  EXPECT_NE(config_signature(hydro), config_signature(base));

  // Execution-tuning knobs are restartable: they do not change the hash.
  SimConfig tuning = base;
  tuning.sub_group_size = 16;
  tuning.sg_per_wg = 8;
  tuning.variants = VariantSelection::uniform(xsycl::CommVariant::kBroadcast);
  tuning.scenario = "renamed";
  EXPECT_EQ(config_signature(tuning), config_signature(base));
}

TEST(Solver, SubGroupSizeSixteenRuns) {
  SimConfig cfg = small_config();
  cfg.np_side = 6;
  cfg.n_steps = 1;
  cfg.sub_group_size = 16;  // Aurora's HACC_SYCL_SG_SIZE
  util::ThreadPool pool(4);
  Solver solver(cfg, pool);
  solver.run();
  for (const auto& s : solver.queue().history()) {
    EXPECT_EQ(s.sub_group_size, 16);
  }
}

}  // namespace
}  // namespace hacc::core
