// Scenario presets, config plumbing, and the step controller.

#include "run/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

namespace hacc::run {
namespace {

TEST(Scenario, ShipsAtLeastThreeNamedPresets) {
  const auto& all = scenarios();
  ASSERT_GE(all.size(), 3u);
  for (const char* name : {"paper-benchmark", "cosmology-box", "sph-adiabatic"}) {
    Scenario s;
    EXPECT_TRUE(find_scenario(name, s)) << name;
    EXPECT_EQ(s.name, name);
    EXPECT_EQ(s.sim.scenario, name);
    EXPECT_FALSE(s.summary.empty());
  }
  // Names are unique.
  for (std::size_t i = 0; i < all.size(); ++i) {
    for (std::size_t j = i + 1; j < all.size(); ++j) {
      EXPECT_NE(all[i].name, all[j].name);
    }
  }
}

TEST(Scenario, PaperBenchmarkIsTheSolverDefaultConfiguration) {
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  const core::SimConfig defaults;
  EXPECT_EQ(s.sim.np_side, defaults.np_side);
  EXPECT_EQ(s.sim.n_steps, defaults.n_steps);
  EXPECT_EQ(s.sim.hydro, defaults.hydro);
  EXPECT_EQ(s.sim.gravity_backend, defaults.gravity_backend);
  EXPECT_EQ(s.run.stepping.mode, StepMode::kFixed);
  // Identical physics signature: the preset must reproduce Solver::run().
  core::SimConfig named = defaults;
  named.scenario = "paper-benchmark";
  EXPECT_EQ(core::config_signature(s.sim), core::config_signature(named));
}

TEST(Scenario, UnknownNameRejected) {
  Scenario s;
  s.name = "sentinel";
  EXPECT_FALSE(find_scenario("warp-drive", s));
  EXPECT_EQ(s.name, "sentinel");  // untouched on failure
}

TEST(Scenario, ApplyConfigOverridesPhysicsAndRunKeys) {
  Scenario s;
  ASSERT_TRUE(find_scenario("cosmology-box", s));
  util::Config cfg;
  cfg.set("np", "8");
  cfg.set("z_final", "20");
  cfg.set("gravity.backend", "fmm");
  cfg.set("run.mode", "fixed");
  cfg.set("run.checkpoint_every", "2");
  cfg.set("run.outputs_z", "30, 20");
  std::string error;
  ASSERT_TRUE(apply_config(cfg, s.sim, s.run, error)) << error;
  EXPECT_EQ(s.sim.np_side, 8);
  EXPECT_DOUBLE_EQ(s.sim.z_final, 20.0);
  EXPECT_EQ(s.sim.gravity_backend, core::GravityBackend::kFmm);
  EXPECT_EQ(s.run.stepping.mode, StepMode::kFixed);
  EXPECT_EQ(s.run.checkpoint_every, 2);
  ASSERT_EQ(s.run.outputs_z.size(), 2u);
  EXPECT_DOUBLE_EQ(s.run.outputs_z[0], 30.0);
  EXPECT_DOUBLE_EQ(s.run.outputs_z[1], 20.0);
}

TEST(Scenario, ApplyConfigRejectsBadValues) {
  const auto rejects = [](const std::string& key, const std::string& value) {
    Scenario s;
    EXPECT_TRUE(find_scenario("paper-benchmark", s));
    util::Config cfg;
    cfg.set(key, value);
    std::string error;
    const bool ok = apply_config(cfg, s.sim, s.run, error);
    EXPECT_FALSE(ok) << key << "=" << value;
    EXPECT_FALSE(error.empty()) << key << "=" << value;
  };
  rejects("gravity.backend", "p3m");
  rejects("gravity.pm_gradient", "fd8");
  rejects("run.mode", "sometimes");
  rejects("run.outputs_z", "10,abc");
  rejects("np", "1");
  rejects("z_final", "500");  // z_init defaults to 200: must be > z_final
}

TEST(Scenario, KeysApplyConfigDoesNotReadStayUnread) {
  // hacc_run rejects every key left unread after apply_config and its own
  // reads, so retired keys and a misspelt one must all be left over, and
  // no key apply_config knows may be.
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  util::Config cfg;
  cfg.set("np", "4");
  cfg.set("steps", "1");
  cfg.set("shard.count", "4");
  cfg.set("domain.skin", "0.2");
  cfg.set("domain.rebuild", "displacement");
  cfg.set("run.chekpoint", "x.ckpt");
  cfg.set("threads", "2");
  std::string error;
  ASSERT_TRUE(apply_config(cfg, s.sim, s.run, error)) << error;
  EXPECT_EQ(cfg.unread_keys(),
            (std::vector<std::string>{"domain.rebuild", "domain.skin",
                                      "run.chekpoint", "shard.count",
                                      "threads"}));
  cfg.get_int("threads", 0);  // the CLI's own key
  EXPECT_EQ(cfg.unread_keys(),
            (std::vector<std::string>{"domain.rebuild", "domain.skin",
                                      "run.chekpoint", "shard.count"}));
}

TEST(StepMode, StringRoundTrip) {
  for (const StepMode m : {StepMode::kFixed, StepMode::kAdaptive}) {
    StepMode out = StepMode::kFixed;
    ASSERT_TRUE(parse_step_mode(to_string(m), out));
    EXPECT_EQ(out, m);
  }
  StepMode out = StepMode::kAdaptive;
  EXPECT_FALSE(parse_step_mode("euler", out));
  EXPECT_EQ(out, StepMode::kAdaptive);
}

TEST(StepController, FixedModePreservesTheSolverStep) {
  core::SimConfig sim;
  StepControllerOptions opt;
  opt.mode = StepMode::kFixed;
  const StepController ctl(sim, opt);
  EXPECT_DOUBLE_EQ(ctl.next_da(0.01, 0.0025, 10.0, 1e4), 0.0025);
  EXPECT_FALSE(ctl.done(0.01, sim.n_steps - 1));
  EXPECT_TRUE(ctl.done(0.01, sim.n_steps));
}

TEST(StepController, AdaptiveRespectsBoundsAndTarget) {
  core::SimConfig sim;
  sim.z_final = 10.0;
  StepControllerOptions opt;
  opt.mode = StepMode::kAdaptive;
  opt.da_min = 1e-5;
  opt.da_max = 0.01;
  const StepController ctl(sim, opt);
  const double a = 0.02;

  // Calm state: the cap binds.
  EXPECT_DOUBLE_EQ(ctl.next_da(a, 0.0, 1e-12, 1e-12), opt.da_max);
  // Violent state: the floor binds.
  EXPECT_DOUBLE_EQ(ctl.next_da(a, 0.0, 1e12, 1e12), opt.da_min);
  // Faster particles never lengthen the step.
  double prev = 1e9;
  for (const double v : {0.1, 1.0, 10.0, 100.0}) {
    const double da = ctl.next_da(a, 0.0, v, 1.0);
    EXPECT_LE(da, prev);
    prev = da;
  }
  // The last step lands exactly on a_final.
  const double near_end = ctl.a_final() - 1e-4;
  EXPECT_DOUBLE_EQ(ctl.next_da(near_end, 0.0, 1e-12, 1e-12),
                   ctl.a_final() - near_end);
  EXPECT_TRUE(ctl.done(ctl.a_final(), 0));
  EXPECT_FALSE(ctl.done(near_end, 1000));
}

}  // namespace
}  // namespace hacc::run
