// End-to-end ScenarioRunner tests: the paper-benchmark preset must
// reproduce Solver::run() exactly, and a checkpoint restart must continue
// bit-for-bit — per gravity backend, and through the adaptive stepper.
//
// The runs share one single-worker pool, and the restart battery repeats on
// a four-worker pool: every force evaluation is bitwise reproducible at any
// thread count (docs/CONCURRENCY.md), so "identical particle state" means
// exact float equality either way.

#include "run/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "run/scenario.hpp"

namespace hacc::run {
namespace {

util::ThreadPool& test_pool() {
  static util::ThreadPool pool(1);
  return pool;
}

void expect_bitwise_equal(const core::ParticleSet& a, const core::ParticleSet& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(a.x, b.x) << what;
  EXPECT_EQ(a.y, b.y) << what;
  EXPECT_EQ(a.z, b.z) << what;
  EXPECT_EQ(a.vx, b.vx) << what;
  EXPECT_EQ(a.vy, b.vy) << what;
  EXPECT_EQ(a.vz, b.vz) << what;
  EXPECT_EQ(a.u, b.u) << what;
  EXPECT_EQ(a.rho, b.rho) << what;
  EXPECT_EQ(a.h, b.h) << what;
}

class RunnerTest : public ::testing::Test {
 protected:
  std::string temp_path(const std::string& tail) {
    const std::string p = ::testing::TempDir() + "/hacc_runner_" + tail;
    cleanup_.push_back(p);
    return p;
  }
  void TearDown() override {
    for (const auto& base : cleanup_) {
      std::remove(base.c_str());
      for (int s = 0; s <= 64; ++s) {
        std::remove((base + ".step" + std::to_string(s)).c_str());
      }
    }
  }
  std::vector<std::string> cleanup_;
};

TEST_F(RunnerTest, PaperBenchmarkReproducesSolverRun) {
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  s.sim.np_side = 8;

  core::Solver reference(s.sim, test_pool());
  reference.run();

  ScenarioRunner runner(s.sim, s.run, test_pool());
  const RunResult result = runner.run();

  EXPECT_EQ(result.steps, s.sim.n_steps);
  EXPECT_DOUBLE_EQ(result.final_a, reference.scale_factor());
  expect_bitwise_equal(runner.solver().dm(), reference.dm(), "dm");
  expect_bitwise_equal(runner.solver().gas(), reference.gas(), "gas");
}

class RestartPerBackend
    : public RunnerTest,
      public ::testing::WithParamInterface<core::GravityBackend> {
 protected:
  // Runs 4 steps uninterrupted, restarts from the step-2 checkpoint, and
  // requires the two final states to agree bit for bit.
  void expect_restart_bit_for_bit(util::ThreadPool& pool) {
    Scenario s;
    ASSERT_TRUE(find_scenario("paper-benchmark", s));
    s.sim.np_side = 7;
    s.sim.n_steps = 4;
    s.sim.gravity_backend = GetParam();
    // Hydro exercises the full pipeline on the paper backend; the tree
    // backends run the cheaper gravity-only variant.
    s.sim.hydro = s.sim.gravity_backend == core::GravityBackend::kPmPp;
    s.run.checkpoint_path =
        temp_path(std::string("bf_") + core::to_string(s.sim.gravity_backend) +
                  "_t" + std::to_string(pool.size()));
    s.run.checkpoint_every = 2;

    // Uninterrupted N + M = 4 steps (checkpoints at 2 and 4 as a side effect).
    ScenarioRunner full(s.sim, s.run, pool);
    const RunResult full_result = full.run();
    ASSERT_EQ(full_result.steps, 4);
    ASSERT_EQ(full_result.checkpoints_written, 2);

    // Restart from the mid-run checkpoint and run the remaining M steps.
    RunOptions resume = s.run;
    resume.checkpoint_path.clear();
    resume.checkpoint_every = 0;
    resume.restart_from = full_result.checkpoint_files.front();
    ScenarioRunner restarted(s.sim, resume, pool);
    const RunResult restart_result = restarted.run();

    EXPECT_EQ(restart_result.steps, 2);
    EXPECT_EQ(restart_result.total_steps, 4);
    EXPECT_DOUBLE_EQ(restart_result.final_a, full_result.final_a);
    expect_bitwise_equal(restarted.solver().dm(), full.solver().dm(), "dm");
    expect_bitwise_equal(restarted.solver().gas(), full.solver().gas(), "gas");
  }
};

TEST_P(RestartPerBackend, CheckpointRestartContinuesBitForBit) {
  expect_restart_bit_for_bit(test_pool());
}

INSTANTIATE_TEST_SUITE_P(AllBackends, RestartPerBackend,
                         ::testing::Values(core::GravityBackend::kPmPp,
                                           core::GravityBackend::kFmm,
                                           core::GravityBackend::kTreePm),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

// The same battery on four workers: the dynamic schedule now varies from
// run to run, and the restart must still continue bit for bit.
class RestartPerBackendFourThreads : public RestartPerBackend {};

TEST_P(RestartPerBackendFourThreads, CheckpointRestartContinuesBitForBit) {
  util::ThreadPool pool(4);
  expect_restart_bit_for_bit(pool);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, RestartPerBackendFourThreads,
                         ::testing::Values(core::GravityBackend::kPmPp,
                                           core::GravityBackend::kFmm,
                                           core::GravityBackend::kTreePm),
                         [](const auto& info) {
                           return std::string(core::to_string(info.param));
                         });

TEST_F(RunnerTest, FinalCheckpointIsByteIdenticalAcrossThreadCounts) {
  // The end-to-end form of the determinism contract: the paper benchmark's
  // final checkpoint does not depend on the pool size, down to the byte.
  const auto final_checkpoint_bytes = [this](unsigned threads) {
    Scenario s;
    EXPECT_TRUE(find_scenario("paper-benchmark", s));
    s.sim.np_side = 8;
    s.run.checkpoint_path = temp_path("threads_" + std::to_string(threads));
    s.run.checkpoint_final = true;
    util::ThreadPool pool(threads);
    ScenarioRunner runner(s.sim, s.run, pool);
    const RunResult result = runner.run();
    EXPECT_FALSE(result.checkpoint_files.empty());
    if (result.checkpoint_files.empty()) return std::string();
    std::ifstream in(result.checkpoint_files.back(), std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string serial = final_checkpoint_bytes(1);
  ASSERT_FALSE(serial.empty());
  EXPECT_TRUE(serial == final_checkpoint_bytes(4));
}

TEST_F(RunnerTest, AdaptiveCosmologyBoxRunsEndToEndAndRestartsIdentically) {
  Scenario s;
  ASSERT_TRUE(find_scenario("cosmology-box", s));
  ASSERT_EQ(s.run.stepping.mode, StepMode::kAdaptive);
  s.sim.np_side = 8;   // laptop-scale instance of the preset
  s.sim.z_final = 20.0;
  s.run.checkpoint_path = temp_path("box");
  s.run.checkpoint_every = 4;
  s.run.checkpoint_final = false;
  s.run.outputs_z = {30.0};
  s.run.log_path = temp_path("box.jsonl");

  ScenarioRunner full(s.sim, s.run, test_pool());
  const RunResult full_result = full.run();
  EXPECT_FALSE(full_result.hit_max_steps);
  EXPECT_NEAR(full_result.final_z, 20.0, 1e-9);
  ASSERT_GT(full_result.steps, 4) << "adaptive run should take several steps";
  ASSERT_GE(full_result.checkpoints_written, 1) << "needs a mid-run checkpoint";
  ASSERT_EQ(full_result.outputs.size(), 1u) << "z=30 diagnostics output";
  // Adaptive Δa actually varied over the run.
  double da_min = 1e9, da_max = 0.0;
  for (const auto& st : full_result.history) {
    da_min = std::min(da_min, st.da);
    da_max = std::max(da_max, st.da);
  }
  EXPECT_LT(da_min, da_max);

  // The JSONL stream has one step event per step plus begin/end.
  std::ifstream log(s.run.log_path);
  ASSERT_TRUE(log.is_open());
  int step_events = 0, begin_events = 0, end_events = 0;
  std::string line;
  while (std::getline(log, line)) {
    step_events += line.find("\"type\":\"step\"") != std::string::npos;
    begin_events += line.find("\"type\":\"begin\"") != std::string::npos;
    end_events += line.find("\"type\":\"end\"") != std::string::npos;
  }
  EXPECT_EQ(step_events, full_result.steps);
  EXPECT_EQ(begin_events, 1);
  EXPECT_EQ(end_events, 1);

  // Resume from the first mid-run checkpoint: identical final state.
  RunOptions resume = s.run;
  resume.checkpoint_path.clear();
  resume.checkpoint_every = 0;
  resume.log_path.clear();
  resume.restart_from = full_result.checkpoint_files.front();
  ScenarioRunner restarted(s.sim, resume, test_pool());
  const RunResult restart_result = restarted.run();
  EXPECT_EQ(restart_result.total_steps, full_result.total_steps);
  EXPECT_DOUBLE_EQ(restart_result.final_a, full_result.final_a);
  expect_bitwise_equal(restarted.solver().dm(), full.solver().dm(), "dm");
}

TEST_F(RunnerTest, RestartRejectsMismatchedConfig) {
  Scenario s;
  ASSERT_TRUE(find_scenario("paper-benchmark", s));
  s.sim.np_side = 6;
  s.sim.n_steps = 2;
  s.run.checkpoint_path = temp_path("mismatch");
  s.run.checkpoint_every = 1;
  ScenarioRunner writer(s.sim, s.run, test_pool());
  const RunResult result = writer.run();
  ASSERT_GE(result.checkpoints_written, 1);

  core::SimConfig other = s.sim;
  other.seed = s.sim.seed + 1;  // different universe, same shapes
  RunOptions resume;
  resume.restart_from = result.checkpoint_files.front();
  ScenarioRunner resumer(other, resume, test_pool());
  EXPECT_THROW(resumer.run(), std::runtime_error);

  RunOptions missing;
  missing.restart_from = temp_path("never-written");
  ScenarioRunner ghost(s.sim, missing, test_pool());
  EXPECT_THROW(ghost.run(), std::runtime_error);
}

TEST_F(RunnerTest, StepStatsAreOrderedAndPopulated) {
  Scenario s;
  ASSERT_TRUE(find_scenario("sph-adiabatic", s));
  s.sim.np_side = 6;
  s.run.outputs_z.clear();
  s.run.max_steps = 6;
  ScenarioRunner runner(s.sim, s.run, test_pool());
  const RunResult result = runner.run();
  ASSERT_GT(result.steps, 0);
  double prev_a = 0.0;
  int expected_step = 1;
  for (const auto& st : result.history) {
    EXPECT_EQ(st.step, expected_step++);
    EXPECT_GT(st.a1, st.a0);
    EXPECT_GT(st.da, 0.0);
    EXPECT_GE(st.a0, prev_a);
    EXPECT_GE(st.wall_seconds, 0.0);
    EXPECT_GT(st.kinetic_energy, 0.0);
    EXPECT_GT(st.max_velocity, 0.0);
    EXPECT_GT(st.max_acceleration, 0.0);
    prev_a = st.a1;
  }
}

}  // namespace
}  // namespace hacc::run
