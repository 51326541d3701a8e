#pragma once

// The benchmark's workloads and its drive of one workload through the
// program's public API, in the order run::ScenarioRunner::run uses:
// Solver construction + initialize(), then StepController-governed
// Solver::step() calls, FoF halo outputs at the scheduled redshifts, and
// periodic + final restart checkpoints.  Every call is timed from here.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/solver.hpp"
#include "run/runner.hpp"
#include "spans.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// A workload is a hacc_run preset plus key=value overrides, run on a pool
/// of a fixed size: every available core, or one thread.
struct Workload {
  std::string name;
  std::string scenario;
  std::vector<std::string> overrides;
  bool single_thread = false;
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Cores this process may run on (its CPU affinity set).
unsigned available_cores();
/// The pool size the workload runs at.
unsigned pool_size(const Workload& w);

struct Preset {
  hacc::core::SimConfig sim;
  hacc::run::RunOptions run;
};

/// The workload's preset with its overrides and `seed` applied; checkpoint
/// files (if the preset writes any) go under `ckpt_base`.  Throws
/// std::invalid_argument on a bad override.
Preset make_preset(const Workload& w, std::uint64_t seed,
                   const std::string& ckpt_base);

/// One checkpoint the drive wrote, validated and read back.
struct CheckpointRecord {
  int step = 0;
  std::uint64_t bytes = 0;
  bool written = false;
  bool validated = false;
  bool read_back = false;
  bool identical = false;  ///< read-back state and metadata bit-identical
  std::string detail;      ///< first failure, empty when all passed
};

/// One FoF halo output.
struct HaloOutput {
  int step = 0;
  double z = 0.0;
  std::int32_t n_halos = 0;
  std::int32_t largest = 0;
};

struct DriveResult {
  std::unique_ptr<hacc::core::Solver> solver;  ///< final state
  double setup_s = 0.0;   ///< Solver construction + initialize()
  double solution_s = 0.0;  ///< setup + steps + checkpoints + diagnostics
  std::vector<double> step_wall_s;  ///< around each Solver::step() call
  std::vector<hacc::core::StepStats> stats;
  bool hit_max_steps = false;
  std::vector<HaloOutput> halos;
  std::vector<CheckpointRecord> checkpoints;
};

/// Called after each step with the solver's post-step state, outside every
/// timed region (the traced run's layer probes).
using StepHook = std::function<void(const hacc::core::Solver&)>;

/// Runs the workload once from fresh ICs.  With `spans` set, records
/// core.setup, core.step, halo.fof and io.ckpt_* spans.
DriveResult drive(const Preset& preset, hacc::util::ThreadPool& pool,
                  SpanRecorder* spans = nullptr, const StepHook& hook = {});

/// Receives the product path's run record and final solver state.
using FinalStateHook = std::function<void(const hacc::run::RunResult&,
                                          const hacc::core::Solver&)>;

/// The product path: run::ScenarioRunner::run on the same preset, with the
/// JSONL log off.  Removes the checkpoint files the run wrote.
void run_scenario(const Preset& preset, hacc::util::ThreadPool& pool,
                  const FinalStateHook& done);

/// True when every array a restart checkpoint stores is bit-identical.
bool same_particles(const hacc::core::ParticleSet& a,
                    const hacc::core::ParticleSet& b);

}  // namespace perfbench
