#include "drive.hpp"

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "core/checkpoint.hpp"
#include "halo/fof.hpp"
#include "run/scenario.hpp"
#include "run/step_controller.hpp"
#include "util/config.hpp"

namespace perfbench {

namespace core = hacc::core;
namespace run = hacc::run;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list = {
      {"hydro-pmpp", "paper-benchmark", {"np=20"}, false},
      {"gravity-treepm", "cosmology-box", {"np=24"}, false},
      {"pm-mesh",
       "paper-benchmark",
       {"hydro=false", "np=16", "pm_grid=128", "steps=10"},
       true},
  };
  return list;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

unsigned available_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

unsigned pool_size(const Workload& w) {
  return w.single_thread ? 1u : available_cores();
}

Preset make_preset(const Workload& w, std::uint64_t seed,
                   const std::string& ckpt_base) {
  run::Scenario scenario;
  if (!run::find_scenario(w.scenario, scenario)) {
    throw std::invalid_argument("unknown scenario '" + w.scenario + "'");
  }
  std::vector<const char*> argv;
  argv.reserve(w.overrides.size());
  for (const std::string& kv : w.overrides) argv.push_back(kv.c_str());
  hacc::util::Config cfg;
  cfg.apply_overrides(static_cast<int>(argv.size()), argv.data());
  std::string error;
  if (!run::apply_config(cfg, scenario.sim, scenario.run, error)) {
    throw std::invalid_argument(w.name + ": " + error);
  }
  scenario.sim.seed = seed;
  if (!scenario.run.checkpoint_path.empty()) {
    if (ckpt_base.empty()) {
      throw std::invalid_argument(w.name + " writes checkpoints: need a path");
    }
    scenario.run.checkpoint_path = ckpt_base;
  }
  scenario.run.log_path.clear();
  scenario.run.echo_steps = false;
  return {scenario.sim, scenario.run};
}

bool same_particles(const core::ParticleSet& a, const core::ParticleSet& b) {
  // The arrays core/checkpoint.cpp stores, in its order.
  const auto arrays = [](const core::ParticleSet& p) {
    return std::vector<const std::vector<float>*>{
        &p.x,  &p.y,   &p.z,  &p.vx, &p.vy, &p.vz,  &p.mass,
        &p.h,  &p.V,   &p.rho, &p.u, &p.P,  &p.cs,  &p.crk,
        &p.m0, &p.ax,  &p.ay, &p.az, &p.du, &p.vsig, &p.dvel};
  };
  const auto va = arrays(a);
  const auto vb = arrays(b);
  for (std::size_t k = 0; k < va.size(); ++k) {
    if (va[k]->size() != vb[k]->size()) return false;
    if (!va[k]->empty() &&
        std::memcmp(va[k]->data(), vb[k]->data(),
                    va[k]->size() * sizeof(float)) != 0) {
      return false;
    }
  }
  return true;
}

namespace {

// Writes, validates and reads back one restart checkpoint the way
// ScenarioRunner::write_checkpoint_file writes and validates it.  Returns
// the seconds spent on the benchmark's own read-back comparison, which the
// time to solution leaves out.
double checkpoint_round_trip(const Preset& preset, const core::Solver& solver,
                        int step, SpanRecorder* spans,
                        CheckpointRecord& rec) {
  rec.step = step;
  const std::string path =
      preset.run.checkpoint_path + ".step" + std::to_string(step);
  core::RunCheckpointMeta meta;
  meta.box = preset.sim.box;
  meta.scale_factor = solver.scale_factor();
  meta.step = static_cast<std::uint64_t>(step);
  meta.config_hash = core::config_signature(preset.sim);
  core::CkptResult r;
  {
    const ScopedSpan span(spans, "io.ckpt_write");
    r = core::write_run_checkpoint(path, solver.dm(), solver.gas(), meta);
  }
  rec.written = r.ok();
  if (rec.written) {
    const ScopedSpan span(spans, "io.ckpt_validate");
    r = core::validate_run_checkpoint(path);
    rec.validated = r.ok();
  }
  const double t_verify = now_s();
  if (rec.validated) {
    core::ParticleSet dm, gas;
    core::RunCheckpointMeta back;
    {
      const ScopedSpan span(spans, "io.ckpt_read");
      r = core::read_run_checkpoint(path, dm, gas, back);
    }
    rec.read_back = r.ok();
    rec.identical = rec.read_back && same_particles(dm, solver.dm()) &&
                    same_particles(gas, solver.gas()) &&
                    back.box == meta.box &&
                    back.scale_factor == meta.scale_factor &&
                    back.step == meta.step &&
                    back.config_hash == meta.config_hash;
    if (rec.read_back && !rec.identical) r.detail = "read-back state differs";
  }
  if (!rec.identical) rec.detail = r.ok() ? r.detail : r.message();
  std::error_code ec;
  rec.bytes = std::filesystem::file_size(path, ec);
  if (ec) rec.bytes = 0;
  std::filesystem::remove(path, ec);
  return now_s() - t_verify;
}

}  // namespace

DriveResult drive(const Preset& preset, hacc::util::ThreadPool& pool,
                  SpanRecorder* spans, const StepHook& hook) {
  const core::SimConfig& sim = preset.sim;
  const run::RunOptions& opt = preset.run;
  DriveResult out;
  const double t_begin = now_s();
  double excluded_s = 0.0;  // probes and read-back checks

  {
    const ScopedSpan span(spans, "core.setup");
    const double t0 = now_s();
    out.solver = std::make_unique<core::Solver>(sim, pool);
    out.solver->initialize();
    out.setup_s = now_s() - t0;
  }
  core::Solver& solver = *out.solver;

  const run::StepController controller(sim, opt.stepping);
  std::vector<double> outputs_a;
  for (const double z : opt.outputs_z) {
    if (z >= 0.0) outputs_a.push_back(hacc::ic::Cosmology::a_of_z(z));
  }
  std::sort(outputs_a.begin(), outputs_a.end());
  std::size_t next_output = 0;
  while (next_output < outputs_a.size() &&
         outputs_a[next_output] <= solver.scale_factor()) {
    ++next_output;
  }

  const bool adaptive = opt.stepping.mode == run::StepMode::kAdaptive;
  double max_velocity = 0.0, max_acceleration = 0.0;
  if (adaptive) {
    solver.prepare_forces();
    max_velocity = solver.max_velocity();
    max_acceleration = solver.max_acceleration();
  }

  int steps = 0;
  int last_checkpoint = -1;
  while (!controller.done(solver.scale_factor(), solver.steps_taken())) {
    if (steps >= opt.max_steps) {
      out.hit_max_steps = true;
      break;
    }
    if (adaptive) {
      solver.set_time_step(controller.next_da(solver.scale_factor(),
                                              solver.time_step(), max_velocity,
                                              max_acceleration));
    }
    core::StepStats stats;
    {
      const ScopedSpan span(spans, "core.step");
      const double t0 = now_s();
      stats = solver.step();
      out.step_wall_s.push_back(now_s() - t0);
    }
    // ScenarioRunner drains the launch history after every step.
    solver.queue().clear_history();
    max_velocity = stats.max_velocity;
    max_acceleration = stats.max_acceleration;
    ++steps;
    out.stats.push_back(stats);
    if (hook) {
      const double t0 = now_s();
      hook(solver);
      excluded_s += now_s() - t0;
    }

    while (next_output < outputs_a.size() &&
           solver.scale_factor() >= outputs_a[next_output]) {
      const ScopedSpan span(spans, "halo.fof");
      hacc::halo::FofOptions fof;
      fof.linking_length = opt.fof_b * sim.box / sim.np_side;
      fof.min_members = opt.fof_min_members;
      const auto pos = solver.dm().positions();
      const auto halos = hacc::halo::friends_of_friends(pos, sim.box, fof);
      out.halos.push_back(
          {stats.step, solver.redshift(), halos.n_halos(),
           halos.halo_sizes.empty() ? 0 : halos.halo_sizes.front()});
      ++next_output;
    }
    if (!opt.checkpoint_path.empty() && opt.checkpoint_every > 0 &&
        solver.steps_taken() % opt.checkpoint_every == 0) {
      out.checkpoints.emplace_back();
      excluded_s += checkpoint_round_trip(preset, solver, stats.step, spans,
                                     out.checkpoints.back());
      last_checkpoint = stats.step;
    }
  }
  if (!opt.checkpoint_path.empty() && opt.checkpoint_final &&
      last_checkpoint != solver.steps_taken()) {
    out.checkpoints.emplace_back();
    excluded_s += checkpoint_round_trip(preset, solver, solver.steps_taken(), spans,
                                   out.checkpoints.back());
  }
  out.solution_s = now_s() - t_begin - excluded_s;
  return out;
}

void run_scenario(const Preset& preset, hacc::util::ThreadPool& pool,
                  const FinalStateHook& done) {
  run::ScenarioRunner runner(preset.sim, preset.run, pool);
  const run::RunResult result = runner.run();
  for (const std::string& path : result.checkpoint_files) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  done(result, runner.solver());
}

}  // namespace perfbench
