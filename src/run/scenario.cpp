#include "run/scenario.hpp"

#include <sstream>

namespace hacc::run {

namespace {

Scenario make_paper_benchmark() {
  Scenario s;
  s.name = "paper-benchmark";
  s.summary =
      "the paper's 5 fixed KDK steps, z 200->50, adiabatic hydro, pm_pp";
  s.sim.scenario = s.name;  // defaults already are the paper configuration
  s.run.stepping.mode = StepMode::kFixed;
  return s;
}

Scenario make_cosmology_box() {
  Scenario s;
  s.name = "cosmology-box";
  s.summary =
      "gravity-only structure formation to z=10: adaptive steps, treepm, "
      "checkpoints, halo outputs";
  s.sim.scenario = s.name;
  s.sim.np_side = 16;
  s.sim.box = 50.0;
  s.sim.hydro = false;
  s.sim.z_final = 10.0;
  s.sim.sigma_norm = 2.5;  // boosted power: visible halos at these sizes
  s.sim.gravity_backend = core::GravityBackend::kTreePm;
  s.run.stepping.mode = StepMode::kAdaptive;
  s.run.stepping.da_max = 0.01;
  s.run.max_steps = 1000;
  s.run.checkpoint_path = "cosmology-box.ckpt";
  s.run.checkpoint_every = 8;
  s.run.checkpoint_final = true;
  s.run.outputs_z = {50.0, 20.0, 10.0};
  return s;
}

Scenario make_sph_adiabatic() {
  Scenario s;
  s.name = "sph-adiabatic";
  s.summary =
      "adiabatic two-species hydro, z 200->50, adaptive steps, mid-run "
      "diagnostics";
  s.sim.scenario = s.name;
  s.sim.np_side = 10;
  s.run.stepping.mode = StepMode::kAdaptive;
  const double a_i = ic::Cosmology::a_of_z(s.sim.z_init);
  const double a_f = ic::Cosmology::a_of_z(s.sim.z_final);
  s.run.stepping.da_max = (a_f - a_i) / 8.0;
  s.run.max_steps = 500;
  s.run.outputs_z = {100.0, 50.0};
  return s;
}

Scenario make_sedov_blast() {
  Scenario s;
  s.name = "sedov-blast";
  s.summary =
      "Sedov-Taylor point blast in a cold uniform lattice near a=1; "
      "analytic shock-radius oracle";
  s.sim.scenario = s.name;
  s.sim.ic_kind = core::InitialConditions::kSedov;
  s.sim.np_side = 12;
  s.sim.box = 1.0;
  s.sim.hydro = true;
  s.sim.baryon_fraction = 0.5;
  // Cold background so the blast drives a strong shock; the deposited
  // energy dwarfs the thermal floor by many orders of magnitude.
  s.sim.u_init = 1e-8;
  s.sim.sedov_energy = 1.0;
  // A thin slab of scale factor right at a=1: expansion and Hubble drag
  // are negligible, so the non-comoving Sedov solution applies.
  s.sim.z_init = 0.02;
  s.sim.z_final = 0.0;
  s.sim.n_steps = 16;
  s.sim.pm_grid = 16;
  s.run.stepping.mode = StepMode::kFixed;
  return s;
}

// Comma-separated doubles ("50, 20,10"); false on any non-numeric entry.
bool parse_double_list(const std::string& text, std::vector<double>& out) {
  out.clear();
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    std::size_t used = 0;
    double v = 0.0;
    try {
      v = std::stod(item, &used);
    } catch (...) {
      return false;
    }
    while (used < item.size() &&
           (item[used] == ' ' || item[used] == '\t')) {
      ++used;
    }
    if (used != item.size()) return false;
    out.push_back(v);
  }
  return true;
}

}  // namespace

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> presets = {
      make_paper_benchmark(), make_cosmology_box(), make_sph_adiabatic(),
      make_sedov_blast()};
  return presets;
}

bool find_scenario(const std::string& name, Scenario& out) {
  for (const Scenario& s : scenarios()) {
    if (s.name == name) {
      out = s;
      return true;
    }
  }
  return false;
}

bool apply_config(const util::Config& cfg, core::SimConfig& sim,
                  RunOptions& run, std::string& error) {
  // ---- simulation physics ----
  sim.np_side = static_cast<int>(cfg.get_int("np", sim.np_side));
  sim.box = cfg.get_double("box", sim.box);
  sim.z_init = cfg.get_double("z_init", sim.z_init);
  sim.z_final = cfg.get_double("z_final", sim.z_final);
  sim.n_steps = static_cast<int>(cfg.get_int("steps", sim.n_steps));
  sim.sigma_norm = cfg.get_double("sigma", sim.sigma_norm);
  sim.seed = static_cast<std::uint64_t>(cfg.get_int("seed", static_cast<long>(sim.seed)));
  sim.hydro = cfg.get_bool("hydro", sim.hydro);
  sim.baryon_fraction = cfg.get_double("baryon_fraction", sim.baryon_fraction);
  sim.u_init = cfg.get_double("u_init", sim.u_init);
  sim.pm_grid = static_cast<int>(cfg.get_int("pm_grid", sim.pm_grid));
  sim.fmm_theta = cfg.get_double("gravity.theta", sim.fmm_theta);
  sim.leaf_size = static_cast<int>(cfg.get_int("leaf", sim.leaf_size));
  if (cfg.has("gravity.backend") &&
      !core::parse_gravity_backend(cfg.get_string("gravity.backend", ""),
                                   sim.gravity_backend)) {
    error = "unknown gravity.backend '" + cfg.get_string("gravity.backend", "") +
            "' (pm_pp | fmm | treepm)";
    return false;
  }
  if (cfg.has("gravity.pm_gradient") &&
      !gravity::parse_pm_gradient(cfg.get_string("gravity.pm_gradient", ""),
                                  sim.pm_gradient)) {
    error = "unknown gravity.pm_gradient '" +
            cfg.get_string("gravity.pm_gradient", "") +
            "' (spectral | fd4 | fd6)";
    return false;
  }
  if (cfg.has("ic.kind") &&
      !core::parse_initial_conditions(cfg.get_string("ic.kind", ""),
                                      sim.ic_kind)) {
    error = "unknown ic.kind '" + cfg.get_string("ic.kind", "") +
            "' (zeldovich | sedov)";
    return false;
  }
  sim.sedov_energy = cfg.get_double("ic.sedov_energy", sim.sedov_energy);
  if (!(sim.sedov_energy > 0.0)) {
    error = "invalid ic.sedov_energy (need ic.sedov_energy > 0)";
    return false;
  }
  if (cfg.has("sched.overlap") &&
      !core::parse_overlap_mode(cfg.get_string("sched.overlap", ""),
                                sim.sched_overlap)) {
    error = "unknown sched.overlap '" + cfg.get_string("sched.overlap", "") +
            "' (auto | on | off)";
    return false;
  }
  if (sim.np_side < 2 || sim.n_steps < 1 || !(sim.box > 0.0) ||
      !(sim.z_init > sim.z_final)) {
    error = "invalid geometry/stepping (need np >= 2, steps >= 1, box > 0, "
            "z_init > z_final)";
    return false;
  }

  // ---- run options ----
  if (cfg.has("run.mode") &&
      !parse_step_mode(cfg.get_string("run.mode", ""), run.stepping.mode)) {
    error = "unknown run.mode '" + cfg.get_string("run.mode", "") +
            "' (fixed | adaptive)";
    return false;
  }
  run.stepping.displacement_fraction =
      cfg.get_double("run.displacement_fraction",
                     run.stepping.displacement_fraction);
  run.stepping.da_min = cfg.get_double("run.da_min", run.stepping.da_min);
  run.stepping.da_max = cfg.get_double("run.da_max", run.stepping.da_max);
  run.max_steps = static_cast<int>(cfg.get_int("run.max_steps", run.max_steps));
  run.checkpoint_path = cfg.get_string("run.checkpoint", run.checkpoint_path);
  run.checkpoint_every =
      static_cast<int>(cfg.get_int("run.checkpoint_every", run.checkpoint_every));
  run.checkpoint_final =
      cfg.get_bool("run.checkpoint_final", run.checkpoint_final);
  run.checkpoint_keep =
      static_cast<int>(cfg.get_int("run.checkpoint_keep", run.checkpoint_keep));
  run.checkpoint_continue_on_error =
      cfg.get_bool("run.checkpoint_on_error_continue",
                   run.checkpoint_continue_on_error);
  run.restart_from = cfg.get_string("run.restart", run.restart_from);
  run.fof_b = cfg.get_double("run.fof_b", run.fof_b);
  run.fof_min_members =
      static_cast<int>(cfg.get_int("run.fof_min_members", run.fof_min_members));
  run.log_path = cfg.get_string("run.log", run.log_path);
  if (cfg.has("run.outputs_z") &&
      !parse_double_list(cfg.get_string("run.outputs_z", ""), run.outputs_z)) {
    error = "run.outputs_z must be a comma-separated list of redshifts";
    return false;
  }
  if (run.stepping.displacement_fraction <= 0.0 || run.stepping.da_min <= 0.0 ||
      run.max_steps < 1 || run.checkpoint_keep < 0) {
    error = "invalid run options (need run.displacement_fraction > 0, "
            "run.da_min > 0, run.max_steps >= 1, run.checkpoint_keep >= 0)";
    return false;
  }
  if (run.restart_from == RunOptions::kRestartAuto &&
      run.checkpoint_path.empty()) {
    error = "run.restart=auto needs run.checkpoint: the recovery scan looks "
            "for <run.checkpoint>.step<N> files";
    return false;
  }
  return true;
}

}  // namespace hacc::run
