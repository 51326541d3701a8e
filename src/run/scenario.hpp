#pragma once

/// \file
/// Named scenario presets and the config-key plumbing that turns a
/// `key = value` util::Config (file and/or command line) into a SimConfig +
/// RunOptions pair.  Presets ship sensible end-to-end runs:
///
/// - `paper-benchmark` — the paper's five fixed KDK steps, z 200 → 50,
///   hydro on, pm_pp gravity.  Reproduces Solver::run() exactly.
/// - `cosmology-box`   — gravity-only structure formation to z = 10 with
///   adaptive stepping, treepm gravity, periodic checkpoints, and halo
///   outputs at z = 50 / 20 / 10.
/// - `sph-adiabatic`   — the adiabatic hydro run with adaptive stepping and
///   a mid-run diagnostics output.
///
/// Every key is documented in docs/CONFIG.md.

#include <string>
#include <vector>

#include "core/solver.hpp"
#include "run/runner.hpp"
#include "util/config.hpp"

namespace hacc::run {

/// A named, fully-specified run: simulation physics plus run options.
struct Scenario {
  std::string name;
  std::string summary;  ///< one-line description for --list / logs
  core::SimConfig sim;
  RunOptions run;
};

/// The built-in presets, in display order.
const std::vector<Scenario>& scenarios();

/// Looks up a preset by name; returns false (out untouched) for unknown
/// names.
bool find_scenario(const std::string& name, Scenario& out);

/// Overlays config keys (np, box, steps, gravity.backend, run.mode, ...)
/// onto a scenario's defaults.  Returns false and fills `error` on an
/// invalid value.  Keys it does not know are left unread (they may belong to
/// the caller, e.g. `threads`); a caller that owns the whole config rejects
/// what remains in `cfg.unread_keys()` once it has read its own keys.
bool apply_config(const util::Config& cfg, core::SimConfig& sim,
                  RunOptions& run, std::string& error);

}  // namespace hacc::run
