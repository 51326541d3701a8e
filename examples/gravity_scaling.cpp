// Gravity-only scaling scenario: the workload the tree-multipole far field
// opens up — no hydro, selectable gravity backend, particle counts past
// what the all-pairs short-range solver can sustain.
//
//   ./examples/gravity_scaling np=16 steps=2 gravity.backend=fmm \
//       gravity.theta=0.5 leaf=8
//   backends: pm_pp | fmm | treepm

#include <cstdio>
#include <map>
#include <string>

#include "core/solver.hpp"
#include "util/config.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  hacc::util::Config cli;
  cli.apply_overrides(argc - 1, argv + 1);

  hacc::core::SimConfig cfg;
  cfg.hydro = false;
  cfg.np_side = static_cast<int>(cli.get_int("np", 16));
  cfg.n_steps = static_cast<int>(cli.get_int("steps", 2));
  cfg.box = cli.get_double("box", 25.0);
  cfg.pm_grid = static_cast<int>(cli.get_int("pm_grid", 32));
  cfg.leaf_size = static_cast<int>(cli.get_int("leaf", 8));
  cfg.fmm_theta = cli.get_double("gravity.theta", 0.5);
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  const std::string backend = cli.get_string("gravity.backend", "fmm");
  if (!hacc::core::parse_gravity_backend(backend, cfg.gravity_backend)) {
    std::fprintf(stderr, "unknown gravity backend '%s' (pm_pp | fmm | treepm)\n",
                 backend.c_str());
    return 1;
  }
  const std::string grad = cli.get_string("gravity.pm_gradient", "spectral");
  if (!hacc::gravity::parse_pm_gradient(grad, cfg.pm_gradient)) {
    std::fprintf(stderr, "unknown pm gradient '%s' (spectral | fd4 | fd6)\n",
                 grad.c_str());
    return 1;
  }

  hacc::util::ThreadPool pool(static_cast<unsigned>(cli.get_int("threads", 0)));
  if (const std::string unknown = cli.unknown_keys_report("gravity_scaling");
      !unknown.empty()) {
    std::fputs(unknown.c_str(), stderr);
    return 1;
  }
  hacc::core::Solver solver(cfg, pool);

  const std::size_t n = static_cast<std::size_t>(cfg.np_side) * cfg.np_side *
                        cfg.np_side;
  std::printf("gravity scaling: %zu particles, backend %s, theta %.2f, leaf %d\n",
              n, to_string(cfg.gravity_backend), cfg.fmm_theta, cfg.leaf_size);

  const double t0 = hacc::util::wtime();
  solver.initialize();
  std::map<std::string, double> stages;  // stage walls summed over the steps
  for (int s = 0; s < cfg.n_steps; ++s) {
    for (const auto& [name, seconds] : solver.step().phases) {
      stages[name] += seconds;
    }
  }
  const double elapsed = hacc::util::wtime() - t0;

  std::printf("\n%-12s %12s\n", "stage", "seconds");
  for (const auto& [name, seconds] : stages) {
    std::printf("%-12s %12.4f\n", name.c_str(), seconds);
  }
  std::printf("\n%-12s %12s %8s\n", "kernel", "seconds", "calls");
  for (const auto& [name, t] : solver.queue().time_by_kernel()) {
    std::printf("%-12s %12.4f %8llu\n", name.c_str(), t.seconds,
                static_cast<unsigned long long>(t.calls));
  }

  hacc::xsycl::OpCounters ops;
  for (const auto& s : solver.queue().history()) ops.merge(s.ops);
  ops.merge(solver.fmm_ops());
  std::printf("\npair interactions: %llu   m2p evaluations: %llu\n",
              static_cast<unsigned long long>(ops.interactions),
              static_cast<unsigned long long>(ops.m2p_ops));

  const auto d = solver.diagnostics();
  const double steps_done = cfg.n_steps;
  std::printf("z=%.1f  max displacement %.4f\n", solver.redshift(),
              d.max_displacement);
  std::printf("wall clock %.3f s  (%.3g particle-steps/s)\n", elapsed,
              n * steps_done / elapsed);
  return 0;
}
