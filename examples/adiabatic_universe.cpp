// The paper's benchmark scenario (§3.4) at laptop scale: an adiabatic
// (non-radiative) hydro run with equal numbers of dark-matter and baryon
// particles, five time steps from z=200 to z=50, communication variant and
// sub-group size selectable per run — the knobs of the portability study.
//
//   ./examples/adiabatic_universe np=12 steps=5 variant=select sg=32
//   variants: select | mem32 | memobj | broadcast | visa, or native for the
//   production pair driver

#include <cstdio>
#include <string>

#include "core/solver.hpp"
#include "util/config.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  hacc::util::Config cli;
  cli.apply_overrides(argc - 1, argv + 1);

  hacc::core::SimConfig cfg;
  cfg.np_side = static_cast<int>(cli.get_int("np", 12));
  cfg.n_steps = static_cast<int>(cli.get_int("steps", 5));
  cfg.box = cli.get_double("box", 25.0);
  cfg.pm_grid = static_cast<int>(cli.get_int("pm_grid", 32));
  cfg.z_init = cli.get_double("z_init", 200.0);
  cfg.z_final = cli.get_double("z_final", 50.0);
  cfg.sub_group_size = static_cast<int>(cli.get_int("sg", 32));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  const std::string grad = cli.get_string("gravity.pm_gradient", "spectral");
  if (!hacc::gravity::parse_pm_gradient(grad, cfg.pm_gradient)) {
    std::fprintf(stderr, "unknown pm gradient '%s' (spectral | fd4 | fd6)\n",
                 grad.c_str());
    return 1;
  }

  hacc::xsycl::CommVariant variant = hacc::xsycl::CommVariant::kSelect;
  if (!hacc::xsycl::parse_variant(cli.get_string("variant", "select"), variant)) {
    std::fprintf(stderr, "unknown variant '%s'\n", cli.get_string("variant", "").c_str());
    return 1;
  }
  cfg.variants = hacc::core::VariantSelection::uniform(variant);

  hacc::util::ThreadPool pool(static_cast<unsigned>(cli.get_int("threads", 0)));
  if (const std::string unknown = cli.unknown_keys_report("adiabatic_universe");
      !unknown.empty()) {
    std::fputs(unknown.c_str(), stderr);
    return 1;
  }
  hacc::core::Solver solver(cfg, pool);

  std::printf("adiabatic universe: 2 x %d^3 particles, %s variant, sub-group %d\n",
              cfg.np_side, to_string(variant), cfg.sub_group_size);
  const double t0 = hacc::util::wtime();
  solver.run();
  const double elapsed = hacc::util::wtime() - t0;

  // The breakdown the paper's figures are built from: every kernel launch,
  // summed per kernel from the queue's launch history.
  std::printf("\n%-10s %12s %8s\n", "kernel", "seconds", "calls");
  double offloaded = 0.0;
  for (const auto& [name, t] : solver.queue().time_by_kernel()) {
    std::printf("%-10s %12.4f %8llu\n", name.c_str(), t.seconds,
                static_cast<unsigned long long>(t.calls));
    offloaded += t.seconds;
  }
  std::printf("%-10s %12.4f\n", "total", offloaded);
  std::printf("wall clock: %.3f s\n", elapsed);

  // Aggregated communication counters: what the variant actually did.
  hacc::xsycl::OpCounters ops;
  for (const auto& s : solver.queue().history()) ops.merge(s.ops);
  std::printf("\nop counters: %s\n", ops.summary().c_str());

  const auto d = solver.diagnostics();
  std::printf("\nz=%.1f  max displacement %.4f  mean gas rho %.4f\n",
              solver.redshift(), d.max_displacement, d.mean_gas_density);
  return 0;
}
