// Halo finding on an evolved snapshot: the substrate CRK-HACC's AGN
// feedback path depends on (§3.1).  Runs a short gravity-only simulation to
// cluster the matter field, then identifies FOF halos and cross-checks with
// DBSCAN — the algorithm ArborX provides in production CRK-HACC.
//
//   ./examples/halo_finding np=14 steps=8 b=0.25 min_members=8

#include <cstdio>

#include "core/solver.hpp"
#include "halo/fof.hpp"
#include "util/config.hpp"

int main(int argc, char** argv) {
  hacc::util::Config cli;
  cli.apply_overrides(argc - 1, argv + 1);

  hacc::core::SimConfig cfg;
  cfg.np_side = static_cast<int>(cli.get_int("np", 14));
  cfg.n_steps = static_cast<int>(cli.get_int("steps", 8));
  cfg.z_final = cli.get_double("z_final", 10.0);  // run deeper for clustering
  cfg.hydro = false;
  cfg.box = cli.get_double("box", 25.0);
  cfg.pm_grid = 32;
  cfg.sigma_norm = cli.get_double("sigma", 2.5);  // boosted power -> visible halos

  hacc::util::ThreadPool pool(static_cast<unsigned>(cli.get_int("threads", 0)));
  const double b = cli.get_double("b", 0.28);
  const auto min_members = static_cast<std::int32_t>(cli.get_int("min_members", 8));
  if (const std::string unknown = cli.unknown_keys_report("halo_finding");
      !unknown.empty()) {
    std::fputs(unknown.c_str(), stderr);
    return 1;
  }
  hacc::core::Solver solver(cfg, pool);
  std::printf("evolving %d^3 dark-matter particles to z=%.1f...\n", cfg.np_side,
              cfg.z_final);
  solver.run();

  const auto pos = solver.dm().positions();
  const double mean_sep = cfg.box / cfg.np_side;

  hacc::halo::FofOptions fof_opt;
  fof_opt.linking_length = b * mean_sep;
  fof_opt.min_members = min_members;
  const auto fof = hacc::halo::friends_of_friends(pos, cfg.box, fof_opt);

  std::printf("\nFOF (b = %.2f mean separations, min %d members): %d halos\n",
              fof_opt.linking_length / mean_sep, fof_opt.min_members, fof.n_halos());
  const int show = std::min<int>(10, fof.n_halos());
  for (int h = 0; h < show; ++h) {
    std::printf("  halo %2d: %d particles\n", h, fof.halo_sizes[h]);
  }

  // Cross-check: FOF == DBSCAN with min_pts = 2 on the same scale.
  const auto db = hacc::halo::dbscan(pos, cfg.box, fof_opt.linking_length, 2);
  std::printf("\nDBSCAN(eps = b, min_pts = 2): %d clusters", db.n_clusters);
  int noise = 0;
  for (const auto id : db.cluster_id) noise += id < 0 ? 1 : 0;
  std::printf(", %d unclustered particles\n", noise);
  std::printf("(production CRK-HACC runs this search through ArborX, §3.1)\n");
  return 0;
}
