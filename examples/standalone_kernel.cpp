// The standalone-kernel workflow of §7.2: CRK-HACC's biggest hot spots were
// extracted into standalone applications driven by checkpoint files, so one
// kernel at a time can be recompiled and re-run while experimenting with
// variants.  This driver reproduces that workflow:
//
//   # write a checkpoint from a generated gas state
//   ./examples/standalone_kernel mode=generate checkpoint=/tmp/gas.ckpt np=12
//
//   # run one kernel from the checkpoint, by name, with a chosen variant
//   ./examples/standalone_kernel checkpoint=/tmp/gas.ckpt kernel=upBarAc
//       variant=memobj sg=16 repeats=5

#include <cstdio>
#include <string>

#include "core/checkpoint.hpp"
#include "core/launch.hpp"
#include "sph/pipeline.hpp"
#include "util/config.hpp"
#include "util/rng.hpp"

namespace {

hacc::core::ParticleSet generate_gas(int n_side, double box, std::uint64_t seed) {
  hacc::core::ParticleSet p;
  p.resize(static_cast<std::size_t>(n_side) * n_side * n_side);
  const double dx = box / n_side;
  const hacc::util::CounterRng rng(seed);
  std::size_t i = 0;
  for (int ix = 0; ix < n_side; ++ix) {
    for (int iy = 0; iy < n_side; ++iy) {
      for (int iz = 0; iz < n_side; ++iz, ++i) {
        p.x[i] = float((ix + 0.5) * dx + 0.25 * dx * (rng.uniform(6 * i) - 0.5));
        p.y[i] = float((iy + 0.5) * dx + 0.25 * dx * (rng.uniform(6 * i + 1) - 0.5));
        p.z[i] = float((iz + 0.5) * dx + 0.25 * dx * (rng.uniform(6 * i + 2) - 0.5));
        p.vx[i] = float(0.4 * (rng.uniform(6 * i + 3) - 0.5));
        p.vy[i] = float(0.4 * (rng.uniform(6 * i + 4) - 0.5));
        p.vz[i] = float(0.4 * (rng.uniform(6 * i + 5) - 0.5));
        p.mass[i] = float(dx * dx * dx);
        p.h[i] = float(hacc::sph::kEta * dx);
        p.u[i] = 1.0f;
      }
    }
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  hacc::util::Config cli;
  cli.apply_overrides(argc - 1, argv + 1);
  const std::string path = cli.get_string("checkpoint", "/tmp/crkhacc_gas.ckpt");

  if (cli.get_string("mode", "run") == "generate") {
    const int np = static_cast<int>(cli.get_int("np", 12));
    const double box = cli.get_double("box", 1.0);
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed", 7));
    if (const std::string unknown = cli.unknown_keys_report("standalone_kernel");
        !unknown.empty()) {
      std::fputs(unknown.c_str(), stderr);
      return 1;
    }
    auto gas = generate_gas(np, box, seed);
    // Prime the derived state so any kernel can run in isolation.
    hacc::util::ThreadPool pool;
    hacc::xsycl::Queue q(pool);
    hacc::sph::PipelineOptions popt;
    popt.hydro.box = static_cast<float>(box);
    hacc::sph::run_hydro_pipeline(q, gas, popt);
    if (!hacc::core::write_checkpoint(path, gas, box, 1.0)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote checkpoint %s (%zu particles, box %.2f)\n", path.c_str(),
                gas.size(), box);
    return 0;
  }

  hacc::core::ParticleSet gas;
  double box = 0.0, a = 0.0;
  if (!hacc::core::read_checkpoint(path, gas, box, a)) {
    std::fprintf(stderr, "cannot read %s (generate first: mode=generate)\n",
                 path.c_str());
    return 1;
  }

  const std::string kernel = cli.get_string("kernel", "upBarAc");
  const auto& registry = hacc::core::KernelRegistry::instance();
  if (!registry.has(kernel)) {
    std::fprintf(stderr, "unknown kernel '%s'; available:", kernel.c_str());
    for (const auto& n : registry.names()) std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }

  hacc::xsycl::CommVariant variant = hacc::xsycl::CommVariant::kSelect;
  if (!hacc::xsycl::parse_variant(cli.get_string("variant", "select"), variant)) {
    std::fprintf(stderr, "unknown variant\n");
    return 1;
  }

  hacc::sph::PipelineOptions popt;
  popt.hydro.box = static_cast<float>(box);
  popt.hydro.variant = variant;
  popt.hydro.launch.sub_group_size = static_cast<int>(cli.get_int("sg", 32));
  hacc::util::ThreadPool pool(static_cast<unsigned>(cli.get_int("threads", 0)));
  const int repeats = static_cast<int>(cli.get_int("repeats", 3));
  if (const std::string unknown = cli.unknown_keys_report("standalone_kernel");
      !unknown.empty()) {
    std::fputs(unknown.c_str(), stderr);
    return 1;
  }

  const auto pipe = hacc::sph::build_pipeline(gas, popt);
  hacc::xsycl::Queue q(pool);
  std::printf("standalone %s: %zu particles, %zu leaf pairs, %s, sg %d, %d repeats\n",
              kernel.c_str(), gas.size(), pipe.pairs.size(), to_string(variant),
              popt.hydro.launch.sub_group_size, repeats);
  for (int r = 0; r < repeats; ++r) {
    const auto stats =
        registry.run(kernel, q, gas, pipe.domain->all(), pipe.pairs, popt.hydro);
    std::printf("  run %d: %.4f s, %llu interactions\n", r + 1, stats.seconds,
                static_cast<unsigned long long>(stats.ops.interactions));
  }
  hacc::xsycl::OpCounters ops;
  for (const auto& s : q.history()) ops.merge(s.ops);
  std::printf("counters: %s\n", ops.summary().c_str());
  auto times = q.time_by_kernel();
  std::printf("kernel %s: %.4f s over %llu launches\n", kernel.c_str(),
              times[kernel].seconds,
              static_cast<unsigned long long>(times[kernel].calls));
  return 0;
}
