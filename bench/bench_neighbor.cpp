// Neighbor-machinery benchmarks for the interaction-domain subsystem: tree
// build cost, its level-parallel thread scaling, and pair-list throughput.
// The tables are printed only; perfbench/ is the performance record.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "domain/domain.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace hacc;
using util::Vec3d;

constexpr double kBox = 10.0;
constexpr int kLeafSize = 32;

// n_side^3 particles on a lattice, each jittered by up to 0.15 spacings.
std::vector<Vec3d> jittered_lattice(int n_side, std::uint64_t seed = 17) {
  std::vector<Vec3d> pos(static_cast<std::size_t>(n_side) * n_side * n_side);
  const double dx = kBox / n_side;
  const util::CounterRng rng(seed);
  std::size_t i = 0;
  for (int ix = 0; ix < n_side; ++ix) {
    for (int iy = 0; iy < n_side; ++iy) {
      for (int iz = 0; iz < n_side; ++iz, ++i) {
        pos[i] = {(ix + 0.5) * dx + 0.3 * dx * (rng.uniform(3 * i) - 0.5),
                  (iy + 0.5) * dx + 0.3 * dx * (rng.uniform(3 * i + 1) - 0.5),
                  (iz + 0.5) * dx + 0.3 * dx * (rng.uniform(3 * i + 2) - 0.5)};
      }
    }
  }
  return pos;
}

domain::DomainOptions domain_options(util::ThreadPool* pool = nullptr) {
  domain::DomainOptions opt;
  opt.box = kBox;
  opt.leaf_size = kLeafSize;
  opt.pool = pool;
  return opt;
}

void BM_TreeBuild(benchmark::State& state) {
  const auto pos = jittered_lattice(static_cast<int>(state.range(0)));
  domain::InteractionDomain dom(domain_options());
  for (auto _ : state) {
    dom.update(pos);
    benchmark::DoNotOptimize(dom.tree().root());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(pos.size()));
}
BENCHMARK(BM_TreeBuild)->Arg(16)->Arg(24)->Unit(benchmark::kMillisecond);

void BM_PairStream(benchmark::State& state) {
  const auto pos = jittered_lattice(16);
  const double cutoff = 0.12 * kBox * static_cast<double>(state.range(0)) / 10.0;
  domain::InteractionDomain dom(domain_options());
  dom.update(pos);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    std::uint64_t n = 0;
    dom.for_each_pair(cutoff, [&n](const tree::LeafPair&) { ++n; });
    benchmark::DoNotOptimize(n);
    pairs += n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_PairStream)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

void BM_PairMaterialize(benchmark::State& state) {
  const auto pos = jittered_lattice(16);
  const double cutoff = 0.12 * kBox * static_cast<double>(state.range(0)) / 10.0;
  domain::InteractionDomain dom(domain_options());
  dom.update(pos);
  std::uint64_t pairs = 0;
  for (auto _ : state) {
    const auto list = dom.pairs(cutoff);
    benchmark::DoNotOptimize(list.data());
    pairs += list.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pairs));
}
BENCHMARK(BM_PairMaterialize)->Arg(10)->Arg(20)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Figure output: cold build, build thread scaling, pair throughput

// Best-of-3 cold build of the n_side^3 set, in ms (serial when pool is null).
double best_build_ms(const std::vector<Vec3d>& pos, util::ThreadPool* pool) {
  double best = 1e30;
  for (int r = 0; r < 3; ++r) {
    domain::InteractionDomain dom(domain_options(pool));
    const double t0 = util::wtime();
    dom.update(pos);
    best = std::min(best, 1e3 * (util::wtime() - t0));
  }
  return best;
}

void print_summary() {
  const int n_side = 20;
  const double cutoff = 2.5 * kBox / n_side;
  const auto pos = jittered_lattice(n_side);

  hacc::bench::print_header("Interaction domain: tree build (n = 20^3, leaf 32)");
  std::printf("%-9s %10s\n", "threads", "build ms");
  std::printf("%-9s %10.3f\n", "serial", best_build_ms(pos, nullptr));
  for (const int n_threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(static_cast<unsigned>(n_threads));
    std::printf("%-9d %10.3f\n", n_threads, best_build_ms(pos, &pool));
  }

  hacc::bench::print_header("Interaction domain: streamed pair walk (cutoff 2.5 dx)");
  domain::InteractionDomain dom(domain_options());
  dom.update(pos);
  std::uint64_t pairs = 0;
  const double t0 = util::wtime();
  for (int r = 0; r < 10; ++r) {
    dom.for_each_pair(cutoff, [&pairs](const tree::LeafPair&) { ++pairs; });
  }
  const double dt = util::wtime() - t0;
  std::printf("%llu leaf pairs per walk, %.2e leaf pairs/s\n",
              static_cast<unsigned long long>(pairs / 10),
              dt > 0.0 ? static_cast<double>(pairs) / dt : 0.0);
}

}  // namespace

HACC_BENCH_MAIN(print_summary)
