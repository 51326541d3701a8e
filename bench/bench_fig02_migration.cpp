// Figure 2 made a measured quantity: the paper benchmarks particle
// migration and ghost exchange across ranks; this binary measures the same
// phases on the in-process shard engine.  A shard-count sweep (1/2/4/8)
// times full solver steps and splits out the per-step migration and
// ghost-exchange cost, plus a force-parity column against the single-domain
// evaluation (the ghost layer is exact, so the error is summation-order
// noise).  Emits BENCH_shard.json at the repo root like BENCH_pm.json.

#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/solver.hpp"
#include "shard/engine.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace {

using namespace hacc;
using util::Vec3d;

constexpr double kBox = 25.0;

core::ParticleSet random_dm(std::size_t n, std::uint64_t seed) {
  core::ParticleSet p;
  p.resize(n);
  const util::CounterRng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    p.x[i] = static_cast<float>(kBox * rng.uniform(3 * i));
    p.y[i] = static_cast<float>(kBox * rng.uniform(3 * i + 1));
    p.z[i] = static_cast<float>(kBox * rng.uniform(3 * i + 2));
    p.mass[i] = 1.f;
  }
  return p;
}

std::vector<Vec3d> positions_of(const core::ParticleSet& p) {
  std::vector<Vec3d> pos(p.size());
  for (std::size_t i = 0; i < p.size(); ++i) pos[i] = p.pos_of(i);
  return pos;
}

// The raw per-rebuild cost: migration scan + handover + ghost exchange +
// per-shard trees, the quantity the paper's figure 2 charts.  Particles
// random-walk between prepares so boundary crossings really migrate.
void BM_ShardPrepare(benchmark::State& state) {
  const int count = static_cast<int>(state.range(0));
  util::ThreadPool& pool = util::ThreadPool::global();
  core::ParticleSet dm = random_dm(20'000, 11), gas;
  auto pos = positions_of(dm);
  shard::ShardOptions opt;
  opt.box = kBox;
  opt.count = count;
  opt.range = 1.0;
  opt.pool = &pool;
  shard::ShardEngine engine(opt);  // kAlways: every prepare re-migrates
  const util::CounterRng rng(3);
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    engine.prepare(dm, gas, pos);
    benchmark::DoNotOptimize(engine.stats().ghost_copies);
    state.PauseTiming();
    for (std::size_t i = 0; i < dm.size(); ++i) {
      const auto wrap = [&](float& c) {
        c += static_cast<float>(0.6 * (rng.uniform(ctr++) - 0.5));
        if (c < 0.f) c += static_cast<float>(kBox);
        if (c >= static_cast<float>(kBox)) c -= static_cast<float>(kBox);
      };
      wrap(dm.x[i]);
      wrap(dm.y[i]);
      wrap(dm.z[i]);
      pos[i] = dm.pos_of(i);
    }
    state.ResumeTiming();
  }
  const std::uint64_t evals =
      std::max<std::uint64_t>(1, engine.stats().evaluations);
  state.SetLabel(engine.layout().describe() + " ghosts/prep " +
                 std::to_string(engine.stats().ghost_copies / evals) +
                 " migrated/prep " +
                 std::to_string(engine.stats().migrated / evals));
}
BENCHMARK(BM_ShardPrepare)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Shard sweep over full solver steps + BENCH_shard.json

struct SweepRow {
  int shards = 1;
  std::string grid = "1x1x1";
  double wall_s = 0.0;              // total for the measured steps
  double particle_steps_per_s = 0.0;
  // Wall time with the serial sum of per-shard P-P walks replaced by the
  // slowest single shard — what a box with cores >= shards measures, since
  // the walks are independent task-graph nodes.  On fewer cores the
  // measured wall instead pays the full duplicated-halo sum.
  double critical_path_steps_per_s = 0.0;
  double migrate_s_per_step = 0.0;
  double exchange_s_per_step = 0.0;
  std::uint64_t reshards = 0;
  std::uint64_t migrated = 0;
  std::uint64_t ghost_copies = 0;
  double parity_rel_rms = 0.0;      // gravity at the IC vs single-domain
};

// Particle-bound gravity workload at a scale where the halo is thin: the
// PP cutoff is 6.25 * box / pm_grid ~ 2.4, against 12.5-wide cells at 8
// shards.  (With hydro at small np_side the 4 h0 support radius makes every
// halo span most of the box, and sharding degenerates to replication.)
core::SimConfig sweep_config(int shards) {
  core::SimConfig cfg;
  cfg.np_side = 32;
  cfg.box = kBox;
  cfg.pm_grid = 64;
  cfg.seed = 7;
  cfg.hydro = false;
  cfg.shard_count = shards;
  return cfg;
}

double rel_rms(const std::vector<Vec3d>& a, const std::vector<Vec3d>& b) {
  double diff = 0.0, ref = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    diff += norm2(a[i] - b[i]);
    ref += norm2(b[i]);
  }
  return ref > 0.0 ? std::sqrt(diff / ref) : std::sqrt(diff);
}

SweepRow run_sweep_point(int shards, int steps, util::ThreadPool& pool,
                         const std::vector<Vec3d>& reference_gravity) {
  core::Solver solver(sweep_config(shards), pool);
  solver.initialize();
  SweepRow row;
  row.shards = shards;
  if (const shard::ShardEngine* e = solver.shard_engine()) {
    row.grid = e->layout().describe();
  }
  if (!reference_gravity.empty()) {
    row.parity_rel_rms =
        rel_rms(solver.gravity_accelerations(), reference_gravity);
  }
  const shard::EngineStats eng0 = solver.shard_engine() != nullptr
                                      ? solver.shard_engine()->stats()
                                      : shard::EngineStats{};
  std::vector<double> pp0(static_cast<std::size_t>(shards), 0.0);
  if (const shard::ShardEngine* e = solver.shard_engine()) {
    for (int s = 0; s < shards; ++s) pp0[s] = e->shard_view(s).pp_seconds;
  }
  const double t0 = util::wtime();
  for (int s = 0; s < steps; ++s) {
    const core::StepStats st = solver.step();
    row.migrate_s_per_step += st.shard_migrate_seconds;
    row.exchange_s_per_step += st.shard_exchange_seconds;
  }
  row.wall_s = util::wtime() - t0;
  row.migrate_s_per_step /= steps;
  row.exchange_s_per_step /= steps;
  const std::size_t n = solver.dm().size() + solver.gas().size();
  row.particle_steps_per_s = double(n) * steps / row.wall_s;
  row.critical_path_steps_per_s = row.particle_steps_per_s;
  if (const shard::ShardEngine* e = solver.shard_engine()) {
    row.reshards = e->stats().reshards - eng0.reshards;
    row.migrated = e->stats().migrated - eng0.migrated;
    row.ghost_copies = e->stats().ghost_copies - eng0.ghost_copies;
    double slowest = 0.0;
    for (int s = 0; s < shards; ++s) {
      slowest = std::max(slowest, e->shard_view(s).pp_seconds - pp0[s]);
    }
    const double sum = e->stats().pp_seconds - eng0.pp_seconds;
    const double modeled = row.wall_s - sum + slowest;
    if (modeled > 0.0) {
      row.critical_path_steps_per_s = double(n) * steps / modeled;
    }
  }
  return row;
}

void write_bench_json(const std::vector<SweepRow>& rows, int steps,
                      unsigned threads) {
  const char* path = std::getenv("HACC_BENCH_JSON");
  if (path == nullptr) path = "BENCH_shard.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_fig02_migration: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"shard_sweep\",\n");
  std::fprintf(f, "  \"np_side\": 32,\n  \"box\": %.1f,\n  \"hydro\": false,\n",
               kBox);
  std::fprintf(f, "  \"threads\": %u,\n  \"steps\": %d,\n", threads, steps);
  std::fprintf(f,
               "  \"parity_note\": \"solver-level float gravity vs the "
               "legacy float-accumulating path; the <1e-10 double-sum bar "
               "is enforced by test_shard_parity\",\n");
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"shards\": %d, \"grid\": \"%s\", \"wall_s\": %.4f, "
        "\"particle_steps_per_s\": %.0f, "
        "\"critical_path_steps_per_s\": %.0f, "
        "\"migrate_ms_per_step\": %.4f, "
        "\"exchange_ms_per_step\": %.4f, \"reshards\": %llu, "
        "\"migrated\": %llu, \"ghost_copies\": %llu, "
        "\"force_parity_rel_rms\": %.3e}%s\n",
        r.shards, r.grid.c_str(), r.wall_s, r.particle_steps_per_s,
        r.critical_path_steps_per_s,
        r.migrate_s_per_step * 1e3, r.exchange_s_per_step * 1e3,
        static_cast<unsigned long long>(r.reshards),
        static_cast<unsigned long long>(r.migrated),
        static_cast<unsigned long long>(r.ghost_copies),
        r.parity_rel_rms, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path);
}

void print_sweep() {
  // The process pool, sized by HACC_NUM_THREADS: the "threads" field of
  // BENCH_shard.json records the size of the pool the sweep really ran on.
  util::ThreadPool& pool = util::ThreadPool::global();
  const int steps = 3;
  bench::print_header(
      "Shard sweep: full solver steps, migration + ghost-exchange phases\n"
      "(np_side 32, dm-only, pm_pp; parity vs the single-domain evaluation)");

  // The single-domain gravity at the shared IC anchors the parity column.
  std::vector<Vec3d> reference;
  {
    core::Solver ref(sweep_config(1), pool);
    ref.initialize();
    reference = ref.gravity_accelerations();
  }

  std::vector<SweepRow> rows;
  std::printf("%-7s %-8s %9s %12s %12s %11s %11s %8s %9s %11s\n", "shards",
              "grid", "wall s", "pstep/s", "crit-path/s", "migrate ms",
              "exchange ms", "reshard", "migrated", "parity");
  for (const int shards : {1, 2, 4, 8}) {
    rows.push_back(run_sweep_point(shards, steps, pool, reference));
    const SweepRow& r = rows.back();
    std::printf(
        "%-7d %-8s %9.3f %12.0f %12.0f %11.4f %11.4f %8llu %9llu %11.3e\n",
        r.shards, r.grid.c_str(), r.wall_s, r.particle_steps_per_s,
        r.critical_path_steps_per_s, r.migrate_s_per_step * 1e3,
        r.exchange_s_per_step * 1e3,
        static_cast<unsigned long long>(r.reshards),
        static_cast<unsigned long long>(r.migrated), r.parity_rel_rms);
  }
  write_bench_json(rows, steps, pool.size());
}

}  // namespace

HACC_BENCH_MAIN(print_sweep)
