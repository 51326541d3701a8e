// The determinism battery behind the thread-scaled step: every gravity
// backend (and the SPH hydro pipeline) must produce the same physics at
// 1, 2, 4, and 8 pool threads.
//
// Contract (docs/CONCURRENCY.md): a run's final state is bit-identical at
// any thread count.  The PM mesh pipeline (CIC/FFT/gradient), tree build,
// FMM passes and the kick/drift updates are deterministic by construction,
// and the production pair driver (pairs/native.hpp) — short-range P-P and
// every SPH pair kernel — sums each particle's contributions on the one
// worker that owns its leaf, in the canonical walk order, and commits the
// sum in a single write.  No float sum depends on the dynamic chunk
// schedule, so multi-thread runs must equal the 1-thread run exactly.
//
// The stage-overlap knob only changes *when* the PM stage runs relative to
// the tree-walk chain, never what it reads or writes — with a serial pool
// underneath, overlap on vs off must be bit-identical as well.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/solver.hpp"
#include "util/thread_pool.hpp"

namespace hacc::core {
namespace {

// Full per-particle phase-space + thermal state of one finished run.
struct Snapshot {
  std::vector<float> dm_x, dm_v;   // x,y,z / vx,vy,vz interleaved by array
  std::vector<float> gas_x, gas_v, gas_u;
};

void append_state(const ParticleSet& p, std::vector<float>& x,
                  std::vector<float>& v) {
  x.insert(x.end(), p.x.begin(), p.x.end());
  x.insert(x.end(), p.y.begin(), p.y.end());
  x.insert(x.end(), p.z.begin(), p.z.end());
  v.insert(v.end(), p.vx.begin(), p.vx.end());
  v.insert(v.end(), p.vy.begin(), p.vy.end());
  v.insert(v.end(), p.vz.begin(), p.vz.end());
}

SimConfig parity_config(GravityBackend backend, bool hydro) {
  SimConfig cfg;
  cfg.np_side = 6;
  cfg.n_steps = 2;
  cfg.pm_grid = 16;
  cfg.hydro = hydro;
  cfg.gravity_backend = backend;
  return cfg;
}

Snapshot run_case(const SimConfig& cfg, unsigned threads,
                  OverlapMode overlap = OverlapMode::kAuto) {
  SimConfig c = cfg;
  c.sched_overlap = overlap;
  util::ThreadPool pool(threads);
  Solver solver(c, pool);
  solver.run();
  Snapshot s;
  append_state(solver.dm(), s.dm_x, s.dm_v);
  if (c.hydro) {
    append_state(solver.gas(), s.gas_x, s.gas_v);
    s.gas_u = solver.gas().u;
  }
  return s;
}

void expect_identical(const Snapshot& a, const Snapshot& b,
                      const std::string& label) {
  EXPECT_EQ(a.dm_x, b.dm_x) << label;
  EXPECT_EQ(a.dm_v, b.dm_v) << label;
  EXPECT_EQ(a.gas_x, b.gas_x) << label;
  EXPECT_EQ(a.gas_v, b.gas_v) << label;
  EXPECT_EQ(a.gas_u, b.gas_u) << label;
}

class ThreadParity : public ::testing::TestWithParam<GravityBackend> {};

TEST_P(ThreadParity, GravityOnlyMatchesSerialAcrossThreadCounts) {
  const SimConfig cfg = parity_config(GetParam(), /*hydro=*/false);
  const Snapshot base = run_case(cfg, 1);
  for (const unsigned threads : {2u, 4u, 8u}) {
    expect_identical(base, run_case(cfg, threads),
                     to_string(GetParam()) + std::string(" @ ") +
                         std::to_string(threads) + " threads");
  }
}

TEST_P(ThreadParity, OverlapOnSerialPoolIsBitIdentical) {
  // With one pool thread every kernel is deterministic, so flipping the
  // overlap knob (PM stage on its own lane vs inline) must not move a bit:
  // the stage graph declares every data dependency.
  const SimConfig cfg = parity_config(GetParam(), /*hydro=*/GetParam() ==
                                                      GravityBackend::kPmPp);
  const Snapshot off = run_case(cfg, 1, OverlapMode::kOff);
  const Snapshot on = run_case(cfg, 1, OverlapMode::kOn);
  expect_identical(off, on, to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ThreadParity,
                         ::testing::Values(GravityBackend::kPmPp,
                                           GravityBackend::kFmm,
                                           GravityBackend::kTreePm),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(ThreadParitySph, HydroPipelineMatchesSerialAcrossThreadCounts) {
  const SimConfig cfg = parity_config(GravityBackend::kPmPp, /*hydro=*/true);
  const Snapshot base = run_case(cfg, 1);
  ASSERT_FALSE(base.gas_u.empty());
  for (const unsigned threads : {2u, 4u, 8u}) {
    expect_identical(base, run_case(cfg, threads),
                     "sph @ " + std::to_string(threads) + " threads");
  }
}

TEST(ThreadParitySph, RepeatedSerialRunsAreBitIdentical) {
  // The 1-thread pool runs chunks inline in index order: two identical runs
  // must agree bitwise — the anchor the thread-count comparisons hang off.
  const SimConfig cfg = parity_config(GravityBackend::kPmPp, /*hydro=*/true);
  expect_identical(run_case(cfg, 1), run_case(cfg, 1), "serial repeat");
}

TEST(OverlapMode, AutoFollowsThePoolAndOffWins) {
  const SimConfig cfg = parity_config(GravityBackend::kPmPp, /*hydro=*/false);
  {
    util::ThreadPool pool(1);
    EXPECT_FALSE(Solver(cfg, pool).overlap_enabled());
  }
  {
    util::ThreadPool pool(2);
    EXPECT_TRUE(Solver(cfg, pool).overlap_enabled());
    SimConfig off = cfg;
    off.sched_overlap = OverlapMode::kOff;
    EXPECT_FALSE(Solver(off, pool).overlap_enabled());
  }
}

}  // namespace
}  // namespace hacc::core
