#include "domain/domain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "gravity/pp_short.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "xsycl/queue.hpp"

namespace hacc::domain {
namespace {

using util::Vec3d;

std::vector<Vec3d> random_positions(int n, double box, std::uint64_t seed) {
  util::CounterRng rng(seed);
  std::vector<Vec3d> pos(n);
  for (int i = 0; i < n; ++i) {
    pos[i] = {box * rng.uniform(3 * i), box * rng.uniform(3 * i + 1),
              box * rng.uniform(3 * i + 2)};
  }
  return pos;
}

DomainOptions make_options(double box, int leaf_size, double skin = 0.0,
                           RebuildPolicy rebuild = RebuildPolicy::kAlways) {
  DomainOptions opt;
  opt.box = box;
  opt.leaf_size = leaf_size;
  opt.skin = skin;
  opt.rebuild = rebuild;
  return opt;
}

TEST(RebuildPolicyConfig, RoundTripsBothSpellings) {
  for (const RebuildPolicy p :
       {RebuildPolicy::kAlways, RebuildPolicy::kDisplacement}) {
    RebuildPolicy parsed = RebuildPolicy::kAlways;
    ASSERT_TRUE(parse_rebuild_policy(to_string(p), parsed)) << to_string(p);
    EXPECT_EQ(parsed, p);
  }
  RebuildPolicy out = RebuildPolicy::kDisplacement;
  EXPECT_FALSE(parse_rebuild_policy("sometimes", out));
  EXPECT_EQ(out, RebuildPolicy::kDisplacement);  // untouched on failure
}

TEST(DomainOptionsValidation, RejectsBadKnobsLoudly) {
  EXPECT_THROW(InteractionDomain(make_options(10.0, 8, -0.1)),
               std::invalid_argument);
  EXPECT_THROW(InteractionDomain(make_options(0.0, 8)), std::invalid_argument);
  EXPECT_THROW(InteractionDomain(make_options(10.0, 0)), std::invalid_argument);
  EXPECT_NO_THROW(InteractionDomain(make_options(10.0, 1, 0.0)));
}

TEST(DomainLifecycle, UseBeforeUpdateThrows) {
  InteractionDomain dom(make_options(10.0, 8));
  EXPECT_FALSE(dom.ready());
  EXPECT_THROW(dom.tree(), std::logic_error);
  EXPECT_THROW(dom.all(), std::logic_error);
  EXPECT_THROW(dom.pairs(1.0), std::logic_error);
}

// The pair list a force evaluation reads, pairs(cutoff), is the
// for_each_pair walk in order, canonical and duplicate-free, across random
// point sets, cutoffs, and leaf sizes.
TEST(DomainTraversalParity, PairListMatchesWalkExactly) {
  const double box = 10.0;
  for (const int n : {1, 50, 400}) {
    for (const int leaf_size : {1, 4, 16}) {
      for (const double cutoff : {0.2, 1.0, 3.0}) {
        const auto pos = random_positions(n, box, 100 + n + leaf_size);
        InteractionDomain dom(make_options(box, leaf_size));
        dom.update(pos);
        const auto list = dom.pairs(cutoff);

        std::vector<tree::LeafPair> walked;
        dom.for_each_pair(cutoff,
                          [&](const tree::LeafPair& lp) { walked.push_back(lp); });
        ASSERT_EQ(list.size(), walked.size());
        for (std::size_t k = 0; k < walked.size(); ++k) {
          ASSERT_EQ(list[k].a, walked[k].a);
          ASSERT_EQ(list[k].b, walked[k].b);
        }

        // Canonical and duplicate-free.
        std::set<std::pair<std::int32_t, std::int32_t>> seen;
        for (const auto& lp : list) {
          ASSERT_LE(lp.a, lp.b);
          ASSERT_TRUE(seen.insert({lp.a, lp.b}).second);
        }
      }
    }
  }
}

TEST(DomainSpeciesViews, PartitionEveryLeafIntoLocalIndexRanges) {
  const double box = 10.0;
  const int n_first = 120;  // species A ("dm")
  const int n_second = 80;  // species B ("gas")
  const auto pos = random_positions(n_first + n_second, box, 7);
  InteractionDomain dom(make_options(box, 8));
  dom.update(pos, n_first);

  const SpeciesView all = dom.all();
  const SpeciesView first = dom.first();
  const SpeciesView second = dom.second();
  ASSERT_EQ(all.n_leaves, dom.tree().leaves().size());
  ASSERT_EQ(first.n_leaves, all.n_leaves);
  ASSERT_EQ(second.n_leaves, all.n_leaves);

  std::vector<int> seen_first(n_first, 0), seen_second(n_second, 0);
  for (std::size_t l = 0; l < all.n_leaves; ++l) {
    const auto& la = all.leaves[l];
    const auto& lf = first.leaves[l];
    const auto& ls = second.leaves[l];
    // The two species sub-ranges tile the combined leaf range exactly.
    ASSERT_EQ(lf.begin, la.begin);
    ASSERT_EQ(lf.end, ls.begin);
    ASSERT_EQ(ls.end, la.end);
    for (std::int32_t k = lf.begin; k < lf.end; ++k) {
      ASSERT_LT(all.order[k], n_first);              // species A slot
      ASSERT_EQ(first.order[k], all.order[k]);       // local == combined
      ++seen_first[first.order[k]];
    }
    for (std::int32_t k = ls.begin; k < ls.end; ++k) {
      ASSERT_GE(all.order[k], n_first);              // species B slot
      ASSERT_EQ(second.order[k], all.order[k] - n_first);
      ++seen_second[second.order[k]];
    }
  }
  // Each view's order is a permutation of its species.
  EXPECT_TRUE(std::all_of(seen_first.begin(), seen_first.end(),
                          [](int c) { return c == 1; }));
  EXPECT_TRUE(std::all_of(seen_second.begin(), seen_second.end(),
                          [](int c) { return c == 1; }));

  // The combined view preserves the tree's per-leaf slot SETS (the species
  // partition only reorders within a leaf).
  for (std::size_t l = 0; l < all.n_leaves; ++l) {
    const auto& leaf = dom.tree().leaves()[l];
    std::multiset<std::int32_t> from_tree(dom.tree().order().begin() + leaf.begin,
                                          dom.tree().order().begin() + leaf.end);
    std::multiset<std::int32_t> from_view(all.order + leaf.begin,
                                          all.order + leaf.end);
    ASSERT_EQ(from_tree, from_view);
  }
}

TEST(DomainDisplacementPolicy, RebuildsOnlyPastHalfSkinAndOnShapeChanges) {
  const double box = 10.0;
  const double skin = 0.5;
  auto pos = random_positions(200, box, 9);
  InteractionDomain dom(make_options(box, 8, skin, RebuildPolicy::kDisplacement));

  EXPECT_TRUE(dom.update(pos));  // first update always builds
  EXPECT_EQ(dom.stats().builds, 1u);

  // Tiny drift: reuse.
  for (auto& p : pos) p.x += 0.1;
  EXPECT_FALSE(dom.update(pos));
  EXPECT_EQ(dom.stats().builds, 1u);
  EXPECT_EQ(dom.stats().reuses, 1u);
  EXPECT_NEAR(dom.stats().last_max_drift, 0.1, 1e-9);

  // Cumulative drift past skin/2 since the last BUILD: rebuild.
  for (auto& p : pos) p.x += 0.2;
  EXPECT_TRUE(dom.update(pos));
  EXPECT_EQ(dom.stats().builds, 2u);
  EXPECT_NEAR(dom.stats().last_max_drift, 0.3, 1e-9);

  // Particle-count change forces a rebuild even with zero drift.
  pos.push_back({5.0, 5.0, 5.0});
  EXPECT_TRUE(dom.update(pos));
  EXPECT_EQ(dom.stats().builds, 3u);

  // Species-split change forces a rebuild too.
  EXPECT_TRUE(dom.update(pos, 10));
  EXPECT_EQ(dom.stats().builds, 4u);
}

TEST(DomainDisplacementPolicy, BoundaryWrapForcesRebuildDespiteTinyDrift) {
  // A particle crossing the periodic face moves a near-box raw distance:
  // re-binning it would inflate its leaf AABB to almost the whole domain,
  // so the domain must rebuild even though the min-image drift is tiny.
  const double box = 10.0;
  auto pos = random_positions(100, box, 13);
  pos[0] = {9.99, 5.0, 5.0};
  InteractionDomain dom(make_options(box, 8, /*skin=*/0.5,
                                     RebuildPolicy::kDisplacement));
  dom.update(pos);

  pos[0].x = 0.01;  // wrapped: min-image drift 0.02 << skin/2
  EXPECT_TRUE(dom.update(pos));
  EXPECT_EQ(dom.stats().builds, 2u);
  EXPECT_EQ(dom.stats().reuses, 0u);
  EXPECT_NEAR(dom.stats().last_max_drift, 0.02, 1e-9);
}

TEST(DomainDisplacementPolicy, ReusedTreeKeepsPairCoverageExact) {
  // Force reuse with a huge skin, drift particles randomly (reflecting off
  // the box faces so nobody wraps), and check the re-binned tree still
  // covers every close particle pair — the property that makes Verlet reuse
  // physics-exact.
  const double box = 10.0;
  const int n = 250;
  auto pos = random_positions(n, box, 11);
  InteractionDomain dom(make_options(box, 8, /*skin=*/100.0,
                                     RebuildPolicy::kDisplacement));
  dom.update(pos);

  util::CounterRng rng(12);
  for (int i = 0; i < n; ++i) {
    for (int a = 0; a < 3; ++a) {
      double v = pos[i][a] + 0.5 * (rng.uniform(3 * i + a) - 0.5);
      if (v < 0.0) v = -v;
      if (v >= box) v = 2.0 * box - v - 1e-9;
      pos[i][a] = v;
    }
  }
  ASSERT_FALSE(dom.update(pos));  // reuse (skin/2 = 50, no wraps)
  ASSERT_EQ(dom.stats().reuses, 1u);

  const double cutoff = 1.0;
  std::set<std::pair<std::int32_t, std::int32_t>> listed;
  dom.for_each_pair(cutoff, [&](const tree::LeafPair& lp) {
    listed.insert({lp.a, lp.b});
  });
  const auto& tree = dom.tree();
  const auto slot_of = [&](int particle) {
    const auto& ord = tree.order();
    return static_cast<std::int32_t>(std::find(ord.begin(), ord.end(), particle) -
                                     ord.begin());
  };
  const auto min_image = [&](const Vec3d& a, const Vec3d& b) {
    double d2 = 0.0;
    for (int axis = 0; axis < 3; ++axis) {
      double d = std::fabs(a[axis] - b[axis]);
      d = std::min(d, box - d);
      d2 += d * d;
    }
    return std::sqrt(d2);
  };
  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      if (min_image(pos[i], pos[j]) > cutoff) continue;
      std::int32_t la = tree.leaf_of_slot(slot_of(i));
      std::int32_t lb = tree.leaf_of_slot(slot_of(j));
      if (la > lb) std::swap(la, lb);
      ASSERT_TRUE(listed.count({la, lb}))
          << "pair (" << i << "," << j << ") missing after reuse";
    }
  }
}

// The satellite Verlet-skin test: short-range gravity forces from a
// displacement-policy domain are BIT-IDENTICAL (at one thread) to an
// always-rebuild domain until the drift exceeds skin/2 — and stay identical
// after the triggered rebuild, because both then build from the same
// positions.  Positions and the per-step translation are dyadic
// (1/1024-quantized) so the uniform drift is exact in float and double and
// the RCB median ordering is provably unchanged under reuse.
TEST(DomainVerletSkin, ForcesBitIdenticalToAlwaysRebuildAtOneThread) {
  const double box = 10.0;
  const int n = 160;
  const double skin = 0.5;
  const double cutoff = 1.0;

  // Dyadic positions away from the box faces (no wrap during the drift).
  const auto quantize = [](double v) { return std::round(v * 1024.0) / 1024.0; };
  util::CounterRng rng(21);
  std::vector<Vec3d> pos(n);
  for (int i = 0; i < n; ++i) {
    for (int a = 0; a < 3; ++a) {
      pos[i][a] = quantize(2.5 + 5.0 * rng.uniform(3 * i + a));
    }
  }
  const Vec3d delta = {quantize(0.125), quantize(0.0625), quantize(-0.09375)};
  const double step_drift = norm(delta);
  ASSERT_LT(step_drift, 0.5 * skin);        // one step reuses
  ASSERT_GT(2.0 * step_drift, 0.5 * skin);  // two steps trigger a rebuild

  InteractionDomain reuse(make_options(box, 8, skin, RebuildPolicy::kDisplacement));
  InteractionDomain rebuild(make_options(box, 8));

  const gravity::PolyShortForce poly(0.25, cutoff);
  util::ThreadPool pool(1);
  xsycl::Queue q(pool);
  gravity::PpOptions ppopt;
  ppopt.box = static_cast<float>(box);
  ppopt.G = 1.0f;
  ppopt.softening = 0.05f;

  const auto forces = [&](const InteractionDomain& dom,
                          std::vector<float>& ax, std::vector<float>& ay,
                          std::vector<float>& az) {
    std::vector<float> x(n), y(n), z(n), m(n, 1.0f);
    for (int i = 0; i < n; ++i) {
      x[i] = static_cast<float>(pos[i].x);
      y[i] = static_cast<float>(pos[i].y);
      z[i] = static_cast<float>(pos[i].z);
    }
    ax.assign(n, 0.f);
    ay.assign(n, 0.f);
    az.assign(n, 0.f);
    const gravity::GravityArrays arrays{x.data(),  y.data(),  z.data(), m.data(),
                                        ax.data(), ay.data(), az.data(),
                                        static_cast<std::size_t>(n)};
    gravity::run_pp_short(q, arrays, dom.all(),
                          dom.pairs(cutoff), poly, ppopt);
  };

  bool saw_reuse = false, saw_rebuild_after_reuse = false;
  for (int step = 0; step < 5; ++step) {
    if (step > 0) {
      for (auto& p : pos) p = p + delta;
    }
    const bool rebuilt = reuse.update(pos);
    rebuild.update(pos);
    if (!rebuilt && step > 0) saw_reuse = true;
    if (rebuilt && step > 0) saw_rebuild_after_reuse = true;

    std::vector<float> ax_r, ay_r, az_r, ax_b, ay_b, az_b;
    forces(reuse, ax_r, ay_r, az_r);
    forces(rebuild, ax_b, ay_b, az_b);
    for (int i = 0; i < n; ++i) {
      ASSERT_EQ(ax_r[i], ax_b[i]) << "step " << step << " particle " << i;
      ASSERT_EQ(ay_r[i], ay_b[i]) << "step " << step << " particle " << i;
      ASSERT_EQ(az_r[i], az_b[i]) << "step " << step << " particle " << i;
    }
  }
  EXPECT_TRUE(saw_reuse);
  EXPECT_TRUE(saw_rebuild_after_reuse);
  EXPECT_GE(reuse.stats().reuses, 2u);
  EXPECT_LT(reuse.stats().builds, rebuild.stats().builds);
}

TEST(DomainAlwaysPolicy, RebuildsEveryUpdate) {
  auto pos = random_positions(100, 10.0, 30);
  InteractionDomain dom(make_options(10.0, 8, /*skin=*/5.0, RebuildPolicy::kAlways));
  dom.update(pos);
  dom.update(pos);  // even unmoved positions rebuild under kAlways
  dom.update(pos);
  EXPECT_EQ(dom.stats().builds, 3u);
  EXPECT_EQ(dom.stats().reuses, 0u);
}

TEST(DomainEdgeCases, EmptyAndSingleSpecies) {
  InteractionDomain dom(make_options(10.0, 8));
  dom.update(std::vector<Vec3d>{});
  EXPECT_TRUE(dom.ready());
  EXPECT_TRUE(dom.pairs(1.0).empty());
  EXPECT_EQ(dom.all().n_leaves, 0u);

  const auto pos = random_positions(40, 10.0, 31);
  dom.update(pos, /*n_first=*/40);  // everything species A
  EXPECT_EQ(dom.second().n_leaves, dom.first().n_leaves);
  std::int32_t first_total = 0, second_total = 0;
  for (std::size_t l = 0; l < dom.first().n_leaves; ++l) {
    first_total += dom.first().leaves[l].count();
    second_total += dom.second().leaves[l].count();
  }
  EXPECT_EQ(first_total, 40);
  EXPECT_EQ(second_total, 0);

  EXPECT_THROW(dom.update(pos, 41), std::invalid_argument);
}

}  // namespace
}  // namespace hacc::domain
