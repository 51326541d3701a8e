#include "tree/rcb.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace hacc::tree {
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

double min_image_dist(const Vec3d& a, const Vec3d& b, double box) {
  double d2 = 0.0;
  for (int axis = 0; axis < 3; ++axis) {
    double d = std::fabs(a[axis] - b[axis]);
    d = std::min(d, box - d);
    d2 += d * d;
  }
  return std::sqrt(d2);
}

class RcbTreeParam : public ::testing::TestWithParam<std::tuple<int, int>> {};

INSTANTIATE_TEST_SUITE_P(SizesAndLeaves, RcbTreeParam,
                         ::testing::Combine(::testing::Values(1, 33, 200, 1000),
                                            ::testing::Values(8, 16, 32)),
                         [](const auto& info) {
                           return "n" + std::to_string(std::get<0>(info.param)) + "_leaf" +
                                  std::to_string(std::get<1>(info.param));
                         });

TEST_P(RcbTreeParam, OrderIsAPermutation) {
  const auto [n, leaf_size] = GetParam();
  const double box = 10.0;
  const auto pos = random_positions(n, box, 42);
  RcbTree tree(pos, box, leaf_size);
  std::vector<std::int32_t> sorted = tree.order();
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < n; ++i) ASSERT_EQ(sorted[i], i);
}

TEST_P(RcbTreeParam, LeavesRespectSizeBoundAndPartitionSlots) {
  const auto [n, leaf_size] = GetParam();
  const double box = 10.0;
  const auto pos = random_positions(n, box, 43);
  RcbTree tree(pos, box, leaf_size);
  std::int32_t covered = 0;
  for (const auto& leaf : tree.leaves()) {
    ASSERT_EQ(leaf.begin, covered);  // contiguous, in order
    ASSERT_GT(leaf.count(), 0);
    ASSERT_LE(leaf.count(), leaf_size);
    covered = leaf.end;
  }
  EXPECT_EQ(covered, n);
}

TEST_P(RcbTreeParam, BoundingBoxesContainTheirParticles) {
  const auto [n, leaf_size] = GetParam();
  const double box = 10.0;
  const auto pos = random_positions(n, box, 44);
  RcbTree tree(pos, box, leaf_size);
  for (const auto& leaf : tree.leaves()) {
    for (std::int32_t k = leaf.begin; k < leaf.end; ++k) {
      const Vec3d& p = pos[tree.order()[k]];
      for (int a = 0; a < 3; ++a) {
        ASSERT_GE(p[a], leaf.lo[a] - 1e-12);
        ASSERT_LE(p[a], leaf.hi[a] + 1e-12);
      }
    }
  }
}

TEST_P(RcbTreeParam, SlotLeafMappingConsistent) {
  const auto [n, leaf_size] = GetParam();
  const double box = 10.0;
  const auto pos = random_positions(n, box, 45);
  RcbTree tree(pos, box, leaf_size);
  for (std::int32_t li = 0; li < static_cast<std::int32_t>(tree.leaves().size()); ++li) {
    const auto& leaf = tree.leaves()[li];
    for (std::int32_t k = leaf.begin; k < leaf.end; ++k) {
      ASSERT_EQ(tree.leaf_of_slot(k), li);
    }
  }
}

// The critical property for the short-range solvers: every particle pair
// within the cutoff must be covered by some interacting leaf pair.
class RcbPairs : public ::testing::TestWithParam<double> {};

INSTANTIATE_TEST_SUITE_P(Cutoffs, RcbPairs, ::testing::Values(0.5, 1.0, 2.0, 3.5),
                         [](const auto& info) {
                           const int milli = static_cast<int>(info.param * 1000);
                           return "cut" + std::to_string(milli);
                         });

TEST_P(RcbPairs, InteractionListCoversAllClosePairsBruteForce) {
  const double cutoff = GetParam();
  const double box = 10.0;
  const int n = 400;
  const auto pos = random_positions(n, box, 46);
  RcbTree tree(pos, box, 16);
  const auto pairs = tree.interacting_pairs(cutoff);

  std::set<std::pair<std::int32_t, std::int32_t>> listed;
  for (const auto& lp : pairs) listed.insert({lp.a, lp.b});

  for (int i = 0; i < n; ++i) {
    for (int j = i; j < n; ++j) {
      if (min_image_dist(pos[i], pos[j], box) > cutoff) continue;
      // Find slots, then leaves.
      const auto slot_of = [&](int particle) {
        const auto& ord = tree.order();
        return static_cast<std::int32_t>(
            std::find(ord.begin(), ord.end(), particle) - ord.begin());
      };
      std::int32_t la = tree.leaf_of_slot(slot_of(i));
      std::int32_t lb = tree.leaf_of_slot(slot_of(j));
      if (la > lb) std::swap(la, lb);
      ASSERT_TRUE(listed.count({la, lb}))
          << "pair (" << i << "," << j << ") in leaves (" << la << "," << lb
          << ") missing at cutoff " << cutoff;
    }
  }
}

TEST_P(RcbPairs, ListedLeafPairsAreWithinCutoff) {
  const double cutoff = GetParam();
  const double box = 10.0;
  const auto pos = random_positions(300, box, 47);
  RcbTree tree(pos, box, 16);
  for (const auto& lp : tree.interacting_pairs(cutoff)) {
    ASSERT_LE(tree.leaf_distance(lp.a, lp.b), cutoff + 1e-12);
    ASSERT_LE(lp.a, lp.b);
  }
}

TEST(RcbPairsDedup, NoDuplicatePairs) {
  const double box = 10.0;
  const auto pos = random_positions(500, box, 48);
  RcbTree tree(pos, box, 8);
  const auto pairs = tree.interacting_pairs(2.0);
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for (const auto& lp : pairs) {
    ASSERT_TRUE(seen.insert({lp.a, lp.b}).second)
        << "duplicate (" << lp.a << "," << lp.b << ")";
  }
}

TEST(RcbPairsPeriodic, FindsPairsAcrossBoundary) {
  // Two tight clusters on opposite faces of the box: only periodic wrap
  // brings them within the cutoff.
  const double box = 10.0;
  std::vector<Vec3d> pos;
  for (int i = 0; i < 20; ++i) {
    pos.push_back({0.1 + 0.001 * i, 5.0, 5.0});
    pos.push_back({9.9 - 0.001 * i, 5.0, 5.0});
  }
  RcbTree tree(pos, box, 8);
  bool found_cross = false;
  for (const auto& lp : tree.interacting_pairs(0.5)) {
    const auto& a = tree.leaves()[lp.a];
    const auto& b = tree.leaves()[lp.b];
    // A cross pair spans the two clusters (one near x=0, one near x=10).
    if ((a.hi.x < 1.0 && b.lo.x > 9.0) || (b.hi.x < 1.0 && a.lo.x > 9.0)) {
      found_cross = true;
    }
  }
  EXPECT_TRUE(found_cross);
}

TEST(RcbEdgeCases, CutoffBeyondHalfBoxPairsEveryLeafExactlyOnce) {
  // Under the minimum image no two AABBs are farther apart than
  // sqrt(3)/2 * box, so a cutoff of one box length must list every leaf
  // pair — each exactly once.
  const double box = 10.0;
  const auto pos = random_positions(300, box, 60);
  RcbTree tree(pos, box, 16);
  const auto pairs = tree.interacting_pairs(box);
  const std::size_t n_leaves = tree.leaves().size();
  ASSERT_GT(n_leaves, 1u);
  EXPECT_EQ(pairs.size(), n_leaves * (n_leaves + 1) / 2);
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  for (const auto& lp : pairs) {
    ASSERT_LE(lp.a, lp.b);
    ASSERT_TRUE(seen.insert({lp.a, lp.b}).second)
        << "duplicate (" << lp.a << "," << lp.b << ")";
  }
}

TEST(RcbEdgeCases, SingleLeafTree) {
  const double box = 10.0;
  const auto pos = random_positions(9, box, 61);
  RcbTree tree(pos, box, 16);
  ASSERT_EQ(tree.leaves().size(), 1u);
  EXPECT_EQ(tree.leaves()[0].count(), 9);
  for (const double cutoff : {0.0, 1.0, box}) {
    const auto pairs = tree.interacting_pairs(cutoff);
    ASSERT_EQ(pairs.size(), 1u) << "cutoff " << cutoff;
    EXPECT_EQ(pairs[0].a, 0);
    EXPECT_EQ(pairs[0].b, 0);
  }
}

TEST(RcbEdgeCases, ParticlesExactlyOnBoxBoundary) {
  // Tight clusters exactly on the lower (x = 0) and upper (x = box) faces:
  // the minimum image puts the faces at distance zero, so every leaf pair
  // is within a tiny cutoff even though the coordinates sit a box apart.
  const double box = 10.0;
  std::vector<Vec3d> pos;
  for (int i = 0; i < 12; ++i) {
    pos.push_back({0.0, 5.0 + 0.001 * i, 5.0});
    pos.push_back({box, 5.0 + 0.001 * i, 5.0});
  }
  RcbTree tree(pos, box, 8);
  const auto& leaves = tree.leaves();
  ASSERT_GT(leaves.size(), 1u);
  bool found_cross = false;
  for (std::size_t a = 0; a < leaves.size(); ++a) {
    for (std::size_t b = a + 1; b < leaves.size(); ++b) {
      if ((leaves[a].hi.x < 1.0 && leaves[b].lo.x > 9.0) ||
          (leaves[b].hi.x < 1.0 && leaves[a].lo.x > 9.0)) {
        // Cross-boundary pair: the x gap wraps to exactly zero.
        EXPECT_LT(tree.leaf_distance(static_cast<std::int32_t>(a),
                                     static_cast<std::int32_t>(b)),
                  0.02);
        found_cross = true;
      }
    }
  }
  EXPECT_TRUE(found_cross);
  // Everything is mutually within a whisker under the minimum image.
  const auto pairs = tree.interacting_pairs(0.05);
  EXPECT_EQ(pairs.size(), leaves.size() * (leaves.size() + 1) / 2);
}

TEST(RcbEdgeCases, EmptyTree) {
  std::vector<Vec3d> pos;
  RcbTree tree(pos, 10.0, 16);
  EXPECT_TRUE(tree.leaves().empty());
  EXPECT_TRUE(tree.interacting_pairs(1.0).empty());
}

TEST(RcbStreaming, ForEachPairMatchesInteractingPairsInOrder) {
  const double box = 10.0;
  for (const int n : {1, 37, 500}) {
    for (const int leaf_size : {1, 8, 32}) {
      for (const double cutoff : {0.3, 1.5, box}) {
        const auto pos = random_positions(n, box, 70 + n + leaf_size);
        RcbTree tree(pos, box, leaf_size);
        const auto materialized = tree.interacting_pairs(cutoff);
        std::vector<LeafPair> streamed;
        tree.for_each_pair(cutoff,
                           [&](const LeafPair& lp) { streamed.push_back(lp); });
        ASSERT_EQ(streamed.size(), materialized.size());
        for (std::size_t k = 0; k < streamed.size(); ++k) {
          ASSERT_EQ(streamed[k].a, materialized[k].a);
          ASSERT_EQ(streamed[k].b, materialized[k].b);
        }
      }
    }
  }
}

// The level-parallel build promises bitwise identity with the serial
// constructor for any pool size: identical topology (node indexing, leaf
// numbering, slot ranges), identical permutation, and identical AABBs —
// nth_element on the same range with the same comparator is deterministic,
// and the level barrier reproduces the serial ancestor-before-descendant
// order.  CONCURRENCY.md row: tree build.
void expect_trees_identical(const RcbTree& a, const RcbTree& b) {
  ASSERT_EQ(a.root(), b.root());
  ASSERT_EQ(a.order(), b.order());
  ASSERT_EQ(a.nodes().size(), b.nodes().size());
  for (std::size_t i = 0; i < a.nodes().size(); ++i) {
    const auto& na = a.nodes()[i];
    const auto& nb = b.nodes()[i];
    EXPECT_EQ(na.begin, nb.begin);
    EXPECT_EQ(na.end, nb.end);
    EXPECT_EQ(na.left, nb.left);
    EXPECT_EQ(na.right, nb.right);
    EXPECT_EQ(na.leaf, nb.leaf);
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_EQ(na.lo[axis], nb.lo[axis]) << "node " << i;
      EXPECT_EQ(na.hi[axis], nb.hi[axis]) << "node " << i;
    }
  }
  ASSERT_EQ(a.leaves().size(), b.leaves().size());
  for (std::size_t l = 0; l < a.leaves().size(); ++l) {
    const auto& la = a.leaves()[l];
    const auto& lb = b.leaves()[l];
    EXPECT_EQ(la.begin, lb.begin);
    EXPECT_EQ(la.end, lb.end);
    for (int axis = 0; axis < 3; ++axis) {
      EXPECT_EQ(la.lo[axis], lb.lo[axis]) << "leaf " << l;
      EXPECT_EQ(la.hi[axis], lb.hi[axis]) << "leaf " << l;
    }
  }
  for (std::int32_t k = 0; k < static_cast<std::int32_t>(a.order().size());
       ++k) {
    ASSERT_EQ(a.leaf_of_slot(k), b.leaf_of_slot(k));
  }
}

class RcbParallelBuild : public ::testing::TestWithParam<unsigned> {};

INSTANTIATE_TEST_SUITE_P(PoolSizes, RcbParallelBuild,
                         ::testing::Values(1u, 2u, 8u),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST_P(RcbParallelBuild, BuildIsBitIdenticalToSerial) {
  util::ThreadPool pool(GetParam());
  for (const int n : {1, 33, 200, 1000}) {
    const auto pos = random_positions(n, 10.0, 90 + n);
    const RcbTree serial(pos, 10.0, 16);
    const RcbTree parallel(pos, 10.0, 16, pool);
    expect_trees_identical(serial, parallel);
  }
}

TEST(RcbParallelBuildEdgeCases, DuplicateAndEmptyInputsMatchSerial) {
  util::ThreadPool pool(4);
  const std::vector<Vec3d> dup(100, Vec3d{5.0, 5.0, 5.0});
  expect_trees_identical(RcbTree(dup, 10.0, 8), RcbTree(dup, 10.0, 8, pool));
  const std::vector<Vec3d> none;
  expect_trees_identical(RcbTree(none, 10.0, 8), RcbTree(none, 10.0, 8, pool));
}

TEST(RcbEdgeCases, DuplicatePositionsDoNotBreakSplit) {
  std::vector<Vec3d> pos(100, Vec3d{5.0, 5.0, 5.0});
  RcbTree tree(pos, 10.0, 8);
  std::int32_t covered = 0;
  for (const auto& leaf : tree.leaves()) {
    ASSERT_LE(leaf.count(), 8);
    covered += leaf.count();
  }
  EXPECT_EQ(covered, 100);
}

}  // namespace
}  // namespace hacc::tree
