#include "domain/domain.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

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

DomainOptions make_options(double box, int leaf_size) {
  DomainOptions opt;
  opt.box = box;
  opt.leaf_size = leaf_size;
  return opt;
}

TEST(DomainOptionsValidation, RejectsBadKnobsLoudly) {
  EXPECT_THROW(InteractionDomain(make_options(0.0, 8)), std::invalid_argument);
  EXPECT_THROW(InteractionDomain(make_options(10.0, 0)), std::invalid_argument);
  EXPECT_NO_THROW(InteractionDomain(make_options(10.0, 1)));
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

TEST(DomainUpdate, RebuildsEveryUpdate) {
  auto pos = random_positions(100, 10.0, 30);
  InteractionDomain dom(make_options(10.0, 8));
  dom.update(pos);
  dom.update(pos);  // even unmoved positions rebuild
  dom.update(pos);
  EXPECT_EQ(dom.stats().builds, 3u);
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
