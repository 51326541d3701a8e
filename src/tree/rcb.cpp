#include "tree/rcb.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/thread_pool.hpp"

namespace hacc::tree {

using util::Vec3d;

namespace {

// AABB of the slots [begin, end) under the tree permutation — the exact loop
// the serial build runs, factored out so the level-parallel pass produces
// bit-identical boxes.
void scan_aabb(std::span<const Vec3d> pos, const std::vector<std::int32_t>& order,
               std::int32_t begin, std::int32_t end, Vec3d& lo, Vec3d& hi) {
  lo = Vec3d(std::numeric_limits<double>::max());
  hi = Vec3d(std::numeric_limits<double>::lowest());
  for (std::int32_t k = begin; k < end; ++k) {
    const Vec3d& p = pos[order[k]];
    for (int a = 0; a < 3; ++a) {
      lo[a] = std::min(lo[a], p[a]);
      hi[a] = std::max(hi[a], p[a]);
    }
  }
}

}  // namespace

RcbTree::RcbTree(std::span<const Vec3d> pos, double box, int leaf_size)
    : RcbTree(pos, box, leaf_size, nullptr) {}

RcbTree::RcbTree(std::span<const Vec3d> pos, double box, int leaf_size,
                 util::ThreadPool& pool)
    : RcbTree(pos, box, leaf_size, &pool) {}

RcbTree::RcbTree(std::span<const Vec3d> pos, double box, int leaf_size,
                 util::ThreadPool* pool)
    : box_(box), leaf_size_(std::max(1, leaf_size)) {
  order_.resize(pos.size());
  std::iota(order_.begin(), order_.end(), 0);
  slot_leaf_.resize(pos.size());
  if (!pos.empty()) {
    if (pool != nullptr) {
      std::vector<int> depths;
      root_ = build_topology(0, static_cast<std::int32_t>(pos.size()), 0, depths);
      fill_levels(pos, depths, *pool);
    } else {
      root_ = build(0, static_cast<std::int32_t>(pos.size()), pos);
    }
  }
}

std::int32_t RcbTree::build_topology(std::int32_t begin, std::int32_t end,
                                     int depth, std::vector<int>& depths) {
  // Mirrors build()'s index assignment exactly: pre-order node numbering,
  // leaves numbered in slot order, children pushed after their parent.  No
  // positions are read — the split point is always the median slot.
  Node node;
  node.begin = begin;
  node.end = end;
  const std::int32_t self = static_cast<std::int32_t>(nodes_.size());
  if (end - begin <= leaf_size_) {
    Leaf leaf;
    leaf.begin = begin;
    leaf.end = end;
    node.leaf = static_cast<std::int32_t>(leaves_.size());
    leaves_.push_back(leaf);
    for (std::int32_t k = begin; k < end; ++k) slot_leaf_[k] = node.leaf;
    nodes_.push_back(node);
    depths.push_back(depth);
    return self;
  }
  nodes_.push_back(node);
  depths.push_back(depth);
  const std::int32_t mid = begin + (end - begin) / 2;
  const std::int32_t left = build_topology(begin, mid, depth + 1, depths);
  const std::int32_t right = build_topology(mid, end, depth + 1, depths);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

void RcbTree::fill_levels(std::span<const Vec3d> pos,
                          const std::vector<int>& depths,
                          util::ThreadPool& pool) {
  // Bucket node indices by depth, preserving index order within a level.
  int max_depth = 0;
  for (const int d : depths) max_depth = std::max(max_depth, d);
  std::vector<std::vector<std::int32_t>> levels(max_depth + 1);
  for (std::int32_t i = 0; i < static_cast<std::int32_t>(nodes_.size()); ++i) {
    levels[depths[i]].push_back(i);
  }

  // Top-down level sweep.  A node's AABB scan and nth_element need its slot
  // range's content finalized, which happens exactly when every ancestor's
  // nth_element has run — i.e. when all shallower levels are done, which the
  // parallel_for barrier guarantees.  Within a level the slot ranges are
  // pairwise disjoint, so the splits and box writes never race, and each
  // node runs the same deterministic code over the same data as the serial
  // recursion — the result is bit-identical for any thread count.
  for (const auto& level : levels) {
    // shared: nodes_/leaves_/order_ — each iteration owns one node: its own
    // nodes_/leaves_ entries and a slot range disjoint from every other
    // node's on this level.
    pool.parallel_for(static_cast<std::int64_t>(level.size()), [&](std::int64_t li) {
      Node& node = nodes_[level[static_cast<std::size_t>(li)]];
      scan_aabb(pos, order_, node.begin, node.end, node.lo, node.hi);
      if (node.is_leaf()) {
        leaves_[node.leaf].lo = node.lo;
        leaves_[node.leaf].hi = node.hi;
        return;
      }
      // Split along the longest axis at the median slot (strict > keeps the
      // serial build's tie rule: ties pick the lowest axis).
      int axis = 0;
      double extent = node.hi[0] - node.lo[0];
      for (int a = 1; a < 3; ++a) {
        if (node.hi[a] - node.lo[a] > extent) {
          extent = node.hi[a] - node.lo[a];
          axis = a;
        }
      }
      const std::int32_t mid = node.begin + (node.end - node.begin) / 2;
      std::nth_element(order_.begin() + node.begin, order_.begin() + mid,
                       order_.begin() + node.end, [&](std::int32_t i, std::int32_t j) {
                         return pos[i][axis] < pos[j][axis];
                       });
    });
  }
}

std::int32_t RcbTree::build(std::int32_t begin, std::int32_t end,
                            std::span<const Vec3d> pos) {
  Node node;
  node.begin = begin;
  node.end = end;
  node.lo = Vec3d(std::numeric_limits<double>::max());
  node.hi = Vec3d(std::numeric_limits<double>::lowest());
  for (std::int32_t k = begin; k < end; ++k) {
    const Vec3d& p = pos[order_[k]];
    for (int a = 0; a < 3; ++a) {
      node.lo[a] = std::min(node.lo[a], p[a]);
      node.hi[a] = std::max(node.hi[a], p[a]);
    }
  }

  if (end - begin <= leaf_size_) {
    Leaf leaf;
    leaf.begin = begin;
    leaf.end = end;
    leaf.lo = node.lo;
    leaf.hi = node.hi;
    node.leaf = static_cast<std::int32_t>(leaves_.size());
    leaves_.push_back(leaf);
    for (std::int32_t k = begin; k < end; ++k) slot_leaf_[k] = node.leaf;
    nodes_.push_back(node);
    return static_cast<std::int32_t>(nodes_.size()) - 1;
  }

  // Split along the longest axis at the median slot.
  int axis = 0;
  double extent = node.hi[0] - node.lo[0];
  for (int a = 1; a < 3; ++a) {
    if (node.hi[a] - node.lo[a] > extent) {
      extent = node.hi[a] - node.lo[a];
      axis = a;
    }
  }
  const std::int32_t mid = begin + (end - begin) / 2;
  std::nth_element(order_.begin() + begin, order_.begin() + mid, order_.begin() + end,
                   [&](std::int32_t i, std::int32_t j) { return pos[i][axis] < pos[j][axis]; });

  const std::int32_t self = static_cast<std::int32_t>(nodes_.size());
  nodes_.push_back(node);  // placeholder; children filled below
  const std::int32_t left = build(begin, mid, pos);
  const std::int32_t right = build(mid, end, pos);
  nodes_[self].left = left;
  nodes_[self].right = right;
  return self;
}

double RcbTree::node_distance(const Node& a, const Node& b) const {
  double d2 = 0.0;
  for (int axis = 0; axis < 3; ++axis) {
    // Minimum-image gap between intervals [a.lo, a.hi] and [b.lo, b.hi].
    double best = std::numeric_limits<double>::max();
    for (const double shift : {-box_, 0.0, box_}) {
      const double blo = b.lo[axis] + shift;
      const double bhi = b.hi[axis] + shift;
      double gap = 0.0;
      if (blo > a.hi[axis]) {
        gap = blo - a.hi[axis];
      } else if (a.lo[axis] > bhi) {
        gap = a.lo[axis] - bhi;
      }
      best = std::min(best, gap);
    }
    d2 += best * best;
  }
  return std::sqrt(d2);
}

double RcbTree::leaf_distance(std::int32_t a, std::int32_t b) const {
  Node na, nb;
  na.lo = leaves_[a].lo;
  na.hi = leaves_[a].hi;
  nb.lo = leaves_[b].lo;
  nb.hi = leaves_[b].hi;
  return node_distance(na, nb);
}

std::vector<LeafPair> RcbTree::interacting_pairs(double cutoff) const {
  std::vector<LeafPair> pairs;
  for_each_pair(cutoff, [&pairs](const LeafPair& lp) {
    assert(lp.a <= lp.b);
    pairs.push_back(lp);
  });
#ifndef NDEBUG
  // The recursion partitions leaf pairs by their deepest common ancestor, so
  // every unordered pair is visited exactly once and the list is duplicate-
  // free without the historical sort + std::unique pass.
  std::vector<LeafPair> sorted = pairs;
  std::sort(sorted.begin(), sorted.end(), [](const LeafPair& x, const LeafPair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  });
  assert(std::adjacent_find(sorted.begin(), sorted.end(),
                            [](const LeafPair& x, const LeafPair& y) {
                              return x.a == y.a && x.b == y.b;
                            }) == sorted.end());
#endif
  return pairs;
}

}  // namespace hacc::tree
