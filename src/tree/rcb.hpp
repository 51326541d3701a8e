#pragma once

// Recursive Coordinate Bisection tree (HACC's data structure for the
// short-range solvers, §3.1).  Particles are recursively split along the
// longest axis at the median until leaves hold at most leaf_size particles;
// the resulting permutation groups each leaf contiguously, which is what
// the half-warp algorithm's leaf-pair tiles consume.
//
// Periodic boundaries are handled with minimum-image distances between
// leaf bounding boxes when enumerating interacting leaf pairs.
//
// Construction optionally takes a util::ThreadPool and then builds the
// median splits level-parallel.  The parallel build is bit-identical to the
// serial one for ANY thread count: the tree topology (node indices, leaf
// numbering, slot ranges) depends only on range sizes, every node's AABB
// scan and nth_element run over exactly the range content the serial
// recursion would see (ancestors complete before descendants; siblings own
// disjoint ranges), and nth_element is deterministic for a fixed input.

#include <cstdint>
#include <span>
#include <vector>

#include "util/vec3.hpp"

namespace hacc::util {
class ThreadPool;
}  // namespace hacc::util

namespace hacc::tree {

struct Leaf {
  std::int32_t begin = 0;  // first index into the tree's particle order
  std::int32_t end = 0;    // one past the last index
  util::Vec3d lo;          // axis-aligned bounding box
  util::Vec3d hi;

  std::int32_t count() const { return end - begin; }
};

struct LeafPair {
  std::int32_t a = 0;  // leaf indices; a <= b, with a == b for self pairs
  std::int32_t b = 0;
};

class RcbTree {
 public:
  // Internal binary-tree node.  Children were built after their parent, so a
  // node's index is always smaller than its children's — iterating nodes()
  // in reverse index order visits children before parents (the order an
  // upward multipole pass needs).  Each node covers the contiguous tree-slot
  // range [begin, end); leaves partition the slots in leaf-index order, so
  // the leaves under a node are exactly leaf_of_slot(begin) ...
  // leaf_of_slot(end - 1).
  struct Node {
    util::Vec3d lo, hi;                  // axis-aligned bounding box
    std::int32_t begin = 0, end = 0;     // covered tree-slot range
    std::int32_t left = -1, right = -1;  // children; -1 for leaf nodes
    std::int32_t leaf = -1;              // leaf index when a leaf node

    bool is_leaf() const { return leaf >= 0; }
    std::int32_t count() const { return end - begin; }
  };

  // Builds from positions in [0, box)^3.  leaf_size bounds leaf occupancy.
  RcbTree(std::span<const util::Vec3d> pos, double box, int leaf_size);

  // Level-parallel build on `pool`; bit-identical to the serial constructor
  // for any thread count (see file comment).  The pool is used only during
  // construction.
  RcbTree(std::span<const util::Vec3d> pos, double box, int leaf_size,
          util::ThreadPool& pool);

  double box() const { return box_; }
  int leaf_size() const { return leaf_size_; }

  // Permutation: order()[k] is the original particle index at tree slot k.
  const std::vector<std::int32_t>& order() const { return order_; }
  const std::vector<Leaf>& leaves() const { return leaves_; }
  const std::vector<Node>& nodes() const { return nodes_; }
  std::int32_t root() const { return root_; }  // -1 for an empty tree

  // Leaf index containing tree slot k.
  std::int32_t leaf_of_slot(std::int32_t k) const { return slot_leaf_[k]; }

  // Streamed dual-tree traversal: invokes `visit(LeafPair)` for every leaf
  // pair whose bounding boxes come within `cutoff` of each other under the
  // minimum-image convention (self pairs included).  Pairs are canonical
  // (a <= b) and duplicate-free by construction — the recursion partitions
  // leaf pairs by their deepest common ancestor — and are emitted in
  // traversal order.  This is the hot-path API; interacting_pairs() is the
  // materializing wrapper kept for tests and the FMM interaction builder.
  template <typename Visitor>
  void for_each_pair(double cutoff, Visitor&& visit) const {
    if (root_ < 0) return;
    walk_pairs(root_, root_, cutoff, visit);
  }

  // All interacting leaf pairs, materialized in traversal order.
  std::vector<LeafPair> interacting_pairs(double cutoff) const;

  // Minimum-image distance between two leaf AABBs (0 when overlapping).
  double leaf_distance(std::int32_t a, std::int32_t b) const;

  // Minimum-image distance between two node AABBs (0 when overlapping).
  double node_distance(std::int32_t a, std::int32_t b) const {
    return node_distance(nodes_[a], nodes_[b]);
  }

 private:
  RcbTree(std::span<const util::Vec3d> pos, double box, int leaf_size,
          util::ThreadPool* pool);

  std::int32_t build(std::int32_t begin, std::int32_t end,
                     std::span<const util::Vec3d> pos);
  // Parallel-build phase 0: allocate every node/leaf with the exact indices,
  // slot ranges, and leaf numbering the serial recursion would produce —
  // topology depends only on range sizes, never on the positions.  Records
  // each node's depth for the level scheduler.
  std::int32_t build_topology(std::int32_t begin, std::int32_t end, int depth,
                              std::vector<int>& depths);
  // Parallel-build phase 1: per-level AABB scans and median splits.
  void fill_levels(std::span<const util::Vec3d> pos,
                   const std::vector<int>& depths, util::ThreadPool& pool);
  double node_distance(const Node& a, const Node& b) const;

  template <typename Visitor>
  void walk_pairs(std::int32_t ia, std::int32_t ib, double cutoff,
                  Visitor& visit) const {
    const Node& a = nodes_[ia];
    const Node& b = nodes_[ib];
    if (node_distance(a, b) > cutoff) return;
    const bool a_is_leaf = a.leaf >= 0;
    const bool b_is_leaf = b.leaf >= 0;
    if (a_is_leaf && b_is_leaf) {
      // Leaves are numbered in slot order and the walk only ever pairs an
      // earlier subtree's node on the left, so the pair is already canonical.
      visit(LeafPair{a.leaf, b.leaf});
      return;
    }
    // Descend the larger (non-leaf) node; for self pairs descend both sides.
    if (ia == ib) {
      walk_pairs(a.left, a.left, cutoff, visit);
      walk_pairs(a.right, a.right, cutoff, visit);
      walk_pairs(a.left, a.right, cutoff, visit);
      return;
    }
    const auto span_of = [](const Node& n) {
      return (n.hi.x - n.lo.x) + (n.hi.y - n.lo.y) + (n.hi.z - n.lo.z);
    };
    if (b_is_leaf || (!a_is_leaf && span_of(a) >= span_of(b))) {
      walk_pairs(a.left, ib, cutoff, visit);
      walk_pairs(a.right, ib, cutoff, visit);
    } else {
      walk_pairs(ia, b.left, cutoff, visit);
      walk_pairs(ia, b.right, cutoff, visit);
    }
  }

  double box_;
  int leaf_size_;
  std::vector<std::int32_t> order_;
  std::vector<Leaf> leaves_;
  std::vector<std::int32_t> slot_leaf_;
  std::vector<Node> nodes_;
  std::int32_t root_ = -1;
};

}  // namespace hacc::tree
