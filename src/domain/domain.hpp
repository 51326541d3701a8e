#pragma once

/// \file
/// The interaction-domain subsystem: single owner of all neighbor machinery
/// on the force hot path.  One `InteractionDomain` performs exactly ONE tree
/// build per force evaluation (one per update()) over the combined (dark
/// matter + baryon) particle gather, and exposes species-filtered views of
/// that shared tree so the five SPH kernels and the short-range gravity
/// kernel consume the same spatial decomposition.
///
/// Pair enumeration is one visitor walk per force evaluation and cutoff:
/// `pairs()` materializes it into the leaf-pair list every pair kernel of
/// that evaluation reads (`PairSource` is a view of such a list).  The
/// drivers that run the kernels over it live in `src/pairs/`.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tree/rcb.hpp"
#include "util/vec3.hpp"

namespace hacc::util {
class ThreadPool;
}  // namespace hacc::util

namespace hacc::domain {

/// Construction knobs.  Validated loudly: the constructor throws
/// std::invalid_argument on box <= 0 or leaf_size < 1.
struct DomainOptions {
  double box = 1.0;    ///< periodic box (code length units)
  int leaf_size = 32;  ///< RCB leaf capacity
  /// When set, tree builds run level-parallel on this pool
  /// (bit-identical to the serial path for any thread count — see
  /// tree/rcb.hpp).  Must outlive the domain.
  util::ThreadPool* pool = nullptr;
};

/// Lifetime counters, exposed so solvers can report per-step tree work.
struct DomainStats {
  std::uint64_t builds = 0;  ///< tree builds (one per update())
};

/// A species-filtered window onto the shared tree: per-leaf slot sub-ranges
/// plus the slot -> species-local particle index permutation.  These are
/// exactly the two arrays both pair drivers consume, so a view (not
/// a tree) is what every kernel runner takes.  Implicitly constructible from
/// a bare RcbTree for the single-species / tooling paths.
struct SpeciesView {
  const tree::Leaf* leaves = nullptr;
  const std::int32_t* order = nullptr;
  std::size_t n_leaves = 0;

  SpeciesView() = default;
  SpeciesView(const tree::Leaf* l, const std::int32_t* o, std::size_t n)
      : leaves(l), order(o), n_leaves(n) {}
  // NOLINTNEXTLINE(google-explicit-constructor): whole-tree view on purpose.
  SpeciesView(const tree::RcbTree& t)
      : leaves(t.leaves().data()),
        order(t.order().data()),
        n_leaves(t.leaves().size()) {}
};

/// The leaf pairs one kernel launch reads: a view of a materialized list,
/// canonical (a <= b), duplicate-free and in walk order when it comes from
/// InteractionDomain::pairs().
using PairSource = std::span<const tree::LeafPair>;

/// The shared per-step neighbor structure.  Lifecycle: construct once with
/// the box/leaf knobs, then call update() exactly once per force
/// evaluation with the combined position gather; views and pair lists
/// describe the tree of the last update().
class InteractionDomain {
 public:
  explicit InteractionDomain(const DomainOptions& opt);

  /// Builds the tree over `pos` (species A occupying indices [0, n_first),
  /// species B the rest), replacing the previous one.
  void update(std::span<const util::Vec3d> pos, std::size_t n_first = 0);

  /// True once update() has installed a tree.
  bool ready() const { return tree_ != nullptr; }

  /// The shared tree (throws std::logic_error before the first update()).
  const tree::RcbTree& tree() const;

  const DomainOptions& options() const { return opt_; }
  const DomainStats& stats() const { return stats_; }
  std::size_t size() const { return n_; }
  std::size_t n_first() const { return n_first_; }

  /// Both species, original (combined-gather) indices.
  SpeciesView all() const;
  /// Species A ([0, n_first)), species-local indices.
  SpeciesView first() const;
  /// Species B ([n_first, n)), species-local indices.
  SpeciesView second() const;

  /// The canonical leaf-pair walk at `cutoff` (exact,
  /// duplicate-free; see RcbTree::for_each_pair).
  template <typename Visitor>
  void for_each_pair(double cutoff, Visitor&& visit) const {
    tree().for_each_pair(cutoff, visit);
  }

  /// The canonical leaf pairs at `cutoff`, materialized in walk order.
  std::vector<tree::LeafPair> pairs(double cutoff) const;

  /// Alias of pairs(), kept for perfbench/driver's call sites.
  std::vector<tree::LeafPair> interacting_pairs(double cutoff) const {
    return pairs(cutoff);
  }

 private:
  const tree::RcbTree& checked_tree() const;

  DomainOptions opt_;
  DomainStats stats_;
  std::unique_ptr<tree::RcbTree> tree_;
  std::size_t n_ = 0;
  std::size_t n_first_ = 0;
  // Species partition of the tree order: within every leaf, species-A slots
  // precede species-B slots.  order_all_ keeps combined indices;
  // order_local_ maps each slot to its species-local index.
  std::vector<std::int32_t> order_all_;
  std::vector<std::int32_t> order_local_;
  std::vector<tree::Leaf> leaves_first_;
  std::vector<tree::Leaf> leaves_second_;
};

}  // namespace hacc::domain
