#pragma once

/// \file
/// The interaction-domain subsystem: single owner of all neighbor machinery
/// on the force hot path.  One `InteractionDomain` performs at most ONE tree
/// build per force evaluation over the combined (dark matter + baryon)
/// particle gather, exposes species-filtered views of that shared tree so
/// the five SPH kernels and the short-range gravity kernel consume the same
/// spatial decomposition, and supports Verlet-skin reuse across force
/// evaluations: with `rebuild = displacement` the tree (and its gather
/// permutation) is kept while no particle has drifted more than `skin / 2`
/// since the last build — drifted positions are simply re-binned into the
/// existing leaves by refreshing every AABB, which keeps pair enumeration
/// (and therefore forces) exact.
///
/// Pair enumeration is one visitor walk per force evaluation and cutoff:
/// `pairs()` materializes it into the leaf-pair list every pair kernel of
/// that evaluation reads (`PairSource` is a view of such a list).  The
/// drivers that run the kernels over it live in `src/pairs/`.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "tree/rcb.hpp"
#include "util/vec3.hpp"

namespace hacc::util {
class ThreadPool;
}  // namespace hacc::util

namespace hacc::domain {

/// When the shared tree is rebuilt:
///   - `kAlways`       — a fresh tree per force evaluation (the historical
///                       behavior; the safe default).
///   - `kDisplacement` — classic Verlet-skin reuse: rebuild only when the
///                       max minimum-image drift since the last build
///                       exceeds `skin / 2`; otherwise re-bin in place.
enum class RebuildPolicy { kAlways, kDisplacement };

/// The config-key spelling of a policy ("always" | "displacement").
const char* to_string(RebuildPolicy policy);

/// Parses "always" | "displacement"; returns false (out untouched) for
/// unknown names — same contract as core::parse_gravity_backend.
bool parse_rebuild_policy(const std::string& name, RebuildPolicy& out);

/// Construction knobs.  Validated loudly: the constructor throws
/// std::invalid_argument on box <= 0, leaf_size < 1, or skin < 0.
struct DomainOptions {
  double box = 1.0;    ///< periodic box (code length units)
  int leaf_size = 32;  ///< RCB leaf capacity
  double skin = 0.0;   ///< Verlet skin; reuse while max drift <= skin / 2
  RebuildPolicy rebuild = RebuildPolicy::kAlways;
  /// When set, tree builds/refreshes run level-parallel on this pool
  /// (bit-identical to the serial path for any thread count — see
  /// tree/rcb.hpp).  Must outlive the domain.
  util::ThreadPool* pool = nullptr;
};

/// Lifetime counters, exposed so solvers can report per-step tree work.
struct DomainStats {
  std::uint64_t builds = 0;    ///< full tree (re)builds
  std::uint64_t reuses = 0;    ///< refresh-only updates (Verlet reuse)
  double last_max_drift = 0.0; ///< max drift measured at the last update
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
/// the box/leaf/skin knobs, then call update() exactly once per force
/// evaluation with the combined position gather; views and pair lists
/// describe the tree of the last update().
class InteractionDomain {
 public:
  explicit InteractionDomain(const DomainOptions& opt);

  /// Ensures the tree covers `pos` (species A occupying indices
  /// [0, n_first), species B the rest).  Rebuilds when the policy demands it
  /// — always, on any shape change, when the max minimum-image drift since
  /// the last build exceeds skin / 2, or when a particle crossed the
  /// periodic boundary (a wrapped raw coordinate would inflate its
  /// re-binned leaf AABB to nearly the whole box) — and otherwise re-bins
  /// the drifted positions into the existing leaves.  Returns true when a
  /// full rebuild happened.
  bool update(std::span<const util::Vec3d> pos, std::size_t n_first = 0);

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
  struct Drift {
    double max = 0.0;     // max minimum-image displacement since last build
    bool wrapped = false; // some particle crossed the periodic boundary
  };

  void rebuild(std::span<const util::Vec3d> pos, std::size_t n_first);
  // Scans for the max minimum-image drift vs ref_pos_, returning early once
  // the verdict is forced (a wrap, or the drift exceeding `threshold`) — so
  // Drift::max is a lower bound when the early exit fires.
  Drift measure_drift(std::span<const util::Vec3d> pos, double threshold) const;
  const tree::RcbTree& checked_tree() const;

  DomainOptions opt_;
  DomainStats stats_;
  std::unique_ptr<tree::RcbTree> tree_;
  std::size_t n_ = 0;
  std::size_t n_first_ = 0;
  // Positions at the last rebuild; kept only under the displacement policy
  // (kAlways never measures drift).
  std::vector<util::Vec3d> ref_pos_;
  // Species partition of the tree order: within every leaf, species-A slots
  // precede species-B slots.  order_all_ keeps combined indices;
  // order_local_ maps each slot to its species-local index.
  std::vector<std::int32_t> order_all_;
  std::vector<std::int32_t> order_local_;
  std::vector<tree::Leaf> leaves_first_;
  std::vector<tree::Leaf> leaves_second_;
};

}  // namespace hacc::domain
