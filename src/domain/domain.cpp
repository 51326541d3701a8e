#include "domain/domain.hpp"

#include <algorithm>
#include <string>
#include <stdexcept>

#include "obs/trace.hpp"

namespace hacc::domain {

using util::Vec3d;

InteractionDomain::InteractionDomain(const DomainOptions& opt) : opt_(opt) {
  if (!(opt_.box > 0.0)) {
    throw std::invalid_argument(
        "InteractionDomain: box must be > 0 (got " + std::to_string(opt_.box) +
        ")");
  }
  if (opt_.leaf_size < 1) {
    throw std::invalid_argument(
        "InteractionDomain: leaf_size must be >= 1 (got " +
        std::to_string(opt_.leaf_size) + ")");
  }
}

const tree::RcbTree& InteractionDomain::checked_tree() const {
  if (tree_ == nullptr) {
    throw std::logic_error(
        "InteractionDomain: update() must install a tree before it is used");
  }
  return *tree_;
}

const tree::RcbTree& InteractionDomain::tree() const { return checked_tree(); }

void InteractionDomain::update(std::span<const Vec3d> pos,
                               std::size_t n_first) {
  if (n_first > pos.size()) {
    throw std::invalid_argument(
        "InteractionDomain::update(): n_first exceeds the particle count");
  }
  const obs::TraceSpan span("domain.build");
  tree_ = opt_.pool != nullptr
              ? std::make_unique<tree::RcbTree>(pos, opt_.box, opt_.leaf_size,
                                                *opt_.pool)
              : std::make_unique<tree::RcbTree>(pos, opt_.box, opt_.leaf_size);
  n_ = pos.size();
  n_first_ = n_first;

  const auto& leaves = tree_->leaves();
  order_all_ = tree_->order();
  order_local_.resize(order_all_.size());
  leaves_first_ = leaves;
  leaves_second_ = leaves;
  const auto split = static_cast<std::int32_t>(n_first);
  for (std::size_t l = 0; l < leaves.size(); ++l) {
    const auto begin = order_all_.begin() + leaves[l].begin;
    const auto end = order_all_.begin() + leaves[l].end;
    const auto mid = std::stable_partition(
        begin, end, [split](std::int32_t i) { return i < split; });
    const auto mid_slot = static_cast<std::int32_t>(mid - order_all_.begin());
    leaves_first_[l].end = mid_slot;
    leaves_second_[l].begin = mid_slot;
  }
  for (std::size_t s = 0; s < order_all_.size(); ++s) {
    const std::int32_t i = order_all_[s];
    order_local_[s] = i < split ? i : i - split;
  }
  ++stats_.builds;
}

SpeciesView InteractionDomain::all() const {
  const auto& t = checked_tree();
  return {t.leaves().data(), order_all_.data(), t.leaves().size()};
}

SpeciesView InteractionDomain::first() const {
  checked_tree();
  return {leaves_first_.data(), order_local_.data(), leaves_first_.size()};
}

SpeciesView InteractionDomain::second() const {
  checked_tree();
  return {leaves_second_.data(), order_local_.data(), leaves_second_.size()};
}

std::vector<tree::LeafPair> InteractionDomain::pairs(double cutoff) const {
  return checked_tree().interacting_pairs(cutoff);
}

}  // namespace hacc::domain
