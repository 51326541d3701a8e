#pragma once

// The native pair driver: the production path of the six pair kernels
// (geometry, corrections, extras, acceleration, energy and short-range
// gravity) on a CPU host.  The half-warp harness in sph/half_warp.hpp
// emulates a GPU sub-group lane by lane for the portability study; this
// driver specializes the loop for the host instead — the paper's recipe of
// a target-specific loop around shared physics — while every kernel's
// Traits::interact stays the single physics source.
//
// Owner computes.  The pair source is materialized once into a CSR of
// partner leaves per leaf (pair (a, b) listed under a and under b, a self
// pair once, in walk order), and one launch runs one sub-group index per
// leaf.  A leaf loads its own states once, streams each partner leaf
// through a tile (states plus SoA positions), evaluates interact(own,
// other) for every pair that survives the cutoff prefilter and commits each
// particle's sum exactly once.  Every output slot therefore takes a single
// write of a sum taken in a canonical order: the result does not depend on
// the schedule or on the thread count.
//
// The prefilter is exact.  Traits::reach2(s) bounds the squared separation
// beyond which interact returns exactly zero; a pair whose minimum-image
// r² exceeds the larger reach of its two sides, widened by a margin that
// covers float rounding, can be skipped without changing one bit.  Per
// leaf pair the driver derives one periodic shift from the tiles' bounding
// boxes and uses it in a vectorizable r² loop only when a guard proves it
// is the minimum image of every pair (there, a particle out of reach of the
// partner's whole box skips it); otherwise it falls back to a per-pair
// minimum image.
//
// The Traits contract is listed in sph/half_warp.hpp.

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "domain/domain.hpp"
#include "tree/rcb.hpp"
#include "util/vec3.hpp"
#include "xsycl/queue.hpp"

namespace hacc::sph {

// Partner leaves of every leaf in compressed-row form, in walk order.
struct LeafPartners {
  std::vector<std::int32_t> offsets;   // n_leaves + 1 row starts
  std::vector<std::int32_t> partners;  // partner leaf indices

  static LeafPartners build(std::size_t n_leaves, const domain::PairSource& pairs) {
    std::vector<tree::LeafPair> list;
    pairs.for_each_batch([&list](std::span<const tree::LeafPair> batch) {
      list.insert(list.end(), batch.begin(), batch.end());
    });
    LeafPartners out;
    out.offsets.assign(n_leaves + 1, 0);
    for (const tree::LeafPair& lp : list) {
      ++out.offsets[lp.a + 1];
      if (lp.b != lp.a) ++out.offsets[lp.b + 1];
    }
    for (std::size_t l = 0; l < n_leaves; ++l) out.offsets[l + 1] += out.offsets[l];
    out.partners.resize(out.offsets[n_leaves]);
    std::vector<std::int32_t> next(out.offsets.begin(), out.offsets.end() - 1);
    for (const tree::LeafPair& lp : list) {
      out.partners[next[lp.a]++] = lp.b;
      if (lp.b != lp.a) out.partners[next[lp.b]++] = lp.a;
    }
    return out;
  }
};

namespace native_detail {
inline std::atomic<bool> prefilter{true};
}  // namespace native_detail

// While an instance lives, native launches skip the prefilter and hand
// every pair of the listed leaves to interact: the unfiltered pass the
// exactness tests compare the production pass against bit for bit.
class ScopedUnfilteredNativePairs {
 public:
  ScopedUnfilteredNativePairs() { native_detail::prefilter.store(false); }
  ~ScopedUnfilteredNativePairs() { native_detail::prefilter.store(true); }
  ScopedUnfilteredNativePairs(const ScopedUnfilteredNativePairs&) = delete;
  ScopedUnfilteredNativePairs& operator=(const ScopedUnfilteredNativePairs&) = delete;
};

template <typename Traits>
class NativePairKernel {
 public:
  using State = typename Traits::State;
  using Accum = typename Traits::Accum;

  NativePairKernel(std::string name, const Traits& traits,
                   const domain::SpeciesView& view, const LeafPartners& csr,
                   bool prefilter)
      : name_(std::move(name)),
        traits_(traits),
        view_(view),
        csr_(&csr),
        prefilter_(prefilter) {}

  std::string name() const { return name_; }
  std::size_t local_bytes_per_sg(int) const { return 0; }

  void operator()(xsycl::SubGroup& sg) const {
    const auto a = static_cast<std::int32_t>(sg.index());
    const std::int32_t k0 = csr_->offsets[a];
    const std::int32_t k1 = csr_->offsets[a + 1];
    if (k0 == k1 || view_.leaves[a].count() == 0) return;

    Tile own;
    load(own, view_.leaves[a]);
    std::vector<float> own_reach(own.size());
    for (std::size_t i = 0; i < own.size(); ++i) {
      own_reach[i] = std::sqrt(traits_.reach2(own.states[i]));
    }
    std::vector<Accum> acc(own.size());
    std::vector<float> r2;
    std::vector<std::uint32_t> hits;
    Tile other;
    std::uint64_t calls = 0;

    for (std::int32_t k = k0; k < k1; ++k) {
      const std::int32_t b = csr_->partners[k];
      if (b != a) {
        if (view_.leaves[b].count() == 0) continue;
        load(other, view_.leaves[b]);
      }
      Tile& tile = b == a ? own : other;
      // Rounding slack: both r² paths and interact's own minimum image err
      // by a few ulps of the coordinate magnitude.
      const float slack = 64.f * FLT_EPSILON * magnitude(own, tile);
      const bool shifted = prefilter_ && shift_into_image(own, tile);
      r2.resize(tile.size());
      hits.resize(tile.size());
      // Unfiltered, every member of the tile is a candidate.
      if (!prefilter_) std::iota(hits.begin(), hits.end(), 0u);
      for (std::size_t i = 0; i < own.size(); ++i) {
        const std::size_t n_hits =
            prefilter_ ? within_reach(own, i, own_reach[i], tile, shifted, slack,
                                      r2.data(), hits.data())
                       : tile.size();
        const State& mine = own.states[i];
        for (std::size_t h = 0; h < n_hits; ++h) {
          const State& them = tile.states[hits[h]];
          if (them.idx == mine.idx) continue;
          acc[i] += traits_.interact(mine, them);
          ++calls;
        }
      }
    }
    sg.counters().interactions += calls;

    // One commit per particle into its own slot.  The commits run through
    // a throwaway counter block: the emulation counters (atomics, loads)
    // describe the study harness, not this driver.
    xsycl::OpCounters discarded;
    xsycl::SubGroup quiet(sg.size(), sg.index(), {}, discarded);
    for (std::size_t i = 0; i < own.size(); ++i) {
      traits_.commit(quiet, own.states[i].idx, acc[i]);
    }
  }

 private:
  struct Tile {
    std::vector<State> states;
    std::vector<float> x, y, z;  // SoA positions; a partner's may be shifted
    float lo[3] = {}, hi[3] = {};
    float max_reach = 0.f;

    std::size_t size() const { return states.size(); }
  };

  void load(Tile& t, const tree::Leaf& leaf) const {
    const auto n = static_cast<std::size_t>(leaf.count());
    t.states.resize(n);
    t.x.resize(n);
    t.y.resize(n);
    t.z.resize(n);
    float reach2 = 0.f;
    for (std::size_t s = 0; s < n; ++s) {
      const State st = traits_.load(view_.order[leaf.begin + s]);
      t.states[s] = st;
      t.x[s] = st.px;
      t.y[s] = st.py;
      t.z[s] = st.pz;
      reach2 = std::max(reach2, traits_.reach2(st));
    }
    t.max_reach = std::sqrt(reach2);
    const auto box_of = [](const std::vector<float>& v, float& lo, float& hi) {
      const auto [min, max] = std::minmax_element(v.begin(), v.end());
      lo = *min;
      hi = *max;
    };
    box_of(t.x, t.lo[0], t.hi[0]);
    box_of(t.y, t.lo[1], t.hi[1]);
    box_of(t.z, t.lo[2], t.hi[2]);
  }

  float magnitude(const Tile& a, const Tile& b) const {
    float m = std::fabs(traits_.box);
    for (int c = 0; c < 3; ++c) {
      m = std::max({m, std::fabs(a.lo[c]), std::fabs(a.hi[c]), std::fabs(b.lo[c]),
                    std::fabs(b.hi[c])});
    }
    return m;
  }

  // Picks the periodic image of `t` nearest to `own` from the box centers
  // and shifts t's SoA positions into it — but only when the shift is the
  // minimum image of every pair: on each axis, every separation
  // own − t − shift lies strictly inside ±box/2.  Returns false (t left
  // as loaded) when it cannot prove that.
  bool shift_into_image(const Tile& own, Tile& t) const {
    const double box = traits_.box;
    double shift[3];
    for (int c = 0; c < 3; ++c) {
      const double centers =
          0.5 * ((double(own.lo[c]) + own.hi[c]) - (double(t.lo[c]) + t.hi[c]));
      shift[c] = box * std::round(centers / box);
      const double low = double(own.lo[c]) - t.hi[c] - shift[c];
      const double high = double(own.hi[c]) - t.lo[c] - shift[c];
      if (!(low > -0.5 * box && high < 0.5 * box)) return false;
    }
    std::vector<float>* const axes[3] = {&t.x, &t.y, &t.z};
    for (int c = 0; c < 3; ++c) {
      if (shift[c] == 0.0) continue;
      const auto s = static_cast<float>(shift[c]);
      for (float& v : *axes[c]) v += s;
      // Rounding is monotonic, so the shifted extremes stay the extremes.
      t.lo[c] += s;
      t.hi[c] += s;
    }
    return true;
  }

  // Squared distance from own particle i to the box of t, computed with
  // the same float operations as its r² to each member of t — so it never
  // exceeds any of them.
  static float box_distance2(const Tile& own, std::size_t i, const Tile& t) {
    const float p[3] = {own.x[i], own.y[i], own.z[i]};
    float d[3];
    for (int c = 0; c < 3; ++c) {
      d[c] = p[c] < t.lo[c] ? t.lo[c] - p[c] : (p[c] > t.hi[c] ? p[c] - t.hi[c] : 0.f);
    }
    return d[0] * d[0] + d[1] * d[1] + d[2] * d[2];
  }

  // Writes the indices of the members of t that own particle i may reach
  // to hits and returns their count.  Every pair left out is at least the
  // larger reach of its two sides apart, so interact would return zero.
  std::size_t within_reach(const Tile& own, std::size_t i, float own_reach,
                           const Tile& t, bool shifted, float slack, float* r2,
                           std::uint32_t* hits) const {
    const float cut = std::max(own_reach, t.max_reach) * (1.f + 1e-5f) + slack;
    const float cut2 = cut * cut;
    if (shifted) {
      // The whole tile is out of reach when its box is.
      if (box_distance2(own, i, t) > cut2) return 0;
      distances_shifted(own, i, t, r2);
    } else {
      distances_min_image(own, i, t, r2);
    }
    std::size_t n = 0;
    for (std::size_t j = 0; j < t.size(); ++j) {
      hits[n] = static_cast<std::uint32_t>(j);
      n += r2[j] <= cut2 ? 1 : 0;
    }
    return n;
  }

  static void distances_shifted(const Tile& own, std::size_t i, const Tile& t,
                                float* r2) {
    const float xi = own.x[i], yi = own.y[i], zi = own.z[i];
    const float* tx = t.x.data();
    const float* ty = t.y.data();
    const float* tz = t.z.data();
    const std::size_t n = t.size();
    for (std::size_t j = 0; j < n; ++j) {
      const float dx = xi - tx[j];
      const float dy = yi - ty[j];
      const float dz = zi - tz[j];
      r2[j] = dx * dx + dy * dy + dz * dz;
    }
  }

  void distances_min_image(const Tile& own, std::size_t i, const Tile& t,
                           float* r2) const {
    const float box = traits_.box;
    for (std::size_t j = 0; j < t.size(); ++j) {
      float dx = own.x[i] - t.x[j];
      float dy = own.y[i] - t.y[j];
      float dz = own.z[i] - t.z[j];
      dx -= box * util::round_image(dx / box);
      dy -= box * util::round_image(dy / box);
      dz -= box * util::round_image(dz / box);
      r2[j] = dx * dx + dy * dy + dz * dz;
    }
  }

  std::string name_;
  Traits traits_;
  domain::SpeciesView view_;
  const LeafPartners* csr_;
  bool prefilter_;
};

// Runs one native launch over the pair source: one sub-group index per leaf
// of the view, so the launch history, the per-kernel cascade and the
// xsycl.<kernel> trace spans see one launch per call.
template <typename Traits>
xsycl::LaunchStats launch_native(xsycl::Queue& q, const std::string& name,
                                 const Traits& traits,
                                 const domain::SpeciesView& view,
                                 const domain::PairSource& pairs,
                                 const xsycl::LaunchConfig& launch) {
  const LeafPartners csr = LeafPartners::build(view.n_leaves, pairs);
  const NativePairKernel<Traits> kernel(name, traits, view, csr,
                                        native_detail::prefilter.load());
  // One leaf per work-group: leaves differ widely in work, and the queue
  // hands out work-groups in chunks, so small groups balance the workers.
  xsycl::LaunchConfig cfg = launch;
  cfg.sg_per_wg = 1;
  return q.submit(kernel, view.n_leaves, cfg);
}

}  // namespace hacc::sph
