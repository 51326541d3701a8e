#pragma once

// Per-layer probes of the traced run.  After each step the probe repeats
// the layers of one force evaluation on copies of the solver's state —
// tree build, the five SPH kernels, PM, the fmm passes and the short-range
// P-P kernel — through the same public calls core::Solver makes, each under
// its own span.  Once per repetition it also times the PM internals
// (CIC deposit, r2c and c2r transforms) stand-alone and measures the P-P
// kernel's accuracy against the direct-sum reference.

#include <cstdint>
#include <memory>
#include <span>

#include "core/solver.hpp"
#include "domain/domain.hpp"
#include "fft/fft.hpp"
#include "gravity/pm.hpp"
#include "gravity/poisson.hpp"
#include "mesh/cic.hpp"
#include "spans.hpp"
#include "xsycl/queue.hpp"

namespace perfbench {

/// Candidate particle pairs a pair kernel walks over a set of leaf pairs,
/// and how many of them interact.  A leaf pair (a, b) contributes
/// n_a * n_b candidates, a self pair (a, a) n_a * (n_a - 1) / 2: each
/// unordered pair of distinct particles once.
struct PairCount {
  std::uint64_t tested = 0;
  std::uint64_t useful = 0;
};

/// Counts over `pairs` of `view`; `interacts(i, j, r2)` decides a pair of
/// view-local indices at squared minimum-image distance r2 (positions from
/// x, y, z indexed like the view's order).
template <typename Interacts>
PairCount count_pairs(const hacc::domain::SpeciesView& view,
                      std::span<const hacc::tree::LeafPair> pairs,
                      const float* x, const float* y, const float* z,
                      double box, Interacts&& interacts) {
  const auto wrap = [box](double d) {
    if (d > 0.5 * box) return d - box;
    if (d < -0.5 * box) return d + box;
    return d;
  };
  PairCount c;
  for (const hacc::tree::LeafPair& lp : pairs) {
    const hacc::tree::Leaf& la = view.leaves[lp.a];
    const hacc::tree::Leaf& lb = view.leaves[lp.b];
    for (std::int32_t s = la.begin; s < la.end; ++s) {
      const std::int32_t i = view.order[s];
      for (std::int32_t t = lp.a == lp.b ? s + 1 : lb.begin; t < lb.end; ++t) {
        const std::int32_t j = view.order[t];
        const double dx = wrap(double(x[i]) - x[j]);
        const double dy = wrap(double(y[i]) - y[j]);
        const double dz = wrap(double(z[i]) - z[j]);
        ++c.tested;
        if (interacts(i, j, dx * dx + dy * dy + dz * dz)) ++c.useful;
      }
    }
  }
  return c;
}

/// Pairs inside a fixed cutoff (the short-range gravity criterion).
inline PairCount count_pairs_within(
    const hacc::domain::SpeciesView& view,
    std::span<const hacc::tree::LeafPair> pairs, const float* x,
    const float* y, const float* z, double box, double cutoff) {
  const double c2 = cutoff * cutoff;
  return count_pairs(view, pairs, x, y, z, box,
                     [c2](std::int32_t, std::int32_t, double r2) {
                       return r2 > 0.0 && r2 < c2;
                     });
}

class LayerProbe {
 public:
  LayerProbe(const hacc::core::SimConfig& cfg, hacc::util::ThreadPool& pool,
             SpanRecorder& spans);

  /// Repeats one force evaluation's layers on the solver's current state,
  /// under a `probe` span whose children are the layer spans.
  void mirror_step(const hacc::core::Solver& solver);

  /// Stand-alone PM internals and P-P accuracy, under a `probe.parts` span.
  void parts(const hacc::core::Solver& solver);

 private:
  void assemble(const hacc::core::Solver& solver);
  hacc::gravity::PpOptions pp_options(double g_code) const;
  double g_code(const hacc::core::Solver& solver) const;
  void probe_sph(const hacc::core::Solver& solver);

  hacc::core::SimConfig cfg_;
  hacc::util::ThreadPool* pool_;
  SpanRecorder* spans_;
  hacc::xsycl::Queue queue_;
  std::unique_ptr<hacc::gravity::PolyShortForce> poly_;
  std::unique_ptr<hacc::gravity::PmSolver> pm_;
  std::unique_ptr<hacc::domain::InteractionDomain> domain_;

  // Combined-species (dm then gas) copies, laid out like the solver's.
  std::vector<hacc::util::Vec3d> pos_;
  std::vector<double> mass_d_;
  std::vector<hacc::util::Vec3d> accel_pm_;
  std::vector<float> x_, y_, z_, mass_, ax_, ay_, az_;
};

}  // namespace perfbench
