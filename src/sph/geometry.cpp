#include "sph/geometry.hpp"

#include <algorithm>

#include "sph/states.hpp"
#include "xsycl/atomic.hpp"

namespace hacc::sph {

namespace {

struct GeometryTraits {
  using State = GeoState;
  struct Accum {
    float m0 = 0.f;
    Accum& operator+=(const Accum& o) {
      m0 += o.m0;
      return *this;
    }
  };
  static constexpr int kAccumWords = 1;

  const core::ParticleSet* p;
  float* m0_out;
  float box;

  State load(std::int32_t i) const { return load_geo_state(*p, i); }

  float reach2(const State& s) const { return support2(s.h); }

  Accum interact(const State& own, const State& other) const {
    return {geometry_term(to_side(own), to_side(other), box)};
  }

  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& a) const {
    xsycl::atomic_ref<float> ref(m0_out[idx], sg.counters());
    ref.fetch_add(a.m0);
  }
};

}  // namespace

xsycl::LaunchStats run_geometry(xsycl::Queue& q, core::ParticleSet& p,
                                const domain::SpeciesView& view,
                                const domain::PairSource& pairs,
                                const HydroOptions& opt, const std::string& timer_name) {
  std::fill(p.m0.begin(), p.m0.end(), 0.f);

  GeometryTraits traits{&p, p.m0.data(), opt.box};
  const auto stats = launch_pairs(q, timer_name, traits, view, pairs, opt);

  // Finalize: add the self contribution and invert to a volume.
  auto* m0 = p.m0.data();
  auto* h = p.h.data();
  auto* V = p.V.data();
  launch_particles(
      q, timer_name, p.size(),
      [m0, h, V](std::int32_t i) {
        const float total = m0[i] + kernel_self(h[i]);
        m0[i] = total;
        V[i] = total > 0.f ? 1.f / total : 0.f;
      },
      opt);
  return stats;
}

}  // namespace hacc::sph
