#include "sph/energy.hpp"

#include <algorithm>

#include "sph/states.hpp"
#include "xsycl/atomic.hpp"

namespace hacc::sph {

namespace {

struct EnergyTraits {
  using State = HydroState;
  struct Accum {
    float du = 0.f;
    Accum& operator+=(const Accum& o) {
      du += o.du;
      return *this;
    }
  };
  static constexpr int kAccumWords = 1;

  const core::ParticleSet* p;
  float* du_out;
  float box;
  ViscosityParams<float> visc;

  State load(std::int32_t i) const { return load_hydro_state(*p, i); }

  float reach2(const State& s) const { return support2(s.h); }

  Accum interact(const State& own, const State& other) const {
    return {energy_term(to_side(own), to_side(other), box, visc)};
  }

  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& a) const {
    xsycl::atomic_ref<float>(du_out[idx], sg.counters()).fetch_add(a.du);
  }
};

}  // namespace

xsycl::LaunchStats run_energy(xsycl::Queue& q, core::ParticleSet& p,
                              const domain::SpeciesView& view,
                              const domain::PairSource& pairs,
                              const HydroOptions& opt, const std::string& timer_name) {
  std::fill(p.du.begin(), p.du.end(), 0.f);
  EnergyTraits traits{&p, p.du.data(), opt.box, opt.visc};
  return pairs::launch(q, timer_name, traits, view, pairs, opt.variant,
                       opt.launch);
}

}  // namespace hacc::sph
