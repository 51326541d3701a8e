#include "sph/extras.hpp"

#include <algorithm>

#include "sph/states.hpp"
#include "xsycl/atomic.hpp"

namespace hacc::sph {

namespace {

struct ExtrasTraits {
  using State = HydroState;
  struct Accum {
    float rho = 0.f;
    float dv[9] = {};
    Accum& operator+=(const Accum& o) {
      rho += o.rho;
      for (int k = 0; k < 9; ++k) dv[k] += o.dv[k];
      return *this;
    }
  };
  static constexpr int kAccumWords = 10;

  const core::ParticleSet* p;
  float* rho_out;
  float* dvel_out;
  float box;

  // load_extras_state, not load_hydro_state: rho_out aliases p->rho, so a
  // plain load of p->rho here would race the atomic commits below.
  State load(std::int32_t i) const { return load_extras_state(*p, i); }

  float reach2(const State& s) const { return support2(s.h); }

  Accum interact(const State& own, const State& other) const {
    const auto term = extras_term(to_side(own), to_side(other), box);
    Accum a;
    a.rho = term.rho;
    for (int r = 0; r < 3; ++r) {
      for (int c = 0; c < 3; ++c) a.dv[3 * r + c] = term.dv[r][c];
    }
    return a;
  }

  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& a) const {
    xsycl::atomic_ref<float> rho_ref(rho_out[idx], sg.counters());
    rho_ref.fetch_add(a.rho);
    float* dv = dvel_out + 9 * static_cast<std::size_t>(idx);
    for (int k = 0; k < 9; ++k) {
      xsycl::atomic_ref<float> ref(dv[k], sg.counters());
      ref.fetch_add(a.dv[k]);
    }
  }
};

}  // namespace

xsycl::LaunchStats run_extras(xsycl::Queue& q, core::ParticleSet& p,
                              const domain::SpeciesView& view,
                              const domain::PairSource& pairs,
                              const HydroOptions& opt, const std::string& timer_name) {
  std::fill(p.rho.begin(), p.rho.end(), 0.f);
  std::fill(p.dvel.begin(), p.dvel.end(), 0.f);

  ExtrasTraits traits{&p, p.rho.data(), p.dvel.data(), opt.box};
  const auto stats = pairs::launch(q, timer_name, traits, view, pairs,
                                   opt.variant, opt.launch);

  // Finalize: self density term + equation of state.
  auto* rho = p.rho.data();
  auto* mass = p.mass.data();
  auto* h = p.h.data();
  auto* crk = p.crk.data();
  auto* u = p.u.data();
  auto* P = p.P.data();
  auto* cs = p.cs.data();
  launch_particles(
      q, timer_name, p.size(),
      [rho, mass, h, crk, u, P, cs](std::int32_t i) {
        const float A = crk[core::crk_idx::kCount * static_cast<std::size_t>(i) +
                            core::crk_idx::kA];
        rho[i] += mass[i] * A * kernel_self(h[i]);
        P[i] = eos_pressure(rho[i], u[i]);
        cs[i] = eos_sound_speed(rho[i], P[i]);
      },
      opt);
  return stats;
}

}  // namespace hacc::sph
