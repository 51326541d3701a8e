#include "sph/acceleration.hpp"

#include <algorithm>

#include "sph/states.hpp"
#include "xsycl/atomic.hpp"

namespace hacc::sph {

namespace {

struct AccelerationTraits {
  using State = HydroState;
  struct Accum {
    float fx = 0.f, fy = 0.f, fz = 0.f;
    float vsig = 0.f;
    Accum& operator+=(const Accum& o) {
      fx += o.fx;
      fy += o.fy;
      fz += o.fz;
      vsig = std::max(vsig, o.vsig);  // signal velocity combines by max
      return *this;
    }
  };
  static constexpr int kAccumWords = 4;

  const core::ParticleSet* p;
  float* ax_out;
  float* ay_out;
  float* az_out;
  float* vsig_out;
  float box;
  ViscosityParams<float> visc;

  State load(std::int32_t i) const { return load_hydro_state(*p, i); }

  float reach2(const State& s) const { return support2(s.h); }

  Accum interact(const State& own, const State& other) const {
    const auto term = accel_term(to_side(own), to_side(other), box, visc);
    return {term.accel.x, term.accel.y, term.accel.z, term.vsig};
  }

  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& a) const {
    xsycl::atomic_ref<float>(ax_out[idx], sg.counters()).fetch_add(a.fx);
    xsycl::atomic_ref<float>(ay_out[idx], sg.counters()).fetch_add(a.fy);
    xsycl::atomic_ref<float>(az_out[idx], sg.counters()).fetch_add(a.fz);
    xsycl::atomic_ref<float>(vsig_out[idx], sg.counters()).fetch_max(a.vsig);
  }
};

}  // namespace

xsycl::LaunchStats run_acceleration(xsycl::Queue& q, core::ParticleSet& p,
                                    const domain::SpeciesView& view,
                                    const domain::PairSource& pairs,
                                    const HydroOptions& opt,
                                    const std::string& timer_name) {
  std::fill(p.ax.begin(), p.ax.end(), 0.f);
  std::fill(p.ay.begin(), p.ay.end(), 0.f);
  std::fill(p.az.begin(), p.az.end(), 0.f);
  std::fill(p.vsig.begin(), p.vsig.end(), 0.f);

  AccelerationTraits traits{&p,       p.ax.data(), p.ay.data(), p.az.data(),
                            p.vsig.data(), opt.box,     opt.visc};
  return launch_pairs(q, timer_name, traits, view, pairs, opt);
}

}  // namespace hacc::sph
