#include "sph/corrections.hpp"

#include <algorithm>

#include "sph/states.hpp"
#include "xsycl/atomic.hpp"

namespace hacc::sph {

namespace {

using core::crk_idx::dB;
using core::crk_idx::kA;
using core::crk_idx::kB;
using core::crk_idx::kdA;

// Flattens CrkMoments into the 40-float per-particle layout of mom_idx.
void flatten_moments(const CrkMoments<float>& m, float out[core::mom_idx::kCount]) {
  namespace mi = core::mom_idx;
  out[mi::kM0] = m.m0;
  for (int a = 0; a < 3; ++a) out[mi::kM1 + a] = m.m1[a];
  out[mi::m2(0)] = m.m2.xx;
  out[mi::m2(1)] = m.m2.xy;
  out[mi::m2(2)] = m.m2.xz;
  out[mi::m2(3)] = m.m2.yy;
  out[mi::m2(4)] = m.m2.yz;
  out[mi::m2(5)] = m.m2.zz;
  for (int g = 0; g < 3; ++g) out[mi::kDM0 + g] = m.dm0[g];
  for (int a = 0; a < 3; ++a) {
    for (int g = 0; g < 3; ++g) out[mi::dm1(a, g)] = m.dm1[a][g];
  }
  for (int c = 0; c < 6; ++c) {
    for (int g = 0; g < 3; ++g) out[mi::dm2(c, g)] = m.dm2[c][g];
  }
}

// Loads the flat layout into double-precision moments for the solve.
CrkMoments<double> unflatten_moments(const float* in) {
  namespace mi = core::mom_idx;
  CrkMoments<double> m;
  m.m0 = in[mi::kM0];
  for (int a = 0; a < 3; ++a) m.m1[a] = in[mi::kM1 + a];
  m.m2.xx = in[mi::m2(0)];
  m.m2.xy = in[mi::m2(1)];
  m.m2.xz = in[mi::m2(2)];
  m.m2.yy = in[mi::m2(3)];
  m.m2.yz = in[mi::m2(4)];
  m.m2.zz = in[mi::m2(5)];
  for (int g = 0; g < 3; ++g) m.dm0[g] = in[mi::kDM0 + g];
  for (int a = 0; a < 3; ++a) {
    for (int g = 0; g < 3; ++g) m.dm1[a][g] = in[mi::dm1(a, g)];
  }
  for (int c = 0; c < 6; ++c) {
    for (int g = 0; g < 3; ++g) m.dm2[c][g] = in[mi::dm2(c, g)];
  }
  return m;
}

struct CorrectionsTraits {
  using State = CorState;
  struct Accum {
    float m[core::mom_idx::kCount] = {};
    Accum& operator+=(const Accum& o) {
      for (int k = 0; k < core::mom_idx::kCount; ++k) m[k] += o.m[k];
      return *this;
    }
  };
  static constexpr int kAccumWords = core::mom_idx::kCount;

  const core::ParticleSet* p;
  float* moments_out;
  float box;

  State load(std::int32_t i) const { return load_cor_state(*p, i); }

  float reach2(const State& s) const { return support2(s.h); }

  Accum interact(const State& own, const State& other) const {
    CrkMoments<float> m;
    corrections_term(m, to_side(own), to_side(other), box);
    Accum a;
    flatten_moments(m, a.m);
    return a;
  }

  void commit(xsycl::SubGroup& sg, std::int32_t idx, const Accum& a) const {
    float* base = moments_out + static_cast<std::size_t>(core::mom_idx::kCount) * idx;
    for (int k = 0; k < core::mom_idx::kCount; ++k) {
      xsycl::atomic_ref<float> ref(base[k], sg.counters());
      ref.fetch_add(a.m[k]);
    }
  }
};

}  // namespace

xsycl::LaunchStats run_corrections(xsycl::Queue& q, core::ParticleSet& p,
                                   const domain::SpeciesView& view,
                                   const domain::PairSource& pairs,
                                   const HydroOptions& opt,
                                   const std::string& timer_name) {
  std::fill(p.moments.begin(), p.moments.end(), 0.f);

  CorrectionsTraits traits{&p, p.moments.data(), opt.box};
  const auto stats = launch_pairs(q, timer_name, traits, view, pairs, opt);

  // Finalize: self contribution + double-precision moment solve per particle.
  auto* moments = p.moments.data();
  auto* crk = p.crk.data();
  auto* h = p.h.data();
  auto* V = p.V.data();
  launch_particles(
      q, timer_name, p.size(),
      [moments, crk, h, V](std::int32_t i) {
        CrkMoments<double> m =
            unflatten_moments(moments + core::mom_idx::kCount * static_cast<std::size_t>(i));
        corrections_self(m, double(V[i]), double(h[i]));
        const CrkCoeffs<double> c = solve_crk(m);
        float* out = crk + core::crk_idx::kCount * static_cast<std::size_t>(i);
        out[kA] = float(c.A);
        for (int a = 0; a < 3; ++a) out[kB + a] = float(c.B[a]);
        for (int g = 0; g < 3; ++g) out[kdA + g] = float(c.dA[g]);
        for (int r = 0; r < 3; ++r) {
          for (int g = 0; g < 3; ++g) out[dB(r, g)] = float(c.dB[r][g]);
        }
      },
      opt);
  return stats;
}

}  // namespace hacc::sph
