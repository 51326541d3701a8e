#include "sph/pipeline.hpp"

#include <algorithm>

namespace hacc::sph {

double support_cutoff(const core::ParticleSet& p) {
  float h_max = 0.f;
  for (const float h : p.h) h_max = std::max(h_max, h);
  return kSupport * static_cast<double>(h_max);
}

Pipeline build_pipeline(const core::ParticleSet& p, const PipelineOptions& opt) {
  Pipeline pipe;
  domain::DomainOptions dopt;
  dopt.box = opt.hydro.box;
  dopt.leaf_size = opt.leaf_size;
  dopt.skin = opt.skin;
  dopt.rebuild = opt.rebuild;
  pipe.domain = std::make_unique<domain::InteractionDomain>(dopt);
  update_pipeline(pipe, p);
  return pipe;
}

void update_pipeline(Pipeline& pipe, const core::ParticleSet& p) {
  pipe.cutoff = support_cutoff(p);
  pipe.domain->update(p.positions());
  pipe.pairs = pipe.domain->pairs(pipe.cutoff);
}

void run_hydro_chain(xsycl::Queue& q, core::ParticleSet& p, const Pipeline& pipe,
                     const PipelineOptions& opt) {
  const auto& hydro = opt.hydro;
  const domain::SpeciesView view = pipe.domain->all();
  run_geometry(q, p, view, pipe.pairs, hydro);
  run_corrections(q, p, view, pipe.pairs, hydro);
  run_extras(q, p, view, pipe.pairs, hydro);
  run_acceleration(q, p, view, pipe.pairs, hydro, "upBarAc");
  run_energy(q, p, view, pipe.pairs, hydro, "upBarDu");
  if (opt.corrector_pass) {
    run_acceleration(q, p, view, pipe.pairs, hydro, "upBarAcF");
    run_energy(q, p, view, pipe.pairs, hydro, "upBarDuF");
  }
}

void run_hydro_pipeline(xsycl::Queue& q, core::ParticleSet& p,
                        const PipelineOptions& opt) {
  const Pipeline pipe = build_pipeline(p, opt);
  run_hydro_chain(q, p, pipe, opt);
}

}  // namespace hacc::sph
