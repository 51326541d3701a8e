#pragma once

// Convenience driver running the full five-kernel adiabatic hydro chain in
// the order the solver issues them, with the paper's timer names:
//   upGeo -> upCor -> upBarEx -> upBarAc -> upBarDu  (predictor)
// and optionally upBarAcF -> upBarDuF (the second force evaluation, which is
// why acceleration and energy carry two wall-clock timers in the figures).
//
// The pipeline owns its own domain::InteractionDomain.  The solver's hot
// path shares one domain across SPH and gravity instead (core::Solver); this
// standalone pipeline serves the tools, tests, and workload profiles.

#include <memory>

#include "domain/domain.hpp"
#include "sph/acceleration.hpp"
#include "sph/corrections.hpp"
#include "sph/energy.hpp"
#include "sph/extras.hpp"
#include "sph/geometry.hpp"

namespace hacc::sph {

struct PipelineOptions {
  HydroOptions hydro;
  int leaf_size = 32;
  bool corrector_pass = false;  // re-run acceleration/energy as upBarAcF/upBarDuF
};

struct Pipeline {
  std::unique_ptr<domain::InteractionDomain> domain;
  std::vector<tree::LeafPair> pairs;  // materialized list (tools/tests)
  double cutoff = 0.0;

  const tree::RcbTree& tree() const { return domain->tree(); }
};

// The pair-list cutoff of a particle set: the kernel support radius at the
// largest smoothing length.  Shared by the standalone pipeline and the
// solver so the two cannot drift apart.
double support_cutoff(const core::ParticleSet& p);

// Builds the interaction domain and leaf-pair list for the current particle
// positions and smoothing lengths.
Pipeline build_pipeline(const core::ParticleSet& p, const PipelineOptions& opt);

// Runs the kernel chain on a prepared pipeline.
void run_hydro_chain(xsycl::Queue& q, core::ParticleSet& p, const Pipeline& pipe,
                     const PipelineOptions& opt);

// One-shot helper: build + run.
void run_hydro_pipeline(xsycl::Queue& q, core::ParticleSet& p,
                        const PipelineOptions& opt);

}  // namespace hacc::sph
