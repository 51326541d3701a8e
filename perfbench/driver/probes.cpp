#include "probes.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "fmm/fmm.hpp"
#include "gravity/pp_short.hpp"
#include "sph/acceleration.hpp"
#include "sph/corrections.hpp"
#include "sph/energy.hpp"
#include "sph/extras.hpp"
#include "sph/geometry.hpp"
#include "sph/kernel.hpp"
#include "sph/pipeline.hpp"

namespace perfbench {

namespace core = hacc::core;
namespace domain = hacc::domain;
namespace gravity = hacc::gravity;

namespace {

// Targets of the P-P accuracy subsample.
constexpr std::size_t kAccuracySample = 2048;

gravity::GravityArrays arrays_of(std::vector<float>& x, std::vector<float>& y,
                                 std::vector<float>& z, std::vector<float>& m,
                                 std::vector<float>& ax, std::vector<float>& ay,
                                 std::vector<float>& az) {
  return {x.data(), y.data(), z.data(), m.data(),
          ax.data(), ay.data(), az.data(), x.size()};
}

hacc::sph::HydroOptions hydro_options(const core::SimConfig& cfg,
                                      hacc::xsycl::CommVariant v) {
  hacc::sph::HydroOptions opt;
  opt.box = static_cast<float>(cfg.box);
  opt.variant = v;
  opt.launch.sub_group_size = cfg.sub_group_size;
  opt.launch.sg_per_wg = cfg.sg_per_wg;
  return opt;
}

}  // namespace

LayerProbe::LayerProbe(const core::SimConfig& cfg, hacc::util::ThreadPool& pool,
                       SpanRecorder& spans)
    : cfg_(cfg), pool_(&pool), spans_(&spans), queue_(pool) {
  // The same force split core::Solver builds from the configuration.
  if (cfg_.gravity_backend == core::GravityBackend::kFmm) {
    poly_ = std::make_unique<gravity::PolyShortForce>(
        gravity::PolyShortForce::newtonian(cfg_.box));
  } else {
    gravity::PmOptions pm_opt;
    pm_opt.grid_n = cfg_.pm_grid;
    pm_opt.box = cfg_.box;
    pm_opt.r_split = cfg_.r_split_cells * cfg_.box / cfg_.pm_grid;
    pm_opt.gradient = cfg_.pm_gradient;
    pm_ = std::make_unique<gravity::PmSolver>(pm_opt, pool);
    poly_ = std::make_unique<gravity::PolyShortForce>(
        pm_opt.r_split, cfg_.pp_cut_factor * pm_opt.r_split, cfg_.poly_order);
  }
  domain::DomainOptions dopt;
  dopt.box = cfg_.box;
  dopt.leaf_size = cfg_.leaf_size;
  dopt.pool = pool_;
  domain_ = std::make_unique<domain::InteractionDomain>(dopt);
}

double LayerProbe::g_code(const core::Solver& solver) const {
  return 3.0 * cfg_.cosmo.omega_m / (8.0 * M_PI * solver.scale_factor());
}

gravity::PpOptions LayerProbe::pp_options(double g) const {
  gravity::PpOptions opt;
  opt.box = static_cast<float>(cfg_.box);
  opt.G = static_cast<float>(g);
  opt.softening =
      static_cast<float>(cfg_.softening_cells * cfg_.box / cfg_.pm_grid);
  opt.variant = cfg_.variants.gravity;
  opt.launch.sub_group_size = cfg_.sub_group_size;
  opt.launch.sg_per_wg = cfg_.sg_per_wg;
  return opt;
}

void LayerProbe::assemble(const core::Solver& solver) {
  const std::size_t n = solver.dm().size() + solver.gas().size();
  pos_.clear();
  mass_d_.clear();
  x_.clear();
  y_.clear();
  z_.clear();
  mass_.clear();
  for (const core::ParticleSet* p : {&solver.dm(), &solver.gas()}) {
    for (std::size_t i = 0; i < p->size(); ++i) {
      pos_.push_back(p->pos_of(i));
      mass_d_.push_back(p->mass[i]);
      x_.push_back(p->x[i]);
      y_.push_back(p->y[i]);
      z_.push_back(p->z[i]);
      mass_.push_back(p->mass[i]);
    }
  }
  accel_pm_.assign(n, hacc::util::Vec3d{});
  ax_.assign(n, 0.f);
  ay_.assign(n, 0.f);
  az_.assign(n, 0.f);
}

void LayerProbe::probe_sph(const core::Solver& solver) {
  // A copy of the gas set with the smoothing lengths of the evaluation the
  // step just made, walked through the solver's pair filter: leaf pairs of
  // the combined tree with gas on both sides.
  core::ParticleSet gas = solver.gas();
  const domain::SpeciesView view = domain_->second();
  std::vector<hacc::tree::LeafPair> pairs;
  {
    const ScopedSpan span(spans_, "sph.pairs");
    domain_->for_each_pair(hacc::sph::support_cutoff(gas),
                           [&](const hacc::tree::LeafPair& lp) {
                             if (view.leaves[lp.a].count() == 0 ||
                                 view.leaves[lp.b].count() == 0) {
                               return;
                             }
                             pairs.push_back(lp);
                           });
  }
  const domain::PairSource source(pairs);
  const auto& v = cfg_.variants;
  {
    const ScopedSpan span(spans_, "sph.geometry");
    hacc::sph::run_geometry(queue_, gas, view, source,
                            hydro_options(cfg_, v.geometry));
  }
  {
    const ScopedSpan span(spans_, "sph.corrections");
    hacc::sph::run_corrections(queue_, gas, view, source,
                               hydro_options(cfg_, v.corrections));
  }
  {
    const ScopedSpan span(spans_, "sph.extras");
    hacc::sph::run_extras(queue_, gas, view, source,
                          hydro_options(cfg_, v.extras));
  }
  {
    const ScopedSpan span(spans_, "sph.acceleration");
    hacc::sph::run_acceleration(queue_, gas, view, source,
                                hydro_options(cfg_, v.acceleration),
                                "upBarAcF");
  }
  {
    const ScopedSpan span(spans_, "sph.energy");
    hacc::sph::run_energy(queue_, gas, view, source,
                          hydro_options(cfg_, v.energy), "upBarDuF");
  }
  queue_.clear_history();

  // The kernels' interaction test: 0 < r < kSupport * max(h_i, h_j).
  const std::vector<float>& h = solver.gas().h;
  const PairCount c = count_pairs(
      view, pairs, solver.gas().x.data(), solver.gas().y.data(),
      solver.gas().z.data(), cfg_.box,
      [&h](std::int32_t i, std::int32_t j, double r2) {
        const double s = hacc::sph::kSupport * std::max(h[i], h[j]);
        return r2 > 0.0 && r2 < s * s;
      });
  spans_->count("sph.pairs_tested", static_cast<double>(c.tested));
  spans_->count("sph.pairs_useful", static_cast<double>(c.useful));
}

void LayerProbe::mirror_step(const core::Solver& solver) {
  const ScopedSpan probe(spans_, "probe");
  assemble(solver);
  const double g = g_code(solver);
  const double r_cut = poly_->r_cut();
  {
    const ScopedSpan span(spans_, "domain.rebuild");
    domain_->update(pos_, solver.dm().size());
  }
  spans_->count("domain.leaves",
                static_cast<double>(domain_->tree().leaves().size()));
  std::uint64_t leaf_pairs = 0;
  domain_->for_each_pair(r_cut,
                         [&leaf_pairs](const hacc::tree::LeafPair&) {
                           ++leaf_pairs;
                         });
  spans_->count("domain.leaf_pairs", static_cast<double>(leaf_pairs));

  if (cfg_.hydro && solver.gas().size() > 0) probe_sph(solver);

  if (pm_) {
    const ScopedSpan span(spans_, "gravity.pm");
    pm_->set_gravitational_constant(g);
    pm_->compute_forces(pos_, mass_d_, accel_pm_);
  }

  const gravity::GravityArrays arrays =
      arrays_of(x_, y_, z_, mass_, ax_, ay_, az_);
  std::vector<hacc::tree::LeafPair> pp_pairs;
  if (cfg_.gravity_backend == core::GravityBackend::kPmPp) {
    {
      const ScopedSpan span(spans_, "gravity.pp");
      gravity::run_pp_short(queue_, arrays, domain_->all(),
                            domain_->pairs(r_cut), *poly_, pp_options(g));
    }
    pp_pairs = domain_->interacting_pairs(r_cut);
  } else {
    const bool treepm = cfg_.gravity_backend == core::GravityBackend::kTreePm;
    const double walk_cut =
        treepm ? r_cut : std::numeric_limits<double>::infinity();
    std::optional<hacc::fmm::FmmEvaluator> evaluator;
    hacc::fmm::InteractionLists lists;
    {
      const ScopedSpan span(spans_, "fmm.build");
      evaluator.emplace(domain_->tree(), pos_, mass_d_, *pool_);
      lists = evaluator->build_interactions(cfg_.fmm_theta, walk_cut);
    }
    {
      const ScopedSpan span(spans_, "gravity.pp");
      gravity::run_pp_short(queue_, arrays, domain_->all(), lists.near, *poly_,
                            pp_options(g));
    }
    {
      const ScopedSpan span(spans_, "fmm.far");
      hacc::fmm::FarOptions fopt;
      fopt.box = cfg_.box;
      fopt.G = g;
      fopt.softening =
          static_cast<float>(cfg_.softening_cells * cfg_.box / cfg_.pm_grid);
      fopt.poly = treepm ? poly_.get() : nullptr;
      const auto far = evaluator->evaluate_far(lists, arrays, fopt);
      spans_->count("fmm.m2p", static_cast<double>(far.m2p_ops));
    }
    pp_pairs = std::move(lists.near);
  }
  queue_.clear_history();
  const PairCount c = count_pairs_within(domain_->all(), pp_pairs, x_.data(),
                                         y_.data(), z_.data(), cfg_.box, r_cut);
  spans_->count("gravity.pp_pairs_tested", static_cast<double>(c.tested));
  spans_->count("gravity.pp_pairs_useful", static_cast<double>(c.useful));
}

void LayerProbe::parts(const core::Solver& solver) {
  const ScopedSpan parts(spans_, "probe.parts");
  assemble(solver);
  if (pm_) {
    const int n = cfg_.pm_grid;
    hacc::mesh::CicDepositor depositor(*pool_);
    hacc::mesh::GridD grid(n);
    const hacc::fft::Fft3D fft(n, *pool_);
    std::vector<hacc::fft::cplx> half;
    std::vector<double> real(fft.size());
    // One untimed pass first, so first-touch allocation stays out of the
    // figures, as it does for the solver's persistent workspace.
    for (const bool timed : {false, true}) {
      grid.fill(0.0);
      {
        const ScopedSpan span(timed ? spans_ : nullptr, "mesh.cic_deposit");
        depositor.deposit(grid, pos_, mass_d_, cfg_.box);
      }
      {
        const ScopedSpan span(timed ? spans_ : nullptr, "fft.r2c");
        fft.forward_r2c(grid.data(), half);
      }
      {
        const ScopedSpan span(timed ? spans_ : nullptr, "fft.c2r");
        fft.inverse_c2r(half, real);
      }
    }
    // One r2c plus one c2r, each reading its input and writing its output
    // once: bytes computed from array sizes, not measured.
    const double bytes = 2.0 * (static_cast<double>(fft.size()) * sizeof(double) +
                                static_cast<double>(fft.half_size()) *
                                    sizeof(hacc::fft::cplx));
    spans_->count("fft.bytes_computed", bytes);
  }

  // P-P accuracy: run_pp_short against the direct-sum reference on every
  // k-th particle, sources and targets alike.
  const ScopedSpan span(spans_, "gravity.pp_accuracy");
  const std::size_t stride = std::max<std::size_t>(1, x_.size() / kAccuracySample);
  std::vector<float> x, y, z, m;
  std::vector<hacc::util::Vec3d> pos;
  for (std::size_t i = 0; i < x_.size(); i += stride) {
    x.push_back(x_[i]);
    y.push_back(y_[i]);
    z.push_back(z_[i]);
    m.push_back(mass_[i]);
    pos.push_back(pos_[i]);
  }
  const std::size_t n = x.size();
  std::vector<float> ax(n, 0.f), ay(n, 0.f), az(n, 0.f);
  std::vector<float> rx(n, 0.f), ry(n, 0.f), rz(n, 0.f);
  domain::DomainOptions dopt;
  dopt.box = cfg_.box;
  dopt.leaf_size = cfg_.leaf_size;
  dopt.pool = pool_;
  domain::InteractionDomain sub(dopt);
  sub.update(pos);
  const double g = g_code(solver);
  const gravity::PpOptions opt = pp_options(g);
  gravity::run_pp_short(queue_, arrays_of(x, y, z, m, ax, ay, az), sub.all(),
                        sub.pairs(poly_->r_cut()), *poly_, opt);
  queue_.clear_history();
  gravity::reference_pp_short(arrays_of(x, y, z, m, rx, ry, rz), *poly_,
                              opt.box, opt.G, opt.softening);
  double err2 = 0.0, ref2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = double(ax[i]) - rx[i];
    const double dy = double(ay[i]) - ry[i];
    const double dz = double(az[i]) - rz[i];
    err2 += dx * dx + dy * dy + dz * dz;
    ref2 += double(rx[i]) * rx[i] + double(ry[i]) * ry[i] +
            double(rz[i]) * rz[i];
  }
  spans_->count("gravity.pp_force_rel_rms",
                ref2 > 0.0 ? std::sqrt(err2 / ref2) : 0.0);
}

}  // namespace perfbench
