// hacc_perfbench: the benchmark driver behind perfbench/run.py.
//
//   hacc_perfbench run --workload W --seed N --seconds S --trace 0|1
//                      --workdir DIR --out FILE
//       Repeats the workload until S seconds have passed and writes every
//       repetition's timings, final-state checks and (traced) spans and
//       counters to FILE as one JSON document.
//   hacc_perfbench reference --workload W --seed N --workdir DIR
//       Runs the workload through run::ScenarioRunner on one thread and
//       prints its final state summary (the correctness reference).
//   hacc_perfbench self-test [--seed N] --workdir DIR
//       Useful-pair counting against a brute-force count, and drive parity:
//       at one thread the benchmark's drive must end bit-identical to
//       ScenarioRunner::run for every workload.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "drive.hpp"
#include "json.hpp"
#include "probes.hpp"
#include "run/step_controller.hpp"
#include "util/rng.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace {

namespace core = hacc::core;
using perfbench::Json;

struct Args {
  std::string mode;
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;
  std::string out;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "hacc_perfbench: %s\n"
               "usage: hacc_perfbench run|reference|self-test --workload W "
               "--seed N --seconds S --trace 0|1 --workdir DIR --out FILE\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = v == "1";
      } else if (flag == "--workdir") {
        a.workdir = v;
      } else if (flag == "--out") {
        a.out = v;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (a.workdir.empty()) usage("--workdir is required");
  return a;
}

const perfbench::Workload& workload_or_die(const std::string& name) {
  const perfbench::Workload* w = perfbench::find_workload(name);
  if (w == nullptr) usage(("unknown workload '" + name + "'").c_str());
  return *w;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned k = 0; k < 3; ++k) {
      __get_cpuid(0x80000002u + k, &regs[4 * k], &regs[4 * k + 1],
                  &regs[4 * k + 2], &regs[4 * k + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

void write_provenance(Json& j, unsigned pool) {
  const unsigned cores = perfbench::available_cores();
  j.key("provenance").begin_object();
  j.field("nproc", cores);
  j.field("hardware_threads", std::thread::hardware_concurrency());
  j.field("pool", pool);
  j.field("oversubscribed", pool > cores);
  j.field("cpu_model", cpu_model());
  j.field("l2_bytes", static_cast<std::int64_t>(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  j.field("l3_bytes", static_cast<std::int64_t>(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  j.field("build_type", PERFBENCH_BUILD_TYPE);
  j.field("compiler", PERFBENCH_COMPILER);
  j.end_object();
}

// Final-state summary shared by the measured run and the reference.
void write_state(Json& j, const core::Solver& solver) {
  const core::Solver::Diagnostics d = solver.diagnostics();
  j.field("steps", solver.steps_taken());
  j.field("a", solver.scale_factor());
  j.field("z", solver.redshift());
  j.field("kinetic_energy", d.kinetic_energy);
  j.field("thermal_energy", d.thermal_energy);
  j.field("total_mass", d.total_mass);
  j.key("momentum").begin_array();
  for (const double p : d.momentum) j.value(p);
  j.end_array();
}

bool finite_and_in_box(const core::ParticleSet& p, double box) {
  const float fbox = static_cast<float>(box);
  for (std::size_t i = 0; i < p.size(); ++i) {
    for (const float c : {p.x[i], p.y[i], p.z[i]}) {
      if (!(c >= 0.f && c < fbox)) return false;
    }
    for (const float v : {p.vx[i], p.vy[i], p.vz[i], p.u[i]}) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

// The checks a repetition must pass on its own; comparisons against the
// one-thread reference happen in run.py.
std::map<std::string, bool> self_checks(const perfbench::Preset& preset,
                                        const perfbench::DriveResult& r) {
  const core::Solver& s = *r.solver;
  const hacc::run::StepController controller(preset.sim, preset.run.stepping);
  std::map<std::string, bool> c;
  c["reached_z_final"] =
      std::abs(s.scale_factor() - controller.a_final()) <=
      1e-9 * controller.a_final();
  c["step_count"] =
      !r.hit_max_steps &&
      (preset.run.stepping.mode != hacc::run::StepMode::kFixed ||
       s.steps_taken() == preset.sim.n_steps);
  c["finite_in_box"] = finite_and_in_box(s.dm(), preset.sim.box) &&
                       finite_and_in_box(s.gas(), preset.sim.box);
  // The momentum contract of tests/core/test_solver.cpp: Zel'dovich ICs
  // carry no net momentum and the forces conserve it pair-wise.
  const core::Solver::Diagnostics d = s.diagnostics();
  const double v_rms = std::sqrt(2.0 * d.kinetic_energy / d.total_mass);
  bool momentum = std::isfinite(v_rms);
  for (const double p : d.momentum) {
    momentum = momentum && std::abs(p) < 0.05 * d.total_mass * v_rms;
  }
  c["momentum"] = momentum;
  bool ckpt = true;
  for (const auto& k : r.checkpoints) {
    ckpt = ckpt && k.written && k.validated && k.read_back && k.identical;
  }
  c["checkpoints_round_trip"] = ckpt;
  return c;
}

double peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss);  // kilobytes on Linux
}

void write_spans(Json& j, const perfbench::SpanRecorder& rec) {
  j.key("spans").begin_array();
  for (const perfbench::Span& s : rec.spans()) {
    j.begin_array().value(s.name).value(s.t0).value(s.t1).value(s.parent)
        .value(s.run).end_array();
  }
  j.end_array();
  j.field("spans_lost", rec.lost());
  j.key("counters").begin_array();
  for (const perfbench::Counter& c : rec.counters()) {
    j.begin_array().value(c.name).value(c.value).value(c.run).end_array();
  }
  j.end_array();
}

// Untraced runs take the median of at least three repetitions, so one
// repetition hit by a burst of load on the host cannot set the figure.
constexpr int kMinReps = 3;
constexpr int kMinExtraSetups = 2;
constexpr int kMaxExtraSetups = 10;
constexpr double kExtraSetupSeconds = 2.0;

int cmd_run(const Args& a) {
  const perfbench::Workload& w = workload_or_die(a.workload);
  if (a.out.empty()) usage("--out is required");
  const unsigned pool_n = perfbench::pool_size(w);
  hacc::util::ThreadPool pool(pool_n);
  const perfbench::Preset preset =
      perfbench::make_preset(w, a.seed, a.workdir + "/ckpt");
  // Spans of every repetition fit with room to spare (a traced repetition
  // records ~20 spans per step); overflow is reported, not hidden.
  perfbench::SpanRecorder spans(1u << 16);

  Json j;
  j.begin_object();
  j.field("workload", w.name);
  j.field("seed", a.seed);
  j.field("trace", a.trace);
  write_provenance(j, pool_n);

  const double t_start = perfbench::now_s();
  std::vector<double> setups;
  double peak_rss = 0.0;

  // Traced runs alternate untraced and traced repetitions, so the step
  // wall with and without tracing comes from the same process.
  std::unique_ptr<perfbench::LayerProbe> probe;
  if (a.trace) probe = std::make_unique<perfbench::LayerProbe>(preset.sim, pool, spans);
  j.key("reps").begin_array();
  bool any_traced = false;
  for (int rep = 0;; ++rep) {
    const bool traced = a.trace && rep % 2 == 1;
    spans.set_run(rep);
    perfbench::StepHook hook;
    if (traced) {
      hook = [&probe](const core::Solver& s) { probe->mirror_step(s); };
    }
    perfbench::DriveResult r =
        perfbench::drive(preset, pool, traced ? &spans : nullptr, hook);
    if (traced) probe->parts(*r.solver);
    any_traced = any_traced || traced;

    j.begin_object();
    j.field("rep", rep);
    j.field("traced", traced);
    j.field("setup_s", r.setup_s);
    j.field("solution_s", r.solution_s);
    j.field("particles", static_cast<std::uint64_t>(r.solver->dm().size() +
                                                    r.solver->gas().size()));
    j.array("step_wall_s", r.step_wall_s);
    std::vector<double> pm, sr, ov;
    for (const auto& s : r.stats) {
      pm.push_back(s.pm_seconds);
      sr.push_back(s.short_range_seconds);
      ov.push_back(s.overlap_seconds);
    }
    j.array("sched_pm_s", pm);
    j.array("sched_short_range_s", sr);
    j.array("sched_overlap_s", ov);
    j.key("final").begin_object();
    write_state(j, *r.solver);
    j.end_object();
    j.key("halos").begin_array();
    for (const auto& h : r.halos) {
      j.begin_object().field("step", h.step).field("z", h.z)
          .field("n_halos", h.n_halos).field("largest", h.largest).end_object();
    }
    j.end_array();
    j.key("checkpoints").begin_array();
    for (const auto& k : r.checkpoints) {
      j.begin_object().field("step", k.step).field("bytes", k.bytes)
          .field("identical", k.identical).field("detail", k.detail)
          .end_object();
    }
    j.end_array();
    j.key("checks").begin_object();
    for (const auto& [name, ok] : self_checks(preset, r)) j.field(name, ok);
    j.end_object();
    j.end_object();

    if (rep == 0) {
      // Peak memory of one complete solution: later repetitions reallocate
      // and can only add allocator fragmentation.
      peak_rss = peak_rss_kb();
      // Extra set-ups: set-up time is reported as the median over these
      // and every repetition's own set-up.  Cheap set-ups get more samples.
      double spent = 0.0;
      for (int k = 0; !a.trace && k < kMaxExtraSetups &&
                      (k < kMinExtraSetups || spent < kExtraSetupSeconds);
           ++k) {
        const double t0 = perfbench::now_s();
        core::Solver solver(preset.sim, pool);
        solver.initialize();
        setups.push_back(perfbench::now_s() - t0);
        spent += setups.back();
      }
    }
    const double elapsed = perfbench::now_s() - t_start;
    const bool enough = a.trace ? any_traced : rep + 1 >= kMinReps;
    if (elapsed >= a.seconds && enough) break;
  }
  j.end_array();
  j.array("extra_setup_s", setups);
  write_spans(j, spans);
  j.field("peak_rss_kb", peak_rss);
  j.end_object();

  std::ofstream out(a.out);
  out << j.str() << '\n';
  return out.good() ? 0 : 1;
}

int cmd_reference(const Args& a) {
  const perfbench::Workload& w = workload_or_die(a.workload);
  hacc::util::ThreadPool pool(1);
  const perfbench::Preset preset =
      perfbench::make_preset(w, a.seed, a.workdir + "/ref.ckpt");
  Json j;
  j.begin_object();
  j.field("workload", w.name);
  j.field("seed", a.seed);
  perfbench::run_scenario(
      preset, pool,
      [&j](const hacc::run::RunResult& r, const core::Solver& s) {
        write_state(j, s);
        j.field("checkpoints", r.checkpoints_written);
        j.field("checkpoint_failures", r.checkpoint_failures);
        j.field("hit_max_steps", r.hit_max_steps);
        j.key("halos").begin_array();
        for (const auto& o : r.outputs) j.value(o.n_halos);
        j.end_array();
      });
  j.end_object();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ---- self-test -------------------------------------------------------------

int g_failures = 0;

void report(bool ok, const std::string& name, const std::string& detail = {}) {
  std::printf("%s %s%s%s\n", ok ? "PASS" : "FAIL", name.c_str(),
              detail.empty() ? "" : ": ", detail.c_str());
  if (!ok) ++g_failures;
}

// Useful-pair counting over the tree's leaf pairs must equal a brute-force
// minimum-image count over all particle pairs.
void test_pair_counting() {
  const double box = 1.0;
  const int side = 8;
  for (const bool jitter : {false, true}) {
    std::vector<hacc::util::Vec3d> pos;
    std::vector<float> x, y, z;
    std::uint64_t state = 12345;
    for (int i = 0; i < side; ++i) {
      for (int k = 0; k < side; ++k) {
        for (int l = 0; l < side; ++l) {
          hacc::util::Vec3d p{(i + 0.5) / side, (k + 0.5) / side,
                              (l + 0.5) / side};
          if (jitter) {
            for (double* c : {&p.x, &p.y, &p.z}) {
              state = hacc::util::splitmix64(state);
              *c += 0.4 / side * ((state >> 11) * 0x1.0p-53 - 0.5);
            }
          }
          pos.push_back(p);
          x.push_back(static_cast<float>(p.x));
          y.push_back(static_cast<float>(p.y));
          z.push_back(static_cast<float>(p.z));
        }
      }
    }
    for (const double cutoff : {0.13, 0.3}) {
      hacc::domain::DomainOptions opt;
      opt.box = box;
      opt.leaf_size = 8;
      hacc::domain::InteractionDomain dom(opt);
      dom.update(pos);
      const auto pairs = dom.interacting_pairs(cutoff);
      const perfbench::PairCount c = perfbench::count_pairs_within(
          dom.all(), pairs, x.data(), y.data(), z.data(), box, cutoff);
      std::uint64_t brute = 0;
      for (std::size_t i = 0; i < pos.size(); ++i) {
        for (std::size_t k = i + 1; k < pos.size(); ++k) {
          double r2 = 0.0;
          for (const double d : {double(x[i]) - x[k], double(y[i]) - y[k],
                                 double(z[i]) - z[k]}) {
            const double m = d - box * std::round(d / box);
            r2 += m * m;
          }
          if (r2 < cutoff * cutoff) ++brute;
        }
      }
      const std::string name = std::string("pair_count ") +
                               (jitter ? "jittered" : "lattice") + " cutoff " +
                               std::to_string(cutoff);
      report(c.useful == brute && c.tested >= c.useful && brute > 0, name,
             "counted " + std::to_string(c.useful) + " of " +
                 std::to_string(c.tested) + ", brute force " +
                 std::to_string(brute));
    }
  }
}

// At one thread every kernel is deterministic, so the benchmark's drive
// must reproduce ScenarioRunner::run bit for bit.
void test_drive_parity(const Args& a) {
  for (const perfbench::Workload& w : perfbench::workloads()) {
    hacc::util::ThreadPool pool(1);
    const perfbench::Preset ref_preset =
        perfbench::make_preset(w, a.seed, a.workdir + "/parity-ref");
    core::ParticleSet dm, gas;
    double a_ref = 0.0;
    int steps_ref = 0, ckpts_ref = 0;
    std::vector<std::int32_t> halos_ref;
    perfbench::run_scenario(
        ref_preset, pool,
        [&](const hacc::run::RunResult& r, const core::Solver& s) {
          dm = s.dm();
          gas = s.gas();
          a_ref = s.scale_factor();
          steps_ref = s.steps_taken();
          ckpts_ref = r.checkpoints_written;
          for (const auto& o : r.outputs) halos_ref.push_back(o.n_halos);
        });
    const perfbench::Preset preset =
        perfbench::make_preset(w, a.seed, a.workdir + "/parity-drive");
    const perfbench::DriveResult r = perfbench::drive(preset, pool);
    std::vector<std::int32_t> halos;
    for (const auto& h : r.halos) halos.push_back(h.n_halos);
    const bool same_state = perfbench::same_particles(dm, r.solver->dm()) &&
                            perfbench::same_particles(gas, r.solver->gas());
    const bool same_run = a_ref == r.solver->scale_factor() &&
                          steps_ref == r.solver->steps_taken() &&
                          halos_ref == halos &&
                          ckpts_ref == static_cast<int>(r.checkpoints.size());
    report(same_state && same_run, "drive_parity " + w.name,
           std::to_string(steps_ref) + " steps, " +
               std::to_string(halos_ref.size()) + " halo outputs, " +
               std::to_string(ckpts_ref) + " checkpoints" +
               (same_state ? "" : ", particle state differs") +
               (same_run ? "" : ", run record differs"));
  }
}

int cmd_self_test(const Args& a) {
  test_pair_counting();
  test_drive_parity(a);
  std::printf("%d failure(s)\n", g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  std::error_code ec;
  std::filesystem::create_directories(a.workdir, ec);
  try {
    if (a.mode == "run") return cmd_run(a);
    if (a.mode == "reference") return cmd_reference(a);
    if (a.mode == "self-test") return cmd_self_test(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hacc_perfbench: %s\n", e.what());
    return 1;
  }
  usage(("unknown mode '" + a.mode + "'").c_str());
}
