// hacc_run: the scenario-driven simulation CLI.
//
//   hacc_run [--list] [--config <file>] [--restart <ckpt>|auto]
//            [--trace <out.json>] [key=value ...]
//
//   hacc_run scenario=paper-benchmark                 # the paper's benchmark
//   hacc_run scenario=cosmology-box run.log=box.jsonl # adaptive + checkpoints
//   hacc_run scenario=cosmology-box --restart cosmology-box.ckpt.step8
//   hacc_run scenario=cosmology-box --restart=auto    # newest valid checkpoint
//   hacc_run scenario=paper-benchmark --trace=trace.json  # Perfetto trace
//
// Keys are documented in docs/CONFIG.md; runs stream JSON-lines events to
// run.log and print a human summary here.  --trace records thread-aware
// spans for the whole run and exports Chrome trace_event JSON
// (docs/OBSERVABILITY.md).

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "run/scenario.hpp"
#include "util/config.hpp"
#include "util/thread_pool.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: hacc_run [--list] [--config <file>] [--restart <ckpt>|auto] "
      "[--trace <out.json>] [key=value ...]\n"
      "       scenario=<name> selects a preset (see --list); every other\n"
      "       key=value overrides it; an unknown key is an error.\n"
      "       Keys: docs/CONFIG.md.\n"
      "       --restart auto resumes from the newest checkpoint that passes\n"
      "       full CRC validation, falling back to older ones.\n");
}

// ThreadPool worker-start hook: name each worker's trace lane before it
// records its first span, so exports show "worker-N" instead of the
// registration-order fallback.
void name_worker_lane(unsigned index) {
  hacc::obs::Tracer::global().set_thread_name("worker-" +
                                              std::to_string(index));
}

void print_scenarios() {
  std::printf("scenarios:\n");
  for (const auto& s : hacc::run::scenarios()) {
    std::printf("  %-16s %s\n", s.name.c_str(), s.summary.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  hacc::util::Config cli;
  std::string restart, config_file, trace_path;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      print_scenarios();
      return 0;
    }
    if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
      print_usage();
      print_scenarios();
      return 0;
    }
    if (std::strcmp(arg, "--restart") == 0 || std::strcmp(arg, "--config") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hacc_run: %s needs a file argument\n", arg);
        return 1;
      }
      (std::strcmp(arg, "--restart") == 0 ? restart : config_file) = argv[++i];
      continue;
    }
    if (std::strncmp(arg, "--restart=", 10) == 0) {
      restart = arg + 10;
      continue;
    }
    if (std::strncmp(arg, "--trace=", 8) == 0) {
      trace_path = arg + 8;
      continue;
    }
    if (std::strcmp(arg, "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "hacc_run: --trace needs a file argument\n");
        return 1;
      }
      trace_path = argv[++i];
      continue;
    }
    if (std::strchr(arg, '=') == nullptr) {
      std::fprintf(stderr, "hacc_run: unrecognized argument '%s'\n", arg);
      print_usage();
      return 1;
    }
    cli.apply_overrides(1, &arg);
  }
  // Config file first, CLI key=value pairs overlaid on top: CLI wins.
  if (!config_file.empty()) {
    hacc::util::Config file_then_cli;
    if (!file_then_cli.parse_file(config_file)) {
      std::fprintf(stderr, "hacc_run: %s\n", file_then_cli.error().c_str());
      return 1;
    }
    for (const auto& [k, v] : cli.values()) file_then_cli.set(k, v);
    cli = file_then_cli;
  }

  hacc::run::Scenario scenario;
  const std::string name = cli.get_string("scenario", "paper-benchmark");
  if (!hacc::run::find_scenario(name, scenario)) {
    std::fprintf(stderr, "hacc_run: unknown scenario '%s'\n", name.c_str());
    print_scenarios();
    return 1;
  }
  std::string error;
  if (!hacc::run::apply_config(cli, scenario.sim, scenario.run, error)) {
    std::fprintf(stderr, "hacc_run: %s\n", error.c_str());
    return 1;
  }
  if (!restart.empty()) scenario.run.restart_from = restart;
  if (scenario.run.log_path.empty()) {
    scenario.run.log_path = scenario.name + ".jsonl";
  }
  scenario.run.echo_steps = true;

  // Pool size: `threads=N` overrides HACC_NUM_THREADS; 0 = hardware
  // concurrency.  The env value is validated even when overridden — a
  // garbage HACC_NUM_THREADS is always a loud usage error, never silently
  // masked or a silent serial run.
  unsigned n_threads = 0;
  try {
    n_threads = hacc::util::ThreadPool::parse_thread_count(
        std::getenv("HACC_NUM_THREADS"));  // NOLINT(concurrency-mt-unsafe): single-threaded startup
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "hacc_run: %s\n", e.what());
    return 1;
  }
  n_threads = static_cast<unsigned>(
      cli.get_int("threads", static_cast<long>(n_threads)));
  // Every key has now been read by whoever understands it; anything left is
  // misspelt or retired, and running without it would silently change the run.
  const std::vector<std::string> unknown = cli.unread_keys();
  for (const std::string& key : unknown) {
    std::fprintf(stderr, "hacc_run: unknown key '%s'\n", key.c_str());
  }
  if (!unknown.empty()) return 1;
  // Tracing must be armed BEFORE the pool exists: the worker-start hook
  // names each worker's lane as its thread launches.
  if (!trace_path.empty()) {
    hacc::obs::Tracer::global().set_thread_name("main");
    hacc::util::ThreadPool::set_worker_start_hook(&name_worker_lane);
    hacc::obs::Tracer::global().enable();
  }
  hacc::util::ThreadPool pool(n_threads);
  std::printf("hacc_run: scenario %s (%s)\n", scenario.name.c_str(),
              scenario.summary.c_str());
  std::printf(
      "  2 x %d^3 max particles (hydro %s), box %.1f, z %.0f -> %.0f, "
      "backend %s, %s stepping\n",
      scenario.sim.np_side, scenario.sim.hydro ? "on" : "off",
      scenario.sim.box, scenario.sim.z_init, scenario.sim.z_final,
      hacc::core::to_string(scenario.sim.gravity_backend),
      to_string(scenario.run.stepping.mode));
  if (!scenario.run.restart_from.empty()) {
    std::printf("  restarting from %s\n", scenario.run.restart_from.c_str());
  }

  try {
    hacc::run::ScenarioRunner runner(scenario.sim, scenario.run, pool);
    const auto result = runner.run();
    std::printf(
        "\ndone: %d steps (%d total) to z=%.3f in %.3f s, %d checkpoints, "
        "%zu diagnostic outputs\n",
        result.steps, result.total_steps, result.final_z, result.wall_seconds,
        result.checkpoints_written, result.outputs.size());
    if (result.recovered_from_step >= 0) {
      std::printf("  auto-recovered from checkpoint step %d\n",
                  result.recovered_from_step);
    }
    if (result.checkpoint_failures > 0) {
      std::fprintf(stderr,
                   "hacc_run: %d checkpoint write(s) failed; the run "
                   "continued but may not be restartable\n",
                   result.checkpoint_failures);
    }
    for (const auto& out : result.outputs) {
      std::printf(
          "  output at z=%7.3f: %d halos (largest %d), kernel PP %.3f, "
          "slowest kernel %s\n",
          out.z, out.n_halos, out.largest_halo, out.kernel_pp,
          out.slowest_kernel.c_str());
    }
    std::printf("event log: %s\n", scenario.run.log_path.c_str());
    if (!trace_path.empty()) {
      hacc::obs::Tracer::global().disable();
      const auto stats =
          hacc::obs::Tracer::global().write_chrome_trace(trace_path);
      std::printf("trace: %s (%" PRIu64 " events on %d threads", trace_path.c_str(),
                  stats.events, stats.threads);
      if (stats.dropped > 0) {
        std::printf(", %" PRIu64 " dropped", stats.dropped);
      }
      std::printf(")\n");
    }
    if (result.hit_max_steps) {
      std::fprintf(stderr, "hacc_run: stopped at run.max_steps=%d before "
                   "reaching z_final\n", scenario.run.max_steps);
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hacc_run: %s\n", e.what());
    return 2;
  }
  return 0;
}
