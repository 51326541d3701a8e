#pragma once

/// \file
/// The scenario runner: turns a SimConfig plus run options into a complete
/// end-to-end simulation — IC generation (or checkpoint restart), the
/// stepping loop under a StepController, periodic restart checkpoints, an
/// in-run diagnostics schedule (FoF halo finding + the metrics cascade over
/// per-kernel wall times), and a JSON-lines event log.  This is the layer
/// behind the `hacc_run` CLI; the paper's five-step benchmark is the
/// `paper-benchmark` scenario in fixed mode.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/solver.hpp"
#include "halo/fof.hpp"
#include "obs/metrics.hpp"
#include "run/step_controller.hpp"
#include "xsycl/queue.hpp"

namespace hacc::run {

/// Everything about a run that is not simulation physics: stepping mode,
/// checkpoint cadence, restart source, diagnostics schedule, logging.
struct RunOptions {
  StepControllerOptions stepping;

  /// Safety valve for adaptive runs (fixed mode stops at SimConfig::n_steps).
  int max_steps = 10000;

  /// Checkpoint base path; empty disables all checkpoint writes.  Each
  /// write goes to `<checkpoint_path>.step<N>` so a mid-run checkpoint
  /// survives later ones (the files a restart resumes from).
  std::string checkpoint_path;
  int checkpoint_every = 0;       ///< write every k steps (0 disables periodic)
  bool checkpoint_final = false;  ///< also write after the last step
  /// Double-buffered retention: keep only the newest k on-disk checkpoints,
  /// pruning older ones — but only after the newer write has been verified,
  /// so the count of valid checkpoints never drops below k.  0 keeps all.
  int checkpoint_keep = 0;
  /// A failed or unverifiable checkpoint write normally aborts the run
  /// (std::runtime_error) after logging a durable JSONL `error` event.  With
  /// this set the run logs the same event and keeps stepping — for runs
  /// where losing restartability is preferable to losing the simulation.
  bool checkpoint_continue_on_error = false;
  /// Resume source: empty starts fresh; a path resumes from that checkpoint
  /// (failures throw); the literal "auto" scans
  /// `<checkpoint_path>.step<N>` files, fully validates each candidate
  /// (CRCs + config signature), resumes from the newest valid one, and
  /// starts fresh only when none exist.  Candidates that exist but all fail
  /// validation throw rather than silently recomputing from ICs.
  std::string restart_from;

  /// RunOptions::restart_from value selecting the recovery scan.
  static constexpr const char* kRestartAuto = "auto";

  /// Redshifts at which to run the in-run diagnostics (FoF halos + metrics
  /// cascade); each fires once, when the run first reaches it.
  std::vector<double> outputs_z;
  double fof_b = 0.28;        ///< FoF linking length in mean separations
  int fof_min_members = 8;    ///< smallest reported halo

  std::string log_path;   ///< JSON-lines event stream; empty disables
  bool echo_steps = false;  ///< print a per-step summary line to stdout
};

/// One in-run diagnostics output.
struct OutputRecord {
  int step = 0;
  double a = 0.0;
  double z = 0.0;
  std::int32_t n_halos = 0;
  std::int32_t largest_halo = 0;
  double kernel_pp = 0.0;          ///< PP of the per-kernel efficiency cascade
  std::string slowest_kernel;      ///< worst per-call kernel at this output
};

/// What a completed run did.
struct RunResult {
  int steps = 0;              ///< steps taken by this process (excl. restart)
  int total_steps = 0;        ///< solver step counter (incl. restarted steps)
  double final_a = 0.0;
  double final_z = 0.0;
  double wall_seconds = 0.0;
  int checkpoints_written = 0;
  std::vector<std::string> checkpoint_files;  ///< paths written, in order
  int checkpoint_failures = 0;  ///< failed writes survived (continue-on-error)
  /// Step of the checkpoint `--restart auto` resumed from; -1 when the run
  /// started fresh (no candidates) or restart was not auto.
  int recovered_from_step = -1;
  bool hit_max_steps = false;  ///< adaptive run stopped by RunOptions::max_steps
  std::vector<core::StepStats> history;   ///< per-step stats, in order
  std::vector<OutputRecord> outputs;      ///< diagnostics outputs, in order
};

/// Owns a Solver and drives one scenario end to end.  Single-shot: run()
/// may be called once.  Throws std::runtime_error on restart failures
/// (unreadable checkpoint, configuration mismatch) and propagates solver
/// errors.
class ScenarioRunner {
 public:
  ScenarioRunner(const core::SimConfig& sim, const RunOptions& opt,
                 util::ThreadPool& pool = util::ThreadPool::global());
  ~ScenarioRunner();

  ScenarioRunner(const ScenarioRunner&) = delete;
  ScenarioRunner& operator=(const ScenarioRunner&) = delete;

  /// Executes the scenario: restart or ICs, the stepping loop, checkpoints,
  /// diagnostics, logging.  Returns the run record.
  RunResult run();

  core::Solver& solver() { return solver_; }
  const core::Solver& solver() const { return solver_; }
  const RunOptions& options() const { return opt_; }

 private:
  void open_log();
  /// Appends one JSONL event.  Every line is flushed to the stream;
  /// `durable` additionally fsyncs the file so checkpoint-class events (the
  /// ones a restart recovery depends on) survive a crash of the process
  /// right after the write.
  void log_line(const std::string& json, bool durable = false);
  void start_from_checkpoint_or_ics();
  /// The `--restart auto` scan: validates every `<base>.step<N>` candidate
  /// newest-first and restores the first fully valid one.  Returns the step
  /// recovered from, or -1 for a fresh start; throws when candidates exist
  /// but none validates.
  int recover_latest_checkpoint();
  void log_restart_event(const std::string& file,
                         const core::RunCheckpointMeta& meta);
  void write_checkpoint_file(int step);
  /// Reports one failed/unverifiable checkpoint write: durable JSONL
  /// `error` event + ckpt.failures; throws unless checkpoint_continue_on_error.
  void on_checkpoint_error(int step, const std::string& path,
                           const core::CkptResult& result);
  /// Removes on-disk checkpoints beyond checkpoint_keep (oldest first).
  void prune_checkpoints(int step);
  void run_diagnostics(int step);
  void record_step_metrics(const core::StepStats& stats);

  core::SimConfig sim_;
  RunOptions opt_;
  StepController controller_;
  core::Solver solver_;
  std::FILE* log_ = nullptr;
  std::vector<double> outputs_a_;  // ascending scale factors still pending
  std::size_t next_output_ = 0;
  int last_checkpoint_step_ = -1;
  RunResult result_;
  bool ran_ = false;
  /// On-disk checkpoints this run knows about (pre-existing candidates found
  /// by the auto-restart scan + everything written and verified since),
  /// ascending by step — the retention policy prunes from the front.
  std::vector<std::pair<int, std::string>> live_checkpoints_;

  // Handles into obs::MetricsRegistry::global(), interned at construction
  // (registrations survive the registry reset run() performs).  The runner
  // absorbs per-step stats, kernel-launch op counters, checkpoint costs, and
  // step-controller decisions; the registry snapshot rides in every step
  // event and in the run_summary event (docs/OBSERVABILITY.md).
  obs::MetricsRegistry::Handle m_tree_builds_;
  obs::MetricsRegistry::Handle m_sched_pm_s_;       // counter: pm stage wall
  obs::MetricsRegistry::Handle m_sched_short_s_;    // counter: chain stages wall
  obs::MetricsRegistry::Handle m_sched_overlap_s_;  // counter: wall won by overlap
  obs::MetricsRegistry::Handle m_step_wall_s_;  // histogram
  obs::MetricsRegistry::Handle m_step_da_;      // histogram
  obs::MetricsRegistry::Handle m_ops_launches_;
  obs::MetricsRegistry::Handle m_ops_kernel_s_;
  obs::MetricsRegistry::Handle m_ops_interactions_;
  obs::MetricsRegistry::Handle m_ops_m2p_;
  obs::MetricsRegistry::Handle m_ckpt_writes_;
  obs::MetricsRegistry::Handle m_ckpt_bytes_;
  obs::MetricsRegistry::Handle m_ckpt_write_s_;
  obs::MetricsRegistry::Handle m_ckpt_validate_;   // counter: CRC validations run
  obs::MetricsRegistry::Handle m_ckpt_failures_;   // counter: failed writes/validations
  obs::MetricsRegistry::Handle m_ckpt_recovered_;  // gauge: step recovered from (-1: none)
  obs::MetricsRegistry::Handle m_run_outputs_;
  obs::MetricsRegistry::Handle m_stepctl_da_;  // gauge: last Δa decision
  std::uint64_t last_m2p_ = 0;  // fmm_ops() is cumulative; we record deltas
  /// What the in-run cascade ranks, accumulated every step: kernel launches
  /// by kernel name, plus the stages that launch no kernel by stage name.
  std::map<std::string, xsycl::KernelTime> kernel_times_;
};

}  // namespace hacc::run
