// Placement job model shared by the queue, the scheduler, and the protocol.
//
// A job is one full placement flow (GP → LG → DP, or GP only) over either a
// bookshelf .aux on disk or a synthesized demo design — exactly the two
// entry points place_bookshelf offers, so a job submitted to the daemon and
// a one-shot CLI run at the same config produce bit-identical results at a
// fixed thread count (the determinism acceptance of DESIGN.md §11).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/placer.h"

namespace xplace::server {

/// Everything a client specifies at submit time.
struct JobSpec {
  // ---- design source (exactly one) ----------------------------------------
  std::string aux;             ///< bookshelf .aux path ("" = demo)
  long demo_cells = 0;         ///< >0: synthesize like place_bookshelf --demo
  std::uint64_t demo_seed = 11;  ///< place_bookshelf's demo seed
  /// Content hash of an uploaded design (upload-design verb): non-zero
  /// selects the design store directly. Mutually exclusive with aux /
  /// demo_cells — validate_spec() rejects ambiguous sources.
  std::uint64_t design_hash = 0;

  // ---- placement config (place_bookshelf defaults) -------------------------
  int max_iters = 1500;
  int grid = 128;
  /// Sweep seed: >0 derives the placer's stochastic seeds deterministically
  /// (filler_seed = seed, init_noise_seed = seed + 1). 0 = placer defaults.
  std::uint64_t seed = 0;
  /// >0 overrides the design's target density before filler insertion.
  double target_density = 0.0;
  /// >0 overrides the λ-schedule init factor (PlacerConfig::lambda_init_factor).
  double lambda_init = 0.0;
  // Perturbed-restart knobs (portfolio members, DESIGN.md §16). All are
  // multiplicative against the placer defaults; 0 = leave the default alone.
  // They are part of the config hash, so two variants of the same design
  // dedup as distinct results.
  double init_noise_scale = 0.0;  ///< × PlacerConfig::center_init_noise
  double gamma_scale = 0.0;       ///< × PlacerConfig::gamma_base_factor
  double lambda_scale = 0.0;      ///< × PlacerConfig::lambda_init_factor
  /// Worker threads for this job's kernels; 0 = the server's per-job default.
  /// Each running job gets its own ExecutionContext so concurrent jobs never
  /// share a pool (sharing would serialize one job inline and break per-job
  /// run-to-run determinism).
  int threads = 0;
  bool full_flow = true;       ///< GP → LG → DP; false = GP only

  // ---- scheduling ----------------------------------------------------------
  int priority = 0;            ///< higher pops first
  /// Seconds from submission until the job's deadline; counts queue wait as
  /// well as runtime (a job popped after its deadline never runs). 0 = none.
  double deadline_s = 0.0;

  /// Metrics label: terminal jobs publish `serve.job.<label>.*` gauges into
  /// the global telemetry registry. Empty = "job<id>". Characters outside
  /// [A-Za-z0-9_.-] are replaced with '_'.
  std::string label;

  // ---- dedup ---------------------------------------------------------------
  /// Result dedup: when set, an identical (design_hash, config_hash) with a
  /// successful terminal result is served from cache instead of re-running.
  /// Default off for plain submits (soak tests rely on N identical jobs
  /// running independently); submit-batch defaults it on.
  bool dedup = false;
};

/// demo_cells admission bound: a demo bigger than this is almost certainly a
/// client bug (the generator would try to allocate tens of GiB).
inline constexpr long kMaxDemoCells = 5'000'000;

/// Spec validation shared by the protocol parser and the in-process
/// PlacementServer::submit path. Returns "" when valid. This is the fix for
/// `submit` silently preferring `aux` when both `aux` and `demo_cells` are
/// set: ambiguous sources are rejected at admission, on both entry points.
inline std::string validate_spec(const JobSpec& s) {
  int sources = 0;
  if (!s.aux.empty()) ++sources;
  if (s.demo_cells != 0) ++sources;
  if (s.design_hash != 0) ++sources;
  if (sources == 0) {
    return "job requires a design: \"aux\", \"demo_cells\" > 0, or \"design\"";
  }
  if (sources > 1) {
    return "ambiguous design source: give exactly one of \"aux\", "
           "\"demo_cells\", \"design\"";
  }
  if (s.demo_cells < 0) return "\"demo_cells\" must be positive";
  if (s.demo_cells > kMaxDemoCells) {
    return "\"demo_cells\" exceeds the " + std::to_string(kMaxDemoCells) +
           " admission bound";
  }
  if (s.max_iters <= 0) return "\"max_iters\" must be positive";
  if (s.grid <= 0) return "\"grid\" must be positive";
  if (s.deadline_s < 0.0) return "\"deadline_s\" must be non-negative";
  if (s.target_density < 0.0 || s.target_density > 1.0) {
    return "\"target_density\" must be in (0, 1]";
  }
  if (s.lambda_init < 0.0) return "\"lambda_init\" must be non-negative";
  if (s.init_noise_scale < 0.0) {
    return "\"init_noise_scale\" must be non-negative";
  }
  if (s.gamma_scale < 0.0) return "\"gamma_scale\" must be non-negative";
  if (s.lambda_scale < 0.0) return "\"lambda_scale\" must be non-negative";
  return "";
}

enum class JobState : int {
  kQueued = 0,
  kRunning = 1,
  kDone = 2,       ///< flow completed (converged or iteration cap)
  kCancelled = 3,  ///< cancel/deadline; result fields hold the committed
                   ///< best-snapshot placement when the job got to run
  kFailed = 4,     ///< exception (bad aux path, parse error, ...)
  kShed = 5,       ///< evicted by admission control under saturation — the
                   ///< graceful-degradation terminal state (DESIGN.md §13)
};

inline const char* to_string(JobState s) {
  switch (s) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    case JobState::kFailed: return "failed";
    case JobState::kShed: return "shed";
  }
  return "?";
}

inline bool is_terminal(JobState s) {
  return s == JobState::kDone || s == JobState::kCancelled ||
         s == JobState::kFailed || s == JobState::kShed;
}

/// JobRecord::error of a portfolio member the racer early-killed as a strict
/// laggard. Journaled with the member's kCancel/kFinish, so a group's `killed`
/// count is read from member records and means the same after a restart.
inline constexpr char kRacerKillError[] = "killed by the portfolio racer";

/// One completed (and abandoned) run attempt of a supervised job: why it
/// ended, and the backoff the supervisor applied before the next admission.
struct JobAttempt {
  int number = 0;           ///< 0-based attempt index
  std::string outcome;      ///< "diverged", "alloc_fail", ...
  double backoff_s = 0.0;   ///< delay before the NEXT attempt was queued
  double started_s = 0.0;   ///< log::elapsed_seconds() domain; 0 = unknown
  double finished_s = 0.0;  ///< (attempts replayed from the journal keep 0)
};

/// One GP-iteration progress sample, streamed to `events` subscribers.
/// Sourced from the Recorder observer — the same numbers --record-out dumps.
struct JobEvent {
  std::uint64_t seq = 0;  ///< 0-based, monotonic per job
  int iter = 0;
  double hpwl = 0.0;
  double overflow = 0.0;
  double omega = 0.0;
};

/// Full job record: spec + lifecycle + results. Snapshot-copied out of the
/// server under its lock, so readers never see a torn record.
struct JobRecord {
  std::uint64_t id = 0;
  JobSpec spec;
  JobState state = JobState::kQueued;
  core::StopReason stop_reason = core::StopReason::kIterCap;

  /// Telemetry trace id assigned at submit: every span the scheduler and the
  /// flow record on this job's behalf is tagged with it, so one Chrome trace
  /// holds a coherent per-job timeline (DESIGN.md §12).
  std::uint64_t trace_id = 0;
  /// Progress events evicted from this job's bounded ring so far (mirrors
  /// the per-page `dropped` count of the events verb, but survives paging).
  std::uint64_t events_dropped = 0;

  // GP results (valid once the job ran; cancelled jobs carry the committed
  // best-snapshot numbers).
  double hpwl = 0.0;
  double overflow = 0.0;
  int iterations = 0;
  double gp_seconds = 0.0;

  // Full-flow results (valid when full_flow and the job was not stopped).
  double dp_hpwl = 0.0;
  bool legalized = false;

  /// kFailed/kShed diagnostic; on a kCancelled portfolio member,
  /// kRacerKillError marks a laggard the racer killed (DESIGN.md §16).
  std::string error;
  std::string spill_path;  ///< XPCK checkpoint path when the server spilled

  // Supervised-retry + crash-recovery lifecycle (DESIGN.md §13).
  int attempt = 0;                  ///< current 0-based attempt number
  std::vector<JobAttempt> attempts; ///< abandoned attempts, oldest first
  bool recovered = false;           ///< journal-replayed across a restart
  std::string resume_from;          ///< XPCK the current run resumed from

  // Lifecycle timestamps (log::elapsed_seconds() domain; 0 = not reached).
  double submitted_s = 0.0;
  double started_s = 0.0;
  double finished_s = 0.0;
};

}  // namespace xplace::server
