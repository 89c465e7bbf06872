// Journal record semantics + startup recovery planning for xplace-serve.
//
// The io::Journal layer frames and checksums bytes; this module owns what the
// bytes mean. One record type per job-lifecycle transition:
//
//   kSubmit      full JobSpec + attempt number (attempt > 0 after compaction
//                of a retried job)
//   kStart       a worker slot picked the job up
//   kCheckpoint  a periodic XPCK spill landed on disk (next_iter + path) —
//                the resume point if the process dies now
//   kFinish      terminal state + result fields
//   kCancel      cancel requested (queued-job cancels also get a kFinish;
//                a bare kCancel means the crash hit between cancel and settle);
//                the payload is the job's error text (kRacerKillError on a
//                racer kill, else empty)
//   kRetry       the supervisor re-admitted a diverged/alloc-failed job
//                (new attempt number + backoff + reason)
//   kCleanShutdown  drain completed with no jobs outstanding — the next start
//                is a "clean start" (no recovery) iff this is the last record
//   kDesignRef   a design became known to the store (not a job record)
//   kGroup       a sweep or portfolio landed: member ids + race policy (not a
//                job record)
//
// Every decoder rejects a payload it did not consume exactly, so a record
// written by a binary with a different layout is dropped, never mis-decoded
// (drain before upgrading the binary — DESIGN.md §13).
//
// build_recovery_plan folds a tolerant replay (io::read_journal) into per-job
// effective state: live jobs to re-enqueue in original submit order, running
// jobs' newest XPCK resume points, terminal jobs' records to restore into the
// result store. compaction_records re-emits that folded state so the journal
// on disk stays proportional to the live+retained job set, not to history.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/journal.h"
#include "server/job.h"
#include "server/portfolio_racer.h"

namespace xplace::server {

enum class JournalEvent : std::uint32_t {
  kSubmit = 1,
  kStart = 2,
  kCheckpoint = 3,
  kFinish = 4,
  kCancel = 5,
  kRetry = 6,
  kCleanShutdown = 7,
  /// A design became known to the store (upload-design, or the first job
  /// referencing it). The record's job_id slot carries the design's content
  /// hash; the payload carries its source so recovery can re-register it for
  /// lazy re-parse. Not a job record: excluded from max_id.
  kDesignRef = 8,
  // 9 and 10 were the retired per-kind batch and portfolio records; replay
  // ignores them like any unknown type.
  /// A group (sweep or portfolio) landed: the job_id slot carries the group
  /// id; the payload ties the member job ids to the design hash and, for a
  /// raced group, the racing parameters, so a restart resumes racing the
  /// surviving members under the same policy.
  kGroup = 11,
};

/// Decoded kFinish payload (the terminal slice of a JobRecord).
struct FinishInfo {
  JobState state = JobState::kDone;
  core::StopReason stop_reason = core::StopReason::kIterCap;
  double hpwl = 0.0;
  double overflow = 0.0;
  int iterations = 0;
  double gp_seconds = 0.0;
  double dp_hpwl = 0.0;
  bool legalized = false;
  std::string error;
};

/// Decoded kRetry payload.
struct RetryInfo {
  int attempt = 0;  ///< the attempt number the job is re-admitted as
  double backoff_s = 0.0;
  std::string reason;
};

// ---- payload codecs (little-endian, checkpoint_io-style) -------------------
std::string encode_submit(const JobSpec& spec, int attempt);
bool decode_submit(const std::string& payload, JobSpec* spec, int* attempt);

std::string encode_finish(const FinishInfo& info);
bool decode_finish(const std::string& payload, FinishInfo* info);

std::string encode_checkpoint(int next_iter, const std::string& path);
bool decode_checkpoint(const std::string& payload, int* next_iter,
                       std::string* path);

std::string encode_retry(const RetryInfo& info);
bool decode_retry(const std::string& payload, RetryInfo* info);

/// Decoded kDesignRef payload (the design's hash rides in the job_id slot).
struct DesignRefInfo {
  bool demo = false;
  std::string aux;
  std::uint64_t cells = 0;
  std::uint64_t seed = 0;
};

std::string encode_design_ref(const DesignRefInfo& info);
bool decode_design_ref(const std::string& payload, DesignRefInfo* info);

/// One member of a group: a job the group admitted, or (deduped) a job that
/// already served the same (design, config) and now serves this member too.
struct GroupMember {
  std::uint64_t id = 0;
  bool deduped = false;
};

/// Decoded kGroup payload (the group id rides in the job_id slot): a sweep's
/// or a portfolio's members, plus the race fields when the group is raced.
struct GroupInfo {
  std::uint64_t design_hash = 0;
  std::string label;
  std::vector<GroupMember> members;  ///< config (plan) order
  bool raced = false;                ///< a portfolio: the racer judges it
  std::uint64_t base_seed = 0;       ///< the plan's seed (raced only)
  double deadline_s = 0.0;           ///< shared race deadline (raced only)
  /// Racing policy the group was admitted under (raced only; min_survivors
  /// stays server-wide and is not journaled).
  RacePolicy policy;
};

std::string encode_group(const GroupInfo& info);
bool decode_group(const std::string& payload, GroupInfo* info);

/// One job's effective state after folding every journal record about it.
struct RecoveredJob {
  std::uint64_t id = 0;
  JobSpec spec;
  int attempt = 0;
  double submit_time_s = 0.0;  ///< CLOCK_REALTIME at original submit
  bool was_running = false;    ///< started and neither finished nor retried
  bool cancel_requested = false;  ///< bare kCancel with no settling kFinish
                                  ///< (its payload lands in finish.error)
  std::string checkpoint_path;    ///< newest spill ("" = none landed)
  int checkpoint_iter = 0;
  bool terminal = false;
  FinishInfo finish;           ///< valid when terminal
  std::vector<JobAttempt> attempts;  ///< folded retry history
};

/// A design the store knew about (possibly evicted); re-registered at
/// startup for lazy re-parse.
struct RecoveredDesign {
  std::uint64_t hash = 0;
  DesignRefInfo source;
};

/// A group whose membership and race policy survive the restart (member
/// jobs recover independently through their own records).
struct RecoveredGroup {
  std::uint64_t id = 0;
  GroupInfo info;
  double submit_time_s = 0.0;
};

struct RecoveryPlan {
  std::vector<RecoveredJob> jobs;  ///< original submit order
  bool clean_shutdown = false;     ///< last record is the clean marker
  bool torn_tail = false;          ///< forwarded from the replay
  bool corrupt = false;
  std::uint64_t max_id = 0;        ///< highest job id seen (id allocation)
  std::size_t records = 0;         ///< trusted records folded
  std::vector<RecoveredDesign> designs;  ///< design-ref records, first-seen order
  std::vector<RecoveredGroup> groups;  ///< group records, submit order
  std::uint64_t max_group_id = 0;
};

RecoveryPlan build_recovery_plan(const io::JournalReplay& replay);

/// Re-emits `plan` as a minimal record sequence (per job: submit at its
/// folded attempt, newest checkpoint, terminal finish or dangling cancel) —
/// the compacted journal the daemon rewrites at startup.
std::vector<io::JournalRecord> compaction_records(const RecoveryPlan& plan);

}  // namespace xplace::server
