// Resident placement service: bounded priority queue + N-way job scheduler
// over the placement flow, with cooperative cancellation, streamed progress,
// a bounded result store, and graceful drain (DESIGN.md §11).
//
// The server amortizes process setup (SIMD table resolution, telemetry
// registries) across many placements and multiplexes runs the way an
// inference-serving stack wraps a model runtime:
//
//   submit ─▶ JobQueue ─▶ worker slots (max_concurrency threads)
//                              │  each: build db → GlobalPlacer(+StopToken)
//                              │         → [LG → DP] → JobRecord
//                              └─ thread-budget arbiter: a job starts only
//                                 when its worker-thread request fits the
//                                 server-wide budget, so the machine is
//                                 never oversubscribed
//
// Determinism: every job runs with an explicit per-job thread count (its
// spec's, or the server default) and its own ExecutionContext — concurrent
// jobs never share a ThreadPool (PR 3's pool serializes a second dispatcher
// inline, which would make results depend on timing). A job therefore
// produces bit-identical results to a one-shot place_bookshelf run at the
// same config/thread count, regardless of service load.
//
// Transport-free: this class is plain C++ (tests drive it in-process); the
// UDS daemon in uds.h binds it to the JSON-lines protocol.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "io/journal.h"
#include "server/design_store.h"
#include "server/faults.h"
#include "server/job.h"
#include "server/job_queue.h"
#include "server/portfolio_racer.h"
#include "server/recovery.h"
#include "telemetry/metrics.h"
#include "util/stop_token.h"

namespace xplace::server {

struct ServerConfig {
  std::size_t queue_capacity = 64;   ///< admission bound (reject-on-full)
  std::size_t max_concurrency = 2;   ///< worker slots (jobs in flight)
  /// Worker threads a job runs with when its spec says 0. 1 = serial (the
  /// bitwise-reproducible default).
  int default_job_threads = 1;
  /// Server-wide worker-thread budget the running jobs' thread counts must
  /// fit in; a job waits in its slot until the budget frees up. 0 = derive
  /// as max_concurrency * max(1, default_job_threads).
  std::size_t thread_budget = 0;
  /// Terminal JobRecords retained for status/result queries; older terminal
  /// jobs are evicted FIFO beyond this.
  std::size_t result_capacity = 256;
  /// Per-job ring of streamed iteration events; oldest events drop first
  /// (subscribers see a `dropped` count).
  std::size_t event_capacity = 4096;
  /// When non-empty: periodic GP checkpoint spill per job via the XPCK
  /// writer (io/checkpoint_io.h) into `<spill_dir>/job<id>.xpck`.
  std::string spill_dir;
  int spill_period = 200;  ///< iterations between spill writes

  // ---- durability & self-healing (DESIGN.md §13) ---------------------------
  /// When non-empty: crash-safe operation. The job journal (journal.xpjl)
  /// lives here, spill_dir defaults here, and the constructor replays the
  /// journal — restoring terminal records, re-enqueuing queued jobs in their
  /// original order, and resuming interrupted running jobs from their newest
  /// XPCK spill — before any worker starts.
  std::string state_dir;
  /// Journal disk budget: once the journal on disk exceeds this, admission
  /// switches to the load-shedding path (compaction happens at startup).
  std::size_t journal_max_bytes = 64ull << 20;
  /// Supervised retries: a job that ends `diverged` (or dies to allocation
  /// failure) is re-admitted up to this many times with exponential backoff
  /// and the guardian's compounding λ/step retune. 0 disables.
  int max_retries = 2;
  double retry_backoff_s = 0.5;      ///< base backoff before attempt 1
  double retry_backoff_max_s = 30.0; ///< backoff ceiling
  /// Server-layer fault plan (serve_crash/diverge/journal_torn/disk_full).
  /// Empty → parsed from XPLACE_FAULT at construction.
  ServeFaultPlan faults;

  // ---- design store (DESIGN.md §14) ----------------------------------------
  /// Max resident parsed designs; LRU eviction of unpinned snapshots beyond
  /// this (pinned-while-running designs are exempt).
  std::size_t design_capacity = 16;
  /// Resident-bytes bound for the design store (same LRU policy).
  std::size_t design_max_bytes = 1ull << 30;

  // ---- portfolio racing (DESIGN.md §16) ------------------------------------
  /// How often the racer thread samples live portfolios' member progress and
  /// kills strict laggards. <= 0 disables the racer entirely (members still
  /// run to completion; the winner is still selected).
  double portfolio_poll_s = 0.25;
  /// Server-default racing policy; submit-portfolio requests may override
  /// per portfolio.
  RacePolicy portfolio_policy;
};

class PlacementServer {
 public:
  explicit PlacementServer(ServerConfig cfg);
  /// Implies shutdown(/*drain=*/false) when still running.
  ~PlacementServer();

  PlacementServer(const PlacementServer&) = delete;
  PlacementServer& operator=(const PlacementServer&) = delete;

  struct SubmitOutcome {
    bool ok = false;
    std::uint64_t id = 0;
    bool deduped = false;  ///< served by an existing (design, config) job
    std::string error;
  };
  /// Admission control: rejects (ok=false) when the spec is invalid
  /// (validate_spec), the queue is full, or the server is shutting down.
  SubmitOutcome submit(const JobSpec& spec);

  // ---- design store (DESIGN.md §14) ----------------------------------------
  struct UploadOutcome {
    bool ok = false;
    std::uint64_t hash = 0;
    bool cached = false;  ///< content was already resident (no parse)
    std::string name;
    std::size_t cells = 0, nets = 0, bytes = 0;
    std::string error;
  };
  /// Parses (or finds cached) the design named by spec.aux / spec.demo_cells
  /// and registers it in the store. Idempotent per content hash.
  UploadOutcome upload_design(const JobSpec& source);
  std::vector<DesignStore::Entry> list_designs() const;
  bool evict_design(std::uint64_t hash, std::string* error);

  // ---- groups: sweeps and portfolios (DESIGN.md §14, §16) ------------------
  // A group is N member jobs on one design plus an optional race policy. One
  // id sequence, one status/wait/cancel family; members are ordinary jobs.
  struct GroupSubmitOutcome {
    bool ok = false;
    std::uint64_t id = 0;  ///< the group id (batch and portfolio verbs alike)
    std::uint64_t design_hash = 0;
    std::vector<GroupMember> jobs;  ///< config (plan) order
    std::string error;
  };
  /// Atomically fans `configs` (each a full JobSpec whose design fields are
  /// overwritten with the group's design) out as ordinary jobs on the queue.
  /// All-or-nothing admission: if the queue cannot take every non-deduped
  /// config, the whole group is rejected. The design is resolved (one parse,
  /// ever) before any job is enqueued.
  GroupSubmitOutcome submit_batch(const JobSpec& base,
                                  const std::vector<JobSpec>& configs);
  /// Admits K perturbed restarts of `base`'s design as one raced group
  /// (opt::make_portfolio_plan variants: distinct seeds, noise-injected
  /// anchors, varied γ/λ schedules) under `deadline_s`; the racer thread
  /// early-kills strict laggards per `policy`. base.seed seeds the plan; the
  /// group is deterministic from (design, k, base.seed).
  GroupSubmitOutcome submit_portfolio(const JobSpec& base, int k,
                                      double deadline_s,
                                      const RacePolicy& policy);

  struct GroupStatus {
    std::uint64_t id = 0;
    GroupInfo info;  ///< members, design, label, race fields
    /// A member whose record the result store has evicted counts as done.
    std::size_t queued = 0, running = 0, done = 0, cancelled = 0, failed = 0,
                shed = 0;
    /// Resident members whose record says the racer killed them
    /// (kRacerKillError).
    std::size_t killed = 0;
    bool all_terminal = false;
    /// Best member: lowest final HPWL among done members (legalized DP HPWL
    /// when the flow ran, GP HPWL otherwise); ties break on the lower job id
    /// so the selection is deterministic. 0 = no done member yet.
    std::uint64_t best_job = 0;
    double best_hpwl = 0.0;
  };
  /// nullopt = unknown or retired group id. Beyond result_capacity rows, the
  /// oldest settled rows are retired when a new group is admitted.
  std::optional<GroupStatus> group_status(std::uint64_t id) const;
  /// Blocks until every member is terminal (or timeout); on timeout returns
  /// the current aggregate. nullopt = unknown or retired id.
  std::optional<GroupStatus> group_wait(std::uint64_t id,
                                        double timeout_s) const;
  /// Cancels every non-terminal member of a group in one shot (queued members
  /// settle immediately, running members get their stop tokens armed). Dedup
  /// members whose serving job belongs to another group are cancelled too —
  /// a group cancel means "stop spending on this group". Returns false with
  /// *error only for unknown ids; *cancelled counts members acted on.
  bool group_cancel(std::uint64_t id, std::size_t* cancelled,
                    std::string* error);

  /// Cancels a job. Queued → terminal kCancelled immediately; running → its
  /// StopToken is armed and the job lands terminal shortly (with the best-
  /// snapshot placement committed). False (with *error) for unknown ids or
  /// jobs already terminal.
  bool cancel(std::uint64_t id, std::string* error);

  /// Snapshot of a job record; nullopt = unknown id (never submitted, or
  /// evicted from the bounded result store).
  std::optional<JobRecord> status(std::uint64_t id) const;

  /// Blocks until the job is terminal (or timeout_s elapses) and returns its
  /// record; nullopt = unknown id. On timeout returns the current record.
  std::optional<JobRecord> wait(std::uint64_t id, double timeout_s) const;

  struct EventBatch {
    std::vector<JobEvent> events;
    std::uint64_t next_seq = 0;   ///< pass as `from` of the next call
    std::uint64_t dropped = 0;    ///< events lost to the bounded ring so far
    bool terminal = false;        ///< job reached a terminal state
  };
  /// Events with seq >= from_seq. Blocks up to timeout_s until at least one
  /// new event exists or the job is terminal; nullopt = unknown id.
  std::optional<EventBatch> events(std::uint64_t id, std::uint64_t from_seq,
                                   double timeout_s) const;

  /// Percentile summary of one serve-level latency histogram (seconds).
  /// Estimated via telemetry::Histogram::quantile over the SLO histograms
  /// the server observes on every terminal job.
  struct LatencySummary {
    double p50 = 0.0, p95 = 0.0, p99 = 0.0;
    std::uint64_t count = 0;
  };

  struct Stats {
    std::uint64_t submitted = 0, rejected = 0, completed = 0, cancelled = 0,
                  failed = 0;
    // Self-healing counters (DESIGN.md §13).
    std::uint64_t shed = 0;       ///< jobs evicted by admission control
    std::uint64_t retries = 0;    ///< supervised re-admissions
    std::uint64_t recovered = 0;  ///< live jobs re-enqueued at startup
    bool journal_active = false;  ///< a state_dir journal is open
    bool journal_degraded = false;  ///< an append failed; durability is off
    std::uint64_t journal_bytes = 0;
    std::uint64_t journal_records = 0;
    std::size_t retry_pending = 0;  ///< jobs waiting out a backoff window
    std::size_t queued = 0, running = 0;
    std::size_t queue_capacity = 0, max_concurrency = 0;
    std::size_t thread_budget = 0, threads_leased = 0;
    bool accepting = true;
    // SLO telemetry (tentpole of the observability plane, DESIGN.md §12).
    std::uint64_t events_dropped = 0;   ///< cumulative across every job ring
    std::uint64_t deadline_missed = 0;  ///< jobs terminated by their deadline
    LatencySummary queue_wait;          ///< submit → start, terminal jobs
    LatencySummary run;                 ///< start → finish
    LatencySummary e2e;                 ///< submit → finish
    // Design store + groups (DESIGN.md §14, §16).
    std::uint64_t design_parses = 0;
    std::uint64_t design_cache_hits = 0;
    std::uint64_t design_cache_evictions = 0;
    std::size_t designs_resident = 0;
    std::size_t design_resident_bytes = 0;
    std::size_t groups = 0;        ///< group rows tracked (live + retained)
    std::size_t raced_groups = 0;  ///< of which raced (portfolios)
    std::uint64_t dedup_hits = 0;       ///< submits served from the result cache
    std::uint64_t portfolio_kills = 0;  ///< laggards killed early by the racer
  };
  Stats stats() const;

  /// Stops accepting submissions, then: drain=true lets queued + running
  /// jobs finish; drain=false cancels queued jobs and arms running jobs'
  /// stop tokens. Blocks until workers exit. Idempotent.
  void shutdown(bool drain);

  bool accepting() const;
  const ServerConfig& config() const { return cfg_; }

 private:
  // One live job: record + stop token + event ring. Jobs are heap-allocated
  // (shared_ptr: waiters in wait()/events() hold a reference so eviction
  // from the result store cannot pull a condition_variable out from under
  // them) and never move, so worker threads can touch the token outside the
  // server lock's critical sections.
  struct Job {
    JobRecord rec;
    StopToken token;
    std::deque<JobEvent> events;
    std::uint64_t next_seq = 0;
    std::uint64_t dropped = 0;
    double submit_us = 0.0;  ///< Tracer::now_us() at submit (queue-wait span)
    /// Queue-entry deadline in the steady-clock domain (kNoDeadline = none);
    /// survives retries so the deadline keeps covering every attempt.
    double queue_deadline = QueuedJob::kNoDeadline;
    /// Dedup registration: (design_hash, config_hash) this job serves in
    /// dedup_index_ ({0,0} = none). Kept on the job so settling/eviction can
    /// drop the index entry without re-deriving the design hash.
    std::pair<std::uint64_t, std::uint64_t> dedup_key{0, 0};
    std::condition_variable cv;  ///< waits on mutex_: events + state changes
  };

  void worker_loop();
  void run_job(Job& job, std::size_t leased_threads);
  void finish_job_locked(Job& job, JobState state);
  void evict_terminal_locked();
  void publish_job_metrics(const JobRecord& rec);

  // Design store + group plumbing (DESIGN.md §14).
  /// Core submit path shared by submit() and submit_group(); caller holds
  /// mutex_. Performs the dedup lookup (spec.dedup + dedup_hash), allocates
  /// the id, journals, and enqueues. dedup_hash = the spec's design content
  /// hash (0 = dedup unavailable). allow_shed gates the displace-weaker
  /// admission path (off for group members: groups are all-or-nothing).
  SubmitOutcome submit_spec_locked(JobSpec spec, std::uint64_t dedup_hash,
                                   bool allow_shed);
  /// Admission shared by submit_batch() and submit_portfolio(): one design
  /// resolve, an all-or-nothing seat check, submit_spec_locked per member
  /// and one kGroup record. `info` carries the race fields of a raced group;
  /// a raced group's members are labelled `<group label>_<config label>`.
  GroupSubmitOutcome submit_group(const JobSpec& base,
                                  std::vector<JobSpec> configs, GroupInfo info);
  /// Cancel core shared by cancel(), group_cancel(), and the portfolio
  /// racer's early-kill; caller holds mutex_.
  bool cancel_locked(std::uint64_t id, std::string* error);
  /// FNV-1a over the placement-config slice of a spec (everything that
  /// changes the result at a fixed design) — the dedup key's second half.
  std::uint64_t config_hash(const JobSpec& spec) const;
  void journal_design_ref_locked(std::uint64_t hash,
                                 const DesignStore::SourceRef& ref);

  // Durability & self-healing (DESIGN.md §13).
  void recover_from_journal();
  void journal_append_locked(JournalEvent type, std::uint64_t job_id,
                             std::string payload);
  /// True when the job was re-admitted for another attempt (caller must not
  /// settle it); false when the retry budget is spent or retries are off.
  bool maybe_schedule_retry_locked(Job& job, const char* outcome);
  void retry_loop();
  /// Sheds the weakest queued job strictly below `incoming_priority`.
  /// Returns true when a victim was settled kShed (queue space freed).
  bool shed_weakest_locked(int incoming_priority, const char* cause);

  // Thread-budget arbitration (counting semaphore over cfg_.thread_budget).
  std::size_t lease_threads(int requested);
  void release_threads(std::size_t leased);

  ServerConfig cfg_;
  JobQueue queue_;
  DesignStore designs_;

  mutable std::mutex mutex_;
  mutable std::condition_variable budget_cv_;
  mutable std::condition_variable group_cv_;  ///< group_wait: job settled
  std::map<std::uint64_t, std::shared_ptr<Job>> jobs_;
  std::deque<std::uint64_t> terminal_order_;  // eviction FIFO
  std::uint64_t next_id_ = 1;
  std::size_t threads_leased_ = 0;
  std::size_t running_ = 0;
  bool accepting_ = true;
  bool shut_down_ = false;

  // Counters (under mutex_; mirrored into telemetry on change).
  std::uint64_t submitted_ = 0, rejected_ = 0, completed_ = 0, cancelled_ = 0,
                failed_ = 0;
  std::uint64_t shed_ = 0, retries_ = 0, recovered_ = 0;
  std::uint64_t events_dropped_total_ = 0;
  std::uint64_t deadline_missed_ = 0;
  std::uint64_t dedup_hits_ = 0;

  // Groups (under mutex_). Bookkeeping only — member jobs live in jobs_
  // like any other; a row names them plus the race policy of a raced group.
  struct Group {
    GroupInfo info;        ///< journaled as the group's kGroup record
    bool settled = false;  ///< raced: all members terminal, racer is done
  };
  std::map<std::uint64_t, Group> groups_;
  std::uint64_t next_group_id_ = 1;
  std::uint64_t portfolio_kills_ = 0;

  GroupStatus group_status_locked(std::uint64_t id, const Group& g) const;
  /// Rows share the result store's bound (DESIGN.md §12): while there are
  /// more than result_capacity, the lowest-id row whose members are all
  /// terminal goes. A row with a live member is never retired.
  void retire_groups_locked();
  /// One racer pass over every live raced group: sample member progress from
  /// the event rings, kill strict laggards via cancel_locked. Caller holds
  /// mutex_.
  void race_portfolios_locked();
  void portfolio_loop();
  std::condition_variable portfolio_cv_;
  bool portfolio_stop_ = false;
  std::thread portfolio_thread_;
  /// (design_hash, config_hash) → job id serving that exact placement; used
  /// by dedup-enabled submits. Entries are dropped when the target job ends
  /// non-kDone or is evicted from the result store.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::uint64_t> dedup_index_;
  /// Design hashes already journaled as kDesignRef (avoid duplicate records).
  std::map<std::uint64_t, bool> journaled_designs_;

  // Durable journal (under mutex_). Degraded = an append failed (I/O error
  // or injected disk_full); the server keeps serving from memory but
  // admission treats the loss of durability as saturation.
  io::JournalWriter journal_;
  bool journal_degraded_ = false;

  // Supervised-retry timer: jobs waiting out their backoff, as (due steady-
  // clock seconds, id) pairs scanned for the earliest. Guarded by mutex_;
  // retry_cv_ wakes the timer thread on schedule/shutdown.
  struct PendingRetry {
    double due_s = 0.0;
    std::uint64_t id = 0;
  };
  std::vector<PendingRetry> retry_pending_;
  std::condition_variable retry_cv_;
  bool retry_stop_ = false;
  std::thread retry_thread_;

  // Serve-level SLO histograms (global-registry entries, resolved once in
  // the constructor; stable metric names — see DESIGN.md §12 catalog).
  telemetry::Histogram* queue_wait_hist_ = nullptr;  // serve.queue_wait_s
  telemetry::Histogram* run_hist_ = nullptr;         // serve.run_s
  telemetry::Histogram* e2e_hist_ = nullptr;         // serve.e2e_s

  std::vector<std::thread> workers_;
};

}  // namespace xplace::server
