// JSON-lines protocol for the placement service (DESIGN.md §11).
//
// Transport: a Unix-domain stream socket. Each request and each response is
// one JSON object on one '\n'-terminated line. Requests carry a "cmd" field:
//
//   {"cmd":"submit", "demo_cells":4000, "max_iters":800, "priority":2,
//    "deadline_s":30, "label":"sweep_a"}        → {"ok":true,"id":7,...}
//   {"cmd":"status","id":7}                     → {"ok":true,"job":{...}}
//   {"cmd":"cancel","id":7}                     → {"ok":true,...}
//   {"cmd":"result","id":7,"wait":true,"timeout_s":60}
//                                               → {"ok":true,"job":{...}}
//   {"cmd":"events","id":7,"from":0}            → a stream: one
//        {"ok":true,"event":{...}} line per GP iteration, terminated by
//        {"ok":true,"done":true,"state":"..."} when the job is terminal
//   {"cmd":"stats"}                             → {"ok":true,"stats":{...}}
//   {"cmd":"metrics"}                           → {"ok":true,"metrics":"..."}
//        with the full Prometheus text exposition of the global telemetry
//        registry in the string (the scrape surface of DESIGN.md §12; the
//        response line can exceed kMaxLineBytes — readers raise their cap
//        via LineReader::set_max_line)
//   {"cmd":"shutdown","drain":true}             → {"ok":true} then the
//        daemon stops accepting, drains, and exits 0
//
// Design-store + batch-sweep verbs (DESIGN.md §14). Design content hashes are
// 64-bit and travel as 16-char lowercase hex strings (JSON numbers are
// doubles — 53 bits of integer precision would corrupt them):
//
//   {"cmd":"upload-design","demo_cells":4000}   → {"ok":true,
//        "design":"a1b2...","name":"demo","cells":N,"nets":N,"bytes":N,
//        "cached":false}  (idempotent: re-upload of known content is a cache
//        hit, "cached":true)
//   {"cmd":"list-designs"}                      → {"ok":true,"designs":[...]}
//   {"cmd":"evict-design","design":"a1b2..."}   → {"ok":true} (fails while a
//        running job pins the design)
//   {"cmd":"submit-batch","design":"a1b2...","max_iters":500,
//    "configs":[{"seed":1},{"seed":2},{"target_density":0.8}]}
//        → {"ok":true,"batch":3,"design":"a1b2...",
//           "jobs":[{"id":7,"dedup":false},...]}
//        Each config starts from the base fields on the request object and
//        overrides per-config; the design is parsed at most once for the
//        whole batch. "dedup" (default true) serves a repeated
//        (design, config) from the existing job instead of re-running.
//   {"cmd":"batch-status","id":3}               → {"ok":true,"batch":{...}}
//   {"cmd":"batch-result","id":3,"wait":true,"timeout_s":600}
//        → {"ok":true,"batch":{...},"jobs":[{...},...]} with one full job
//        object per member, dedup-shared members repeated by reference
//   {"cmd":"batch-cancel","id":3}               → {"ok":true,"cancelled":N}
//        cancels every non-terminal member in one shot
//
// Portfolio-racing verbs (DESIGN.md §16). A portfolio launches K perturbed
// restarts of one design as a raced group and races them; the racer thread
// early-kills strict laggards unless "no_kill":
//
//   {"cmd":"submit-portfolio","design":"a1b2...","k":4,"seed":1,
//    "max_iters":800,"deadline_s":120}
//        → {"ok":true,"portfolio":3,"batch":3,"design":"a1b2...",
//           "jobs":[{"id":7,"dedup":false},...]} ("portfolio" and "batch"
//        carry the same group id)
//        Optional racer overrides: "kill_min_iter" (grace iterations),
//        "kill_margin" (HPWL ratio), "kill_slack" (overflow gap),
//        "no_kill":true (race without early-kill).
//   {"cmd":"portfolio-status","id":3}           → {"ok":true,"portfolio":{...}}
//   {"cmd":"portfolio-result","id":3,"wait":true,"timeout_s":600}
//        → {"ok":true,"portfolio":{...},"winner":{...full job object...},
//           "jobs":[{...},...]} (winner = the best member, present once a
//           member is done)
//
// Sweeps and portfolios are one group family (DESIGN.md §14): one id
// sequence, and every batch-* and portfolio-* status/result verb accepts any
// group id; the verb only picks the reply key. The aggregate carries "id",
// "design", "label", "jobs", the per-state counts, "all_terminal" and, once a
// member is done, "best_job"/"best_hpwl" (lowest final HPWL, ties to the
// lower job id); a raced group adds "batch" (its own id), "base_seed",
// "killed" (members the racer killed) and "deadline_s".
//
// Every error is {"ok":false,"error":"..."} on one line; a malformed or
// oversized request line never kills the connection — the server answers
// with an error and keeps reading (the framing layer resynchronizes on the
// next newline).
//
// This header owns (a) the incremental line framing with an oversize guard
// and (b) the typed Request parse/build pair, so the daemon, the client CLI,
// and the tests all speak through one implementation.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "server/job.h"
#include "server/json.h"

namespace xplace::server {

/// Hard cap on one protocol line (request or response). Large enough for
/// any legitimate request by orders of magnitude; small enough that a
/// misbehaving client cannot balloon server memory.
inline constexpr std::size_t kMaxLineBytes = 1 << 16;

/// Incremental JSON-lines framing: feed() arbitrary byte chunks (partial
/// reads are fine), next() pops complete lines. A line longer than the cap
/// is reported once as kOversized and discarded up to its terminating
/// newline; framing then resynchronizes on the next line.
class LineReader {
 public:
  explicit LineReader(std::size_t max_line = kMaxLineBytes)
      : max_line_(max_line) {}

  /// Raises (or lowers) the oversize cap for subsequent lines. Clients that
  /// issue `metrics` raise theirs: the Prometheus exposition is one response
  /// line and legitimately exceeds the request-side default.
  void set_max_line(std::size_t max_line) { max_line_ = max_line; }
  std::size_t max_line() const { return max_line_; }

  void feed(const char* data, std::size_t n);

  enum class Pop { kLine, kNeedMore, kOversized };

  /// kLine: *line holds the next complete line (newline stripped; a lone
  /// trailing '\r' is stripped too, tolerating CRLF clients).
  /// kOversized: the current line exceeded the cap; *line is cleared.
  /// kNeedMore: no complete line buffered yet.
  Pop next(std::string* line);

 private:
  std::string buf_;
  std::size_t max_line_;
  bool discarding_ = false;  ///< inside an oversized line, skipping to '\n'
  bool oversize_reported_ = false;
};

enum class Command {
  kSubmit,
  kStatus,
  kCancel,
  kResult,
  kEvents,
  kStats,
  kMetrics,
  kShutdown,
  kUploadDesign,
  kListDesigns,
  kEvictDesign,
  kSubmitBatch,
  kBatchStatus,
  kBatchResult,
  kBatchCancel,
  kSubmitPortfolio,
  kPortfolioStatus,
  kPortfolioResult,
};

const char* to_string(Command cmd);

/// 64-bit content hash ↔ 16-char lowercase hex (the wire encoding).
std::string hash_to_hex(std::uint64_t hash);
bool hex_to_hash(const std::string& hex, std::uint64_t* out);

/// One parsed request. `spec` is meaningful for kSubmit / kUploadDesign /
/// kSubmitBatch (the batch base); `configs` for kSubmitBatch; `id` for
/// status/cancel/result/events and the group verbs (the group id);
/// `from_seq`/`wait`/`timeout_s`/`drain` for the commands that document them
/// above.
/// Sentinel for "no kill_slack override" — overflow slack is legitimately
/// negative (stricter-than-leader policies), so 0 cannot be the sentinel.
inline constexpr double kNoSlackOverride = -1.0e30;

struct Request {
  Command cmd = Command::kStats;
  std::uint64_t id = 0;
  std::uint64_t from_seq = 0;   ///< events: first sequence number wanted
  bool wait = false;            ///< result: block until terminal
  double timeout_s = 60.0;      ///< result --wait bound
  bool drain = true;            ///< shutdown: finish queued+running first
  JobSpec spec;                 ///< submit payload / batch or portfolio base
  std::vector<JobSpec> configs; ///< submit-batch member configs
  // submit-portfolio fields. The racer-policy overrides keep their sentinels
  // when absent; the daemon then applies the server-default policy.
  int k = 0;                    ///< member count (required, >= 2)
  int kill_min_iter = -1;       ///< grace iterations before judging (<0 = def)
  double kill_margin = 0.0;     ///< laggard HPWL ratio (0 = default)
  double kill_slack = kNoSlackOverride;  ///< laggard overflow gap
  bool no_kill = false;         ///< race without early-kill
};

/// Parses one request line. On failure returns false and sets *error to a
/// client-presentable message (also used verbatim in the error response).
bool parse_request(const std::string& line, Request* out, std::string* error);

/// Serializes a request to its wire line (no trailing newline). Inverse of
/// parse_request — the client CLI builds lines through this, and the tests
/// round-trip build→parse.
std::string build_request(const Request& req);

// ---- response builders (one line, no trailing newline) ---------------------

std::string make_error(const std::string& message);
/// {"ok":true, ...fields}.
std::string make_ok(json::Object fields);

/// The "job" object embedded in status/result responses.
json::Object job_to_json(const JobRecord& rec);
/// The "event" object embedded in events-stream responses.
json::Object event_to_json(const JobEvent& ev);

}  // namespace xplace::server
