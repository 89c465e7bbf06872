#include "server/uds.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "telemetry/export.h"
#include "util/logging.h"

namespace xplace::server {

namespace {

int make_socket() { return ::socket(AF_UNIX, SOCK_STREAM, 0); }

bool fill_addr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

double steady_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

// ---------------------------------------------------------------------------
// UdsStream
// ---------------------------------------------------------------------------

UdsStream& UdsStream::operator=(UdsStream&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
    reader_ = std::move(other.reader_);
  }
  return *this;
}

UdsStream UdsStream::connect(const std::string& socket_path) {
  sockaddr_un addr;
  if (!fill_addr(socket_path, &addr)) return UdsStream();
  const int fd = make_socket();
  if (fd < 0) return UdsStream();
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return UdsStream();
  }
  return UdsStream(fd);
}

void UdsStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool UdsStream::write_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed.push_back('\n');
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n =
        ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool UdsStream::read_line(std::string* line, bool* oversized) {
  *oversized = false;
  while (true) {
    switch (reader_.next(line)) {
      case LineReader::Pop::kLine:
        return true;
      case LineReader::Pop::kOversized:
        *oversized = true;
        return true;
      case LineReader::Pop::kNeedMore:
        break;
    }
    if (fd_ < 0) return false;
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n == 0) return false;  // peer closed
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    reader_.feed(chunk, static_cast<std::size_t>(n));
  }
}

// ---------------------------------------------------------------------------
// Daemon side
// ---------------------------------------------------------------------------

namespace {

/// Shared accept-loop state so any connection's `shutdown` request can
/// unblock accept(), plus the set of live connection fds so daemon exit can
/// unblock handlers parked in recv() on idle clients.
struct ServeState {
  std::atomic<bool> stopping{false};
  int listen_fd = -1;
  std::mutex mutex;
  std::vector<int> live_fds;

  void track(int fd) {
    std::lock_guard<std::mutex> lock(mutex);
    live_fds.push_back(fd);
  }
  /// Handlers untrack BEFORE the fd is closed, so kick_all() can never
  /// touch a recycled descriptor.
  void untrack(int fd) {
    std::lock_guard<std::mutex> lock(mutex);
    live_fds.erase(std::remove(live_fds.begin(), live_fds.end(), fd),
                   live_fds.end());
  }
  void kick_all() {
    std::lock_guard<std::mutex> lock(mutex);
    for (const int fd : live_fds) ::shutdown(fd, SHUT_RDWR);
  }
};

void stream_events(PlacementServer& server, UdsStream& stream,
                   const Request& req) {
  const double deadline = steady_seconds() + std::max(0.0, req.timeout_s);
  std::uint64_t from = req.from_seq;
  std::uint64_t dropped = 0;
  bool terminal = false;
  while (true) {
    const double remaining = deadline - steady_seconds();
    const auto batch =
        server.events(req.id, from, std::clamp(remaining, 0.0, 0.5));
    if (!batch) {
      stream.write_line(make_error("unknown or evicted job id"));
      return;
    }
    for (const JobEvent& ev : batch->events) {
      json::Object o;
      o.emplace_back("event", json::Value(event_to_json(ev)));
      if (!stream.write_line(json::Value(std::move(o)).dump())) return;
    }
    from = batch->next_seq;
    dropped = batch->dropped;
    terminal = batch->terminal;
    if (terminal || remaining <= 0) break;
  }
  json::Object done;
  done.emplace_back("terminal", json::Value(terminal));
  done.emplace_back("next", from);
  done.emplace_back("dropped", dropped);
  stream.write_line(make_ok(std::move(done)));
}

json::Object stats_to_json(const PlacementServer::Stats& s) {
  json::Object o;
  o.emplace_back("submitted", s.submitted);
  o.emplace_back("rejected", s.rejected);
  o.emplace_back("completed", s.completed);
  o.emplace_back("cancelled", s.cancelled);
  o.emplace_back("failed", s.failed);
  o.emplace_back("shed", s.shed);
  o.emplace_back("retries", s.retries);
  o.emplace_back("recovered", s.recovered);
  o.emplace_back("retry_pending", static_cast<std::uint64_t>(s.retry_pending));
  json::Object journal;
  journal.emplace_back("active", json::Value(s.journal_active));
  journal.emplace_back("degraded", json::Value(s.journal_degraded));
  journal.emplace_back("bytes", s.journal_bytes);
  journal.emplace_back("records", s.journal_records);
  o.emplace_back("journal", json::Value(std::move(journal)));
  o.emplace_back("queued", static_cast<std::uint64_t>(s.queued));
  o.emplace_back("running", static_cast<std::uint64_t>(s.running));
  o.emplace_back("queue_capacity", static_cast<std::uint64_t>(s.queue_capacity));
  o.emplace_back("max_concurrency",
                 static_cast<std::uint64_t>(s.max_concurrency));
  o.emplace_back("thread_budget", static_cast<std::uint64_t>(s.thread_budget));
  o.emplace_back("threads_leased",
                 static_cast<std::uint64_t>(s.threads_leased));
  o.emplace_back("accepting", json::Value(s.accepting));
  o.emplace_back("events_dropped", s.events_dropped);
  o.emplace_back("deadline_missed", s.deadline_missed);
  const auto latency = [](const PlacementServer::LatencySummary& l) {
    json::Object o;
    o.emplace_back("p50", l.p50);
    o.emplace_back("p95", l.p95);
    o.emplace_back("p99", l.p99);
    o.emplace_back("count", l.count);
    return o;
  };
  json::Object lat;
  lat.emplace_back("queue_wait_s", json::Value(latency(s.queue_wait)));
  lat.emplace_back("run_s", json::Value(latency(s.run)));
  lat.emplace_back("e2e_s", json::Value(latency(s.e2e)));
  o.emplace_back("latency", json::Value(std::move(lat)));
  json::Object design;
  design.emplace_back("parses", s.design_parses);
  design.emplace_back("cache_hits", s.design_cache_hits);
  design.emplace_back("cache_evictions", s.design_cache_evictions);
  design.emplace_back("resident", static_cast<std::uint64_t>(s.designs_resident));
  design.emplace_back("resident_bytes",
                      static_cast<std::uint64_t>(s.design_resident_bytes));
  o.emplace_back("design", json::Value(std::move(design)));
  // Every group is a batch; the raced ones are the portfolios.
  o.emplace_back("batches", static_cast<std::uint64_t>(s.groups));
  o.emplace_back("dedup_hits", s.dedup_hits);
  o.emplace_back("portfolios", static_cast<std::uint64_t>(s.raced_groups));
  o.emplace_back("portfolio_kills", s.portfolio_kills);
  return o;
}

json::Object design_to_json(const DesignStore::Entry& e) {
  json::Object o;
  o.emplace_back("design", hash_to_hex(e.hash));
  o.emplace_back("source", e.source);
  o.emplace_back("name", e.name);
  o.emplace_back("cells", static_cast<std::uint64_t>(e.cells));
  o.emplace_back("nets", static_cast<std::uint64_t>(e.nets));
  o.emplace_back("bytes", static_cast<std::uint64_t>(e.resident_bytes));
  o.emplace_back("resident", json::Value(e.resident));
  o.emplace_back("hits", e.hits);
  o.emplace_back("pins", static_cast<std::uint64_t>(e.pins));
  return o;
}

/// The "jobs" member array shared by the group aggregate and submit replies.
json::Array members_to_json(const std::vector<GroupMember>& members) {
  json::Array jobs;
  for (const GroupMember& m : members) {
    json::Object jo;
    jo.emplace_back("id", m.id);
    jo.emplace_back("dedup", json::Value(m.deduped));
    jobs.emplace_back(std::move(jo));
  }
  return jobs;
}

json::Object group_to_json(const PlacementServer::GroupStatus& g) {
  const GroupInfo& info = g.info;
  json::Object o;
  o.emplace_back("id", g.id);
  if (info.raced) o.emplace_back("batch", g.id);  // its own member batch
  o.emplace_back("design", hash_to_hex(info.design_hash));
  if (!info.label.empty()) o.emplace_back("label", info.label);
  if (info.raced) o.emplace_back("base_seed", info.base_seed);
  o.emplace_back("jobs", json::Value(members_to_json(info.members)));
  o.emplace_back("queued", static_cast<std::uint64_t>(g.queued));
  o.emplace_back("running", static_cast<std::uint64_t>(g.running));
  o.emplace_back("done", static_cast<std::uint64_t>(g.done));
  o.emplace_back("cancelled", static_cast<std::uint64_t>(g.cancelled));
  o.emplace_back("failed", static_cast<std::uint64_t>(g.failed));
  o.emplace_back("shed", static_cast<std::uint64_t>(g.shed));
  if (info.raced) {
    o.emplace_back("killed", static_cast<std::uint64_t>(g.killed));
  }
  o.emplace_back("all_terminal", json::Value(g.all_terminal));
  if (g.best_job != 0) {
    o.emplace_back("best_hpwl", g.best_hpwl);
    o.emplace_back("best_job", g.best_job);
  }
  if (info.raced && info.deadline_s > 0) {
    o.emplace_back("deadline_s", info.deadline_s);
  }
  return o;
}

void handle_connection(PlacementServer& server, ServeState& state, int fd) {
  state.track(fd);
  UdsStream stream(fd);
  const struct Untrack {
    ServeState& state;
    int fd;
    ~Untrack() { state.untrack(fd); }
  } untrack{state, fd};  // runs before ~UdsStream closes the fd
  std::string line;
  bool oversized = false;
  while (stream.read_line(&line, &oversized)) {
    if (oversized) {
      stream.write_line(make_error("line exceeds " +
                                   std::to_string(kMaxLineBytes) + " bytes"));
      continue;
    }
    if (line.empty()) continue;

    Request req;
    std::string error;
    if (!parse_request(line, &req, &error)) {
      stream.write_line(make_error(error));
      continue;
    }

    switch (req.cmd) {
      case Command::kSubmit: {
        const auto out = server.submit(req.spec);
        if (!out.ok) {
          stream.write_line(make_error(out.error));
          break;
        }
        json::Object o;
        o.emplace_back("id", out.id);
        stream.write_line(make_ok(std::move(o)));
        break;
      }
      case Command::kStatus:
      case Command::kResult: {
        const bool block = req.cmd == Command::kResult && req.wait;
        const auto rec = block ? server.wait(req.id, req.timeout_s)
                               : server.status(req.id);
        if (!rec) {
          stream.write_line(make_error("unknown or evicted job id"));
          break;
        }
        stream.write_line(make_ok(job_to_json(*rec)));
        break;
      }
      case Command::kCancel: {
        std::string why;
        if (server.cancel(req.id, &why)) {
          stream.write_line(make_ok({}));
        } else {
          stream.write_line(make_error(why));
        }
        break;
      }
      case Command::kEvents:
        stream_events(server, stream, req);
        break;
      case Command::kStats:
        stream.write_line(make_ok(stats_to_json(server.stats())));
        break;
      case Command::kMetrics: {
        // Scrape surface (DESIGN.md §12): the whole Prometheus exposition of
        // the global registry as one response field.
        json::Object o;
        o.emplace_back("metrics",
                       telemetry::to_prometheus(telemetry::Registry::global()));
        stream.write_line(make_ok(std::move(o)));
        break;
      }
      case Command::kUploadDesign: {
        const auto out = server.upload_design(req.spec);
        if (!out.ok) {
          stream.write_line(make_error(out.error));
          break;
        }
        json::Object o;
        o.emplace_back("design", hash_to_hex(out.hash));
        o.emplace_back("name", out.name);
        o.emplace_back("cells", static_cast<std::uint64_t>(out.cells));
        o.emplace_back("nets", static_cast<std::uint64_t>(out.nets));
        o.emplace_back("bytes", static_cast<std::uint64_t>(out.bytes));
        o.emplace_back("cached", json::Value(out.cached));
        stream.write_line(make_ok(std::move(o)));
        break;
      }
      case Command::kListDesigns: {
        json::Array designs;
        for (const auto& e : server.list_designs()) {
          designs.emplace_back(design_to_json(e));
        }
        json::Object o;
        o.emplace_back("designs", json::Value(std::move(designs)));
        stream.write_line(make_ok(std::move(o)));
        break;
      }
      case Command::kEvictDesign: {
        std::string why;
        if (server.evict_design(req.spec.design_hash, &why)) {
          stream.write_line(make_ok({}));
        } else {
          stream.write_line(make_error(why));
        }
        break;
      }
      case Command::kSubmitBatch:
      case Command::kSubmitPortfolio: {
        const bool race = req.cmd == Command::kSubmitPortfolio;
        PlacementServer::GroupSubmitOutcome out;
        if (race) {
          // Racer policy: server default with any per-request overrides.
          RacePolicy policy = server.config().portfolio_policy;
          if (req.kill_min_iter >= 0) policy.min_iter = req.kill_min_iter;
          if (req.kill_margin > 0) policy.hpwl_margin = req.kill_margin;
          if (req.kill_slack != kNoSlackOverride) {
            policy.overflow_slack = req.kill_slack;
          }
          if (req.no_kill) policy.no_kill = true;
          out = server.submit_portfolio(req.spec, req.k, req.spec.deadline_s,
                                        policy);
        } else {
          out = server.submit_batch(req.spec, req.configs);
        }
        if (!out.ok) {
          stream.write_line(make_error(out.error));
          break;
        }
        json::Object o;
        if (race) o.emplace_back("portfolio", out.id);
        o.emplace_back("batch", out.id);
        o.emplace_back("design", hash_to_hex(out.design_hash));
        o.emplace_back("jobs", json::Value(members_to_json(out.jobs)));
        stream.write_line(make_ok(std::move(o)));
        break;
      }
      case Command::kBatchStatus:
      case Command::kBatchResult:
      case Command::kPortfolioStatus:
      case Command::kPortfolioResult: {
        // One group family; the verb only picks the reply key, and
        // portfolio-result adds the best member's full record as "winner".
        const bool portfolio = req.cmd == Command::kPortfolioStatus ||
                               req.cmd == Command::kPortfolioResult;
        const bool result = req.cmd == Command::kBatchResult ||
                            req.cmd == Command::kPortfolioResult;
        const char* key = portfolio ? "portfolio" : "batch";
        const auto g = result && req.wait
                           ? server.group_wait(req.id, req.timeout_s)
                           : server.group_status(req.id);
        if (!g) {
          stream.write_line(make_error(std::string("unknown ") + key + " id"));
          break;
        }
        json::Object o;
        o.emplace_back(key, json::Value(group_to_json(*g)));
        if (result) {
          if (portfolio && g->best_job != 0) {
            if (const auto rec = server.status(g->best_job)) {
              o.emplace_back("winner", json::Value(job_to_json(*rec)));
            }
          }
          json::Array jobs;
          for (const GroupMember& m : g->info.members) {
            if (const auto rec = server.status(m.id)) {
              jobs.emplace_back(job_to_json(*rec));
            }
          }
          o.emplace_back("jobs", json::Value(std::move(jobs)));
        }
        stream.write_line(make_ok(std::move(o)));
        break;
      }
      case Command::kBatchCancel: {
        std::size_t cancelled = 0;
        std::string why;
        if (!server.group_cancel(req.id, &cancelled, &why)) {
          stream.write_line(make_error(why));
          break;
        }
        json::Object o;
        o.emplace_back("cancelled", static_cast<std::uint64_t>(cancelled));
        stream.write_line(make_ok(std::move(o)));
        break;
      }
      case Command::kShutdown: {
        XP_INFO("shutdown requested over socket (drain=%d)",
                req.drain ? 1 : 0);
        server.shutdown(req.drain);  // blocks until workers exit
        json::Object o;
        o.emplace_back("drained", json::Value(req.drain));
        stream.write_line(make_ok(std::move(o)));
        state.stopping.store(true);
        ::shutdown(state.listen_fd, SHUT_RDWR);  // unblock accept()
        return;
      }
    }
  }
}

}  // namespace

bool serve(PlacementServer& server, const std::string& socket_path) {
  sockaddr_un addr;
  if (!fill_addr(socket_path, &addr)) {
    XP_ERROR("invalid socket path '%s' (max %zu bytes)", socket_path.c_str(),
             sizeof(addr.sun_path) - 1);
    return false;
  }
  const int listen_fd = make_socket();
  if (listen_fd < 0) {
    XP_ERROR("socket(): %s", std::strerror(errno));
    return false;
  }
  ::unlink(socket_path.c_str());  // stale socket from a previous run
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listen_fd, 16) != 0) {
    XP_ERROR("bind/listen on '%s': %s", socket_path.c_str(),
             std::strerror(errno));
    ::close(listen_fd);
    return false;
  }
  XP_INFO("listening on %s", socket_path.c_str());

  ServeState state;
  state.listen_fd = listen_fd;
  std::vector<std::thread> handlers;

  while (!state.stopping.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (shutdown command) or hard error
    }
    handlers.emplace_back(
        [&server, &state, fd] { handle_connection(server, state, fd); });
  }

  state.kick_all();  // unblock handlers parked on idle connections
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
  XP_INFO("daemon exiting");
  return true;
}

}  // namespace xplace::server
