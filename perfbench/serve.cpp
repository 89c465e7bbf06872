// serve_mix: an in-process PlacementServer with 3 slots × 1 job thread, fed
// by an open-loop generator on this thread (3 + 1 threads = a 4-core box).
//
// Arrivals are seeded exponential inter-arrival gaps at a fixed rate (about
// 70% of the measured capacity). Each job is a full flow on one of 8
// generated demo designs of 1k–4k cells, with its own placer seed, so result
// dedup never fires and the design store parses each design once. Each job
// is timed from its due time to the moment the generator sees it terminal
// (the generator polls job status every millisecond).
//
// The traffic (arrival times, design order) and the designs are the same for
// every workload seed; the seed sets the jobs' placer seeds. Queueing at 70%
// load amplifies arrival-pattern differences far beyond the effect of any
// placer change, so a per-seed schedule would drown the signal.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>

#include "attribution.h"
#include "io/bookshelf.h"
#include "server/server.h"
#include "util/rng.h"

namespace perfbench {

using namespace xplace;

namespace {

constexpr std::size_t kSlots = 3;
constexpr int kJobThreads = 1;
constexpr int kDesigns = 8;
/// Fixed arrival rate, jobs/s: about 70% of the capacity measured for this
/// mix on a 4-core x86-64 VM (3 slots / 0.80 s mean job run time = 3.8
/// jobs/s). Fixed, so a faster placer shows up as lower latency, not as
/// more load.
constexpr double kRate = 2.6;
/// p90 is reported only with at least 10 samples beyond it; a multiple of
/// kDesigns so every design gets the same share.
constexpr std::size_t kMinJobs = 112;
constexpr int kSetupReps = 8;
/// Seeds of the fixed traffic schedule and of the 8 designs.
constexpr std::uint64_t kScheduleSeed = 2022;
constexpr std::uint64_t kDesignSeed = 11;
constexpr double kPollS = 0.001;
/// The generator gives up on jobs still open after this long.
constexpr double kGiveUpS = 150.0;

std::size_t design_cells(int i) {
  return static_cast<std::size_t>(std::lround(1000.0 * std::pow(4.0, i / 7.0)));
}

std::string design_aux(const Options& opt, int i) {
  return opt.dir + "/designs/d" + std::to_string(i) + "/design.aux";
}

server::ServerConfig server_config(std::size_t slots, int threads,
                                   std::size_t jobs) {
  server::ServerConfig sc;
  sc.max_concurrency = slots;
  sc.default_job_threads = threads;
  sc.thread_budget = slots * static_cast<std::size_t>(threads);
  sc.queue_capacity = jobs + 8;
  sc.result_capacity = jobs + 8;
  sc.portfolio_poll_s = 0.0;  // no portfolios in this mix: no racer thread
  return sc;
}

/// What the generator saw of one job.
struct Observed {
  int design = 0;
  std::uint64_t placer_seed = 0;
  double due_s = 0.0, submit_s = 0.0, seen_s = 0.0;
  bool rejected = false;
  std::string error;
  std::optional<server::JobRecord> rec;
};

/// The job as submitted, and the one-shot flow that must reproduce it.
server::JobSpec job_spec(const Options& opt, const Observed& o) {
  server::JobSpec spec;
  spec.aux = design_aux(opt, o.design);
  spec.seed = o.placer_seed;
  return spec;
}

FlowConfig one_shot(const server::JobSpec& spec) {
  return {spec.aux, spec.grid, kJobThreads, spec.seed};
}

bool job_ok(const Observed& o, std::string* why) {
  if (o.rejected) { *why = "rejected: " + o.error; return false; }
  if (!o.rec) { *why = "not terminal before the generator gave up"; return false; }
  const server::JobRecord& r = *o.rec;
  if (r.state != server::JobState::kDone) {
    *why = std::string("state ") + server::to_string(r.state) + " " + r.error;
    return false;
  }
  if (r.stop_reason != core::StopReason::kConverged) {
    *why = std::string("GP stopped: ") + core::to_string(r.stop_reason);
    return false;
  }
  if (r.attempt != 0) { *why = "retried after divergence"; return false; }
  if (!r.legalized) { *why = "not legalized"; return false; }
  if (!std::isfinite(r.dp_hpwl) || !std::isfinite(r.hpwl)) {
    *why = "non-finite HPWL";
    return false;
  }
  return true;
}

void write_job(Json& j, const Observed& o, std::size_t cells) {
  std::string why;
  const bool ok = job_ok(o, &why);
  j.begin_object()
      .field("design", o.design)
      .field("cells", static_cast<std::uint64_t>(cells))
      .field("due_s", o.due_s)
      .field("submit_s", o.submit_s)
      .field("seen_s", o.seen_s);
  if (o.rec) {
    const server::JobRecord& r = *o.rec;
    j.field("submitted_s", r.submitted_s)
        .field("started_s", r.started_s)
        .field("finished_s", r.finished_s)
        .field("state", server::to_string(r.state))
        .field("stop", core::to_string(r.stop_reason))
        .field("iters", r.iterations)
        .field("gp_s", r.gp_seconds)
        .field("dp_hpwl", r.dp_hpwl);
  }
  j.field("ok", ok).field("why", why).end_object();
}

/// Job lifecycle spans from the generator's and the record's timestamps.
void job_spans(SpanLog& spans, const Observed& o, std::uint64_t request) {
  if (!spans.enabled() || !o.rec) return;
  const server::JobRecord& r = *o.rec;
  const int root = spans.add("job", o.due_s, o.seen_s, -1, request);
  spans.add("gen.late", o.due_s, o.submit_s, root, request);
  if (r.started_s > 0.0) {
    spans.add("server.queue", r.submitted_s, r.started_s, root, request);
    spans.add("server.run", r.started_s, r.finished_s, root, request);
  }
  spans.add("server.handoff", r.finished_s, o.seen_s, root, request);
}

void write_stats(Json& j, const server::PlacementServer::Stats& st) {
  j.key("stats").begin_object()
      .field("design_parses", st.design_parses)
      .field("design_cache_hits", st.design_cache_hits)
      .end_object();
}

}  // namespace

void serve_once(const FlowConfig& fc, double expect_hpwl, SpanLog& spans,
                Json& j) {
  server::PlacementServer srv(server_config(1, fc.threads, 1));
  server::JobSpec spec;
  spec.aux = fc.aux;
  spec.grid = fc.grid;
  spec.seed = fc.placer_seed;
  spec.threads = fc.threads;
  Observed o;
  o.due_s = now_s();
  const auto out = srv.submit(spec);
  o.submit_s = now_s();
  if (!out.ok) {
    o.rejected = true;
    o.error = out.error;
  } else {
    o.rec = srv.wait(out.id, kGiveUpS);
    o.seen_s = now_s();
    if (o.rec && !server::is_terminal(o.rec->state)) o.rec.reset();
  }
  const server::PlacementServer::Stats st = srv.stats();
  srv.shutdown(/*drain=*/false);
  job_spans(spans, o, 4);
  j.key("server").begin_object().field("slots", 1);
  j.key("jobs").begin_array();
  write_job(j, o, 0);
  j.end_array();
  write_stats(j, st);
  j.key("parity").begin_array();
  j.begin_object()
      .field("served", o.rec ? o.rec->dp_hpwl : 0.0)
      .field("oneshot", expect_hpwl)
      .field("equal", o.rec.has_value() && o.rec->dp_hpwl == expect_hpwl)
      .end_object();
  j.end_array();
  j.end_object();
}

void prepare_serve(const Options& opt) {
  for (int i = 0; i < kDesigns; ++i) {
    const db::Database db = demo_design(design_cells(i), kDesignSeed + i);
    const std::string dir = opt.dir + "/designs/d" + std::to_string(i);
    std::filesystem::create_directories(dir);
    io::write_bookshelf(db, dir, "design");
  }
}

void measure_serve(const Options& opt, Json& j) {
  const std::size_t want =
      static_cast<std::size_t>(std::lround(kRate * opt.seconds));
  const std::size_t n_jobs =
      std::max(kMinJobs, (want + kDesigns - 1) / kDesigns * kDesigns);
  SpanLog spans(opt.trace);
  j.field("kind", "serve")
      .field("slots", static_cast<std::uint64_t>(kSlots))
      .field("threads", kJobThreads);

  // Open-loop schedule: exponential gaps rescaled so the mean gap is exactly
  // 1/kRate, every design drawn equally often in a shuffled order, and a
  // placer seed per job derived from the workload seed.
  std::vector<Observed> jobs(n_jobs);
  {
    Rng rng(kScheduleSeed);
    std::vector<double> gaps(n_jobs);
    double sum = 0.0;
    for (double& g : gaps) sum += g = -std::log(1.0 - rng.uniform());
    double offset = 0.0;
    for (std::size_t i = 0; i < n_jobs; ++i) {
      offset += gaps[i] * static_cast<double>(n_jobs) / (sum * kRate);
      jobs[i].due_s = offset;
      jobs[i].design = static_cast<int>(i % kDesigns);
      jobs[i].placer_seed = opt.seed * 1000003ULL + i + 1;
    }
    for (std::size_t i = n_jobs; i > 1; --i) {  // Fisher-Yates on designs
      std::swap(jobs[i - 1].design, jobs[rng.uniform_index(i)].design);
    }
  }
  const server::ServerConfig sc = server_config(kSlots, kJobThreads, n_jobs);

  // Set-up: server construction (worker and retry threads, queue, design
  // store, telemetry handles) plus the upload of the 8 designs, i.e. the
  // work before the first job can start without a parse. Repeated; the
  // measured server adds one more sample. Teardown is not timed.
  j.key("setup").begin_array();
  const auto start_server = [&](std::optional<server::PlacementServer>& srv) {
    const double t0 = now_s();
    srv.emplace(sc);
    for (int i = 0; i < kDesigns; ++i) {
      server::JobSpec src;
      src.aux = design_aux(opt, i);
      const auto up = srv->upload_design(src);
      if (!up.ok) throw std::runtime_error("upload failed: " + up.error);
    }
    const double dt = now_s() - t0;
    j.begin_object().field("server_s", dt).end_object();
  };
  for (int r = 0; r < kSetupReps; ++r) {
    std::optional<server::PlacementServer> scratch;
    start_server(scratch);
  }
  std::optional<server::PlacementServer> live_srv;
  start_server(live_srv);
  j.end_array();
  server::PlacementServer& srv = *live_srv;
  const double cpu0 = process_cpu_s();
  const double t0 = now_s() + 0.01;
  for (Observed& o : jobs) o.due_s += t0;
  std::vector<std::pair<std::size_t, std::uint64_t>> live;  // (job, id)
  std::size_t next = 0, settled = 0;
  while (settled < n_jobs && now_s() - t0 < kGiveUpS) {
    while (next < n_jobs && jobs[next].due_s <= now_s()) {
      Observed& o = jobs[next];
      server::JobSpec spec = job_spec(opt, o);
      spec.label = "j" + std::to_string(next);
      const auto out = srv.submit(spec);
      o.submit_s = now_s();
      if (out.ok) {
        live.emplace_back(next, out.id);
      } else {
        o.rejected = true;
        o.error = out.error;
        ++settled;
      }
      ++next;
    }
    for (auto it = live.begin(); it != live.end();) {
      std::optional<server::JobRecord> rec = srv.status(it->second);
      if (rec && server::is_terminal(rec->state)) {
        jobs[it->first].seen_s = now_s();
        jobs[it->first].rec = std::move(rec);
        ++settled;
        it = live.erase(it);
      } else {
        ++it;
      }
    }
    double wake = now_s() + kPollS;
    if (next < n_jobs) wake = std::min(wake, jobs[next].due_s);
    const double nap = wake - now_s();
    if (nap > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(nap));
  }
  const double measure_s = now_s() - t0;
  const double cpu_s = process_cpu_s() - cpu0;
  const server::PlacementServer::Stats st = srv.stats();
  srv.shutdown(/*drain=*/false);

  j.key("jobs").begin_array();
  for (std::size_t i = 0; i < n_jobs; ++i) {
    write_job(j, jobs[i], design_cells(jobs[i].design));
    job_spans(spans, jobs[i], i + 1);
  }
  j.end_array();
  write_stats(j, st);
  j.field("measure_s", measure_s).field("cpu_s", cpu_s);

  // Served results must equal a one-shot run of the same design, config
  // and thread count, bit for bit: two sampled done jobs.
  std::vector<std::size_t> done;
  for (std::size_t i = 0; i < n_jobs; ++i) {
    std::string why;
    if (job_ok(jobs[i], &why)) done.push_back(i);
  }
  Rng pick(opt.seed + 99);
  j.key("parity").begin_array();
  for (int k = 0; k < 2 && !done.empty(); ++k) {
    const std::size_t at = pick.uniform_index(done.size());
    const Observed& o = jobs[done[at]];
    done.erase(done.begin() + static_cast<std::ptrdiff_t>(at));
    spans.set_request(900 + static_cast<std::uint64_t>(k));
    const FlowRecord one =
        run_flow(one_shot(job_spec(opt, o)), spans, nullptr, nullptr, nullptr);
    j.begin_object()
        .field("design", o.design)
        .field("served", o.rec->dp_hpwl)
        .field("oneshot", one.hpwl)
        .field("equal", one.hpwl == o.rec->dp_hpwl)
        .end_object();
  }
  j.end_array();

  if (opt.trace) {
    // GP/LG/DP layer attribution on one representative job (the 4th of 8
    // design sizes, ~1.8k cells) at the jobs' thread count, after the server
    // has stopped, so the process-global dispatcher sees a single flow.
    Observed rep;
    rep.design = 3;
    rep.placer_seed = opt.seed * 1000003ULL;
    trace_layers(one_shot(job_spec(opt, rep)), opt, spans, j);
    j.key("spans");
    write_spans(j, spans);
  }
  j.field("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
