#include "attribution.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "dp/detailed_placer.h"
#include "dp/global_swap.h"
#include "dp/ism.h"
#include "dp/local_reorder.h"
#include "io/bookshelf.h"
#include "io/checkpoint_io.h"
#include "lg/abacus.h"
#include "lg/checker.h"
#include "ops/density.h"
#include "ops/electrostatics.h"
#include "ops/netlist_view.h"
#include "ops/parallel.h"
#include "ops/wirelength.h"
#include "tensor/dispatch.h"
#include "util/execution.h"

namespace perfbench {

using namespace xplace;

core::PlacerConfig placer_config(const FlowConfig& fc) {
  core::PlacerConfig cfg = core::PlacerConfig::xplace();
  cfg.grid_dim = fc.grid;
  cfg.threads = fc.threads;
  cfg.seed = fc.placer_seed;
  return cfg;
}

FlowRecord run_flow(const FlowConfig& fc, SpanLog& spans, Capture* capture,
                    db::Database* after_lg, db::Database* after_dp) {
  FlowRecord r;
  Timed request(spans, "request");

  Timed parse(spans, "io.parse");
  db::Database db = io::read_bookshelf_aux(fc.aux);
  r.parse_s = parse.stop();

  core::PlacerConfig cfg = placer_config(fc);
  if (capture != nullptr) {
    cfg.checkpoint_out = capture->path;
    cfg.checkpoint_period = capture->period;
  }
  Timed init(spans, "core.init");
  core::GlobalPlacer placer(db, cfg);
  r.init_s = init.stop();
  if (capture != nullptr) {
    placer.set_checkpoint_observer([capture](int next_iter,
                                             const std::string& path) {
      const core::RunCheckpoint ck = io::read_checkpoint(path);
      Point p;
      p.iter = next_iter;
      p.gamma = static_cast<float>(ck.gamma);
      p.x = ck.optimizer.array("v_x");
      p.y = ck.optimizer.array("v_y");
      capture->points.push_back(std::move(p));
    });
  }

  tensor::Dispatcher& disp = tensor::Dispatcher::global();
  disp.reset_counters();
  Timed gp(spans, "core.gp");
  const core::GlobalPlaceResult res = placer.run();
  r.gp_s = gp.stop();
  r.launches = disp.launch_counts();
  r.launches_total = disp.total_launches();
  const ExecutionContext& exec = placer.execution();
  if (const ThreadPool* pool = exec.pool()) {
    const ThreadPool::Stats st = pool->stats();
    r.pool_dispatches = st.dispatches;
    r.pool_busy_s = st.busy_seconds;
    r.pool_size = pool->size();
  }
  r.iters = res.iterations;
  r.stop = core::to_string(res.stop_reason);
  r.gp_hpwl = res.hpwl;

  Timed lg_t(spans, "lg.abacus");
  const lg::LegalizeStats lgs = lg::abacus_legalize(db, &exec);
  r.lg_s = lg_t.stop();
  r.lg_failed = lgs.failed_cells;
  r.lg_avg_disp = lgs.avg_displacement;
  if (after_lg != nullptr) *after_lg = db;

  Timed dp_t(spans, "dp");
  const dp::DetailedPlaceResult dps = dp::detailed_place(db, {}, &exec);
  r.dp_s = dp_t.stop();
  r.dp_moves = dps.moves_accepted;
  r.dp_hpwl_before = dps.hpwl_before;
  request.stop();

  // Correctness checks, outside every timed span.
  r.hpwl = db.hpwl();
  r.legal = lg::check_legality(db).legal();
  if (res.stop_reason != core::StopReason::kConverged) {
    r.why = std::string("GP stopped: ") + r.stop;
  } else if (!r.legal) {
    r.why = "illegal placement after DP";
  } else if (r.lg_failed != 0) {
    r.why = "legalizer left cells unplaced";
  } else if (!std::isfinite(r.hpwl) || !std::isfinite(r.gp_hpwl)) {
    r.why = "non-finite HPWL";
  }
  r.ok = r.why.empty();
  if (after_dp != nullptr) *after_dp = std::move(db);
  return r;
}

void write_flow(Json& j, const FlowRecord& r) {
  j.begin_object()
      .field("parse_s", r.parse_s)
      .field("init_s", r.init_s)
      .field("gp_s", r.gp_s)
      .field("lg_s", r.lg_s)
      .field("dp_s", r.dp_s)
      .field("iters", r.iters)
      .field("stop", r.stop)
      .field("gp_hpwl", r.gp_hpwl)
      .field("hpwl", r.hpwl)
      .field("legal", r.legal)
      .field("lg_failed", static_cast<std::uint64_t>(r.lg_failed))
      .field("lg_avg_disp", r.lg_avg_disp)
      .field("dp_moves", static_cast<std::uint64_t>(r.dp_moves))
      .field("dp_hpwl_before", r.dp_hpwl_before)
      .field("launches_total", r.launches_total)
      .field("pool_dispatches", r.pool_dispatches)
      .field("pool_busy_s", r.pool_busy_s)
      .field("pool_size", static_cast<std::uint64_t>(r.pool_size))
      .field("ok", r.ok)
      .field("why", r.why);
  j.key("launches").begin_object();
  for (const auto& [name, count] : r.launches) j.field(name, count);
  j.end_object();
  j.end_object();
}

namespace {

/// Per-call seconds of `fn`: one warm-up call, then individually timed calls
/// until at least 5 calls and 100 ms are collected (at most 400 calls).
template <typename Fn>
std::vector<double> time_calls(Fn&& fn) {
  fn();
  std::vector<double> calls;
  double total = 0.0;
  while ((calls.size() < 5 || total < 0.1) && calls.size() < 400) {
    const double t0 = now_s();
    fn();
    const double dt = now_s() - t0;
    calls.push_back(dt);
    total += dt;
  }
  return calls;
}

/// One GP kernel the attribution times: its layer, the dispatcher op whose
/// launch count weights it, and samples[threads index][point][call].
struct Kernel {
  const char* name;
  const char* layer;
  const char* op;
  std::vector<std::vector<std::vector<double>>> samples{2};
};

/// Times every GP kernel at 1 and 4 threads on each captured point. The
/// calls are the public kernels GradientEngine::density_pass and
/// wirelength_pass launch, over the same cell ranges.
void time_kernels(const db::Database& db, int m, const std::vector<Point>& pts,
                  SpanLog& spans, Json& j) {
  const ops::NetlistView view = ops::build_netlist_view(db);
  const ops::DensityGrid grid(db, m);
  ops::PoissonSolver solver(m, grid.bin_w(), grid.bin_h());
  const ExecutionContext four = ExecutionContext::threaded(4);
  const std::size_t n_mov = db.num_movable();
  const std::size_t n_phys = db.num_physical();
  const std::size_t n_tot = db.num_cells_total();
  std::vector<float> gx(n_tot, 0.0f), gy(n_tot, 0.0f);
  std::vector<double> map_phys(grid.num_bins()), map_fill(grid.num_bins()),
      map_total(grid.num_bins());

  Kernel kernels[] = {
      {"wl", "ops.wl", "fused_wl_grad_hpwl"},
      {"scatter_physical", "ops.scatter", "density.map_physical"},
      {"scatter_filler", "ops.scatter", "density.map_filler"},
      {"solve", "fft.solve", "es.dct2"},
      {"gather_movable", "ops.gather", "dgrad.gather_movable"},
      {"gather_filler", "ops.gather", "dgrad.gather_filler"},
  };
  const int thread_counts[2] = {1, 4};
  for (int ti = 0; ti < 2; ++ti) {
    ThreadPool* pool = ti == 0 ? nullptr : four.pool();
    solver.set_pool(pool);
    Timed block(spans, "kernels.t" + std::to_string(thread_counts[ti]));
    for (const Point& p : pts) {
      if (p.x.size() != n_tot || p.y.size() != n_tot) {
        throw std::runtime_error("captured positions do not match the design");
      }
      const float* x = p.x.data();
      const float* y = p.y.data();
      auto& s = kernels;
      s[0].samples[ti].push_back(time_calls([&] {
        if (pool != nullptr) {
          ops::fused_wl_grad_hpwl_mt(view, x, y, p.gamma, gx.data(), gy.data(),
                                     *pool);
        } else {
          ops::fused_wl_grad_hpwl(view, x, y, p.gamma, gx.data(), gy.data());
        }
      }));
      const auto scatter = [&](const char* op, std::size_t b, std::size_t e,
                               std::vector<double>& map) {
        return time_calls([&] {
          if (pool != nullptr) {
            ops::accumulate_range_mt(grid, op, x, y, b, e, map.data(), true,
                                     *pool);
          } else {
            grid.accumulate_range(op, x, y, b, e, map.data(), true);
          }
        });
      };
      s[1].samples[ti].push_back(
          scatter("density.map_physical", 0, n_phys, map_phys));
      s[2].samples[ti].push_back(
          scatter("density.map_filler", n_phys, n_tot, map_fill));
      for (std::size_t b = 0; b < map_total.size(); ++b) {
        map_total[b] = map_phys[b] + map_fill[b];
      }
      s[3].samples[ti].push_back(
          time_calls([&] { solver.solve(map_total.data(), false); }));
      const double* ex = solver.ex().data();
      const double* ey = solver.ey().data();
      const auto gather = [&](const char* op, std::size_t b, std::size_t e) {
        return time_calls([&] {
          if (pool != nullptr) {
            ops::gather_field_mt(grid, op, x, y, b, e, ex, ey, -1.0f,
                                 gx.data(), gy.data(), *pool);
          } else {
            grid.gather_field(op, x, y, b, e, ex, ey, -1.0f, gx.data(),
                              gy.data());
          }
        });
      };
      s[4].samples[ti].push_back(gather("dgrad.gather_movable", 0, n_mov));
      s[5].samples[ti].push_back(gather("dgrad.gather_filler", n_phys, n_tot));
    }
  }

  j.key("points").begin_array();
  for (const Point& p : pts) j.value(p.iter);
  j.end_array();
  j.field("grid", m);
  j.key("kernels").begin_object();
  for (const Kernel& k : kernels) {
    j.key(k.name).begin_object().field("layer", k.layer).field("op", k.op);
    for (int ti = 0; ti < 2; ++ti) {
      j.key(std::to_string(thread_counts[ti])).begin_array();
      for (const auto& calls : k.samples[ti]) {
        j.begin_array();
        for (double c : calls) j.value(c);
        j.end_array();
      }
      j.end_array();
    }
    j.end_object();
  }
  j.end_object();
}

/// Replays detailed_place's round structure pass by pass on the legalized
/// placement, timing each *_pass call. The replay must land on the same
/// HPWL as the flow's own detailed_place call.
void dp_replay(db::Database db, int threads, double expect_hpwl,
               SpanLog& spans, Json& j) {
  const ExecutionContext exec = ExecutionContext::from_threads(threads);
  const dp::DetailedPlaceConfig cfg;
  const double row_h = db.rows().empty() ? 12.0 : db.rows().front().height;
  const double radius = cfg.swap_radius_rows * row_h;
  std::vector<double> gs, ism, lr;
  std::size_t moves = 0;
  Timed all(spans, "dp.replay");
  const double before = db.hpwl();
  double prev = before;
  for (int round = 0; round < cfg.max_rounds; ++round) {
    {
      Timed t(spans, "dp.global_swap");
      moves += dp::global_swap_pass(db, radius).moves_accepted;
      gs.push_back(t.stop());
    }
    {
      Timed t(spans, "dp.ism");
      moves += dp::ism_pass(db, cfg.ism_max_set).moves_accepted;
      ism.push_back(t.stop());
    }
    {
      Timed t(spans, "dp.local_reorder");
      moves += dp::local_reorder_pass(db, cfg.reorder_window, &exec)
                   .moves_accepted;
      lr.push_back(t.stop());
    }
    const double cur = db.hpwl();
    if (prev - cur < cfg.min_improvement * prev) break;
    prev = cur;
  }
  const double seconds = all.stop();
  const double after = db.hpwl();
  j.key("dp_replay").begin_object().field("s", seconds);
  j.array("global_swap_s", gs).array("ism_s", ism).array("local_reorder_s", lr);
  j.field("moves", static_cast<std::uint64_t>(moves))
      .field("hpwl_before", before)
      .field("hpwl_after", after)
      .field("matches_flow", after == expect_hpwl)
      .end_object();
}

}  // namespace

FlowRecord trace_layers(const FlowConfig& fc, const Options& opt,
                        SpanLog& spans, Json& j) {
  // Reference flows: identical trajectories (deterministic at a fixed thread
  // count), so the one with the median GP time stands for all of them.
  constexpr std::size_t kReferences = 3;
  std::vector<FlowRecord> refs;
  std::vector<db::Database> legalized(kReferences);
  for (std::size_t i = 0; i < kReferences; ++i) {
    spans.set_request(1 + i);
    refs.push_back(run_flow(fc, spans, nullptr, &legalized[i], nullptr));
  }
  std::vector<std::size_t> order{0, 1, 2};
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return refs[a].gp_s < refs[b].gp_s;
  });
  const std::size_t mid = order[kReferences / 2];
  const FlowRecord& ref = refs[mid];
  bool deterministic = true;
  for (const FlowRecord& r : refs) {
    deterministic = deterministic && r.iters == ref.iters && r.hpwl == ref.hpwl;
  }

  Capture cap;
  cap.path = opt.dir + "/capture.xpck";
  cap.period = std::max(1, ref.iters / 4);
  db::Database after_dp;
  spans.set_request(1 + kReferences);
  const FlowRecord captured = run_flow(fc, spans, &cap, nullptr, &after_dp);

  j.key("layers").begin_object();
  j.field("threads", fc.threads);
  j.key("reference");
  write_flow(j, ref);
  j.key("references").begin_array();
  for (const FlowRecord& r : refs) write_flow(j, r);
  j.end_array();
  j.key("captured");
  write_flow(j, captured);
  // Repeats must follow one trajectory, and capturing positions must not
  // perturb the trajectory it samples.
  j.field("same_trajectory", deterministic && captured.iters == ref.iters &&
                                 captured.hpwl == ref.hpwl);
  spans.set_request(2 + kReferences);
  time_kernels(after_dp, fc.grid, cap.points, spans, j);
  dp_replay(std::move(legalized[mid]), fc.threads, ref.hpwl, spans, j);
  j.end_object();
  return ref;
}

}  // namespace perfbench
