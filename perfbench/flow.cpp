// Single-flow workloads: repeated parse → GP → LG → DP requests on one
// generated design, one request at a time.
//
//   flow_large    bigblue1 (ISPD 2005 class) at 1/8 scale, grid 128,
//                 4 threads — per-cell kernels dominate GP.
//   gp_fine_grid  the 4k-cell place_bookshelf demo design at grid 512,
//                 4 threads — the spectral solve dominates GP.
#include <filesystem>
#include <stdexcept>

#include "attribution.h"
#include "core/placer.h"
#include "io/bookshelf.h"
#include "io/suites.h"

namespace perfbench {

using namespace xplace;

namespace {

// Set-up-only repeats before the timed flows: at least 5, then more until
// 3 s of set-up time or 25 repeats.
constexpr int kMinSetupReps = 5;
constexpr int kMaxSetupReps = 25;
constexpr double kSetupBudgetS = 3.0;
constexpr int kMinFlows = 3;  // timed flows even when --seconds is short

struct FlowWorkload {
  int grid;
  int threads;
};

FlowWorkload flow_workload(const std::string& name) {
  if (name == "flow_large") return {128, 4};
  if (name == "gp_fine_grid") return {512, 4};
  throw std::invalid_argument("unknown flow workload: " + name);
}

std::string design_dir(const Options& opt) { return opt.dir + "/design"; }

}  // namespace

void prepare_flow(const Options& opt) {
  (void)flow_workload(opt.workload);
  const db::Database db = opt.workload == "flow_large"
                              ? io::make_design("bigblue1", 8.0)
                              : demo_design(4000, 11);
  std::filesystem::create_directories(design_dir(opt));
  io::write_bookshelf(db, design_dir(opt), "design");
}

void measure_flow(const Options& opt, Json& j) {
  const FlowWorkload w = flow_workload(opt.workload);
  // The workload seed reaches the program as the placer's run seed (filler
  // placement and initial-position noise); the design itself is fixed.
  const FlowConfig fc{design_dir(opt) + "/design.aux", w.grid, w.threads,
                      opt.seed + 1};
  SpanLog spans(opt.trace);
  j.field("kind", "flow").field("grid", w.grid).field("threads", w.threads);

  // Set-up: parse + GlobalPlacer construction (filler insertion, operator
  // and FFT plan set-up), repeated; the timed flows add one sample each.
  j.key("setup").begin_array();
  double setup_total = 0.0;
  for (int r = 0; r < kMinSetupReps ||
                  (r < kMaxSetupReps && setup_total < kSetupBudgetS);
       ++r) {
    spans.set_request(100 + static_cast<std::uint64_t>(r));
    Timed parse(spans, "io.parse");
    db::Database db = io::read_bookshelf_aux(fc.aux);
    const double parse_s = parse.stop();
    Timed init(spans, "core.init");
    const core::GlobalPlacer placer(db, placer_config(fc));
    const double init_s = init.stop();
    setup_total += parse_s + init_s;
    j.begin_object().field("parse_s", parse_s).field("init_s", init_s).end_object();
  }
  j.end_array();

  if (!opt.trace) {
    const double cpu0 = process_cpu_s();
    const double t0 = now_s();
    j.key("flows").begin_array();
    for (int n = 0; n < kMinFlows || now_s() - t0 < opt.seconds; ++n) {
      write_flow(j, run_flow(fc, spans, nullptr, nullptr, nullptr));
    }
    j.end_array();
    j.field("measure_s", now_s() - t0).field("cpu_s", process_cpu_s() - cpu0);
  } else {
    const FlowRecord ref = trace_layers(fc, opt, spans, j);
    serve_once(fc, ref.hpwl, spans, j);
    j.key("spans");
    write_spans(j, spans);
  }
  j.field("peak_rss_mb", peak_rss_mb());
}

}  // namespace perfbench
