// One placement request (parse → GP → LG → DP → legality check) timed from
// the outside, and the traced run's per-layer attribution of GP time.
//
// GP's sub-layers (wirelength, density scatter, spectral solve, field gather)
// run inside GlobalPlacer::run(), so they cannot be timed around calls from
// here. The traced run instead captures positions from the run's own
// trajectory (the placer's periodic checkpoint), times each public kernel on
// those positions at 1 and at 4 threads, and weights the per-call time by the
// run's Dispatcher::launch_counts(). What no kernel claims is reported as the
// GP residual.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/placer.h"
#include "db/database.h"
#include "harness.h"

namespace perfbench {

struct FlowConfig {
  std::string aux;   ///< Bookshelf design the request parses
  int grid = 128;
  int threads = 1;
  std::uint64_t placer_seed = 1;
};

/// The placer configuration every request of the benchmark uses (the
/// xplace defaults, like place_bookshelf and the server's jobs).
xplace::core::PlacerConfig placer_config(const FlowConfig& fc);

/// Positions (the optimizer's gradient-evaluation point) at one iteration.
struct Point {
  int iter = 0;
  float gamma = 0.0f;
  std::vector<float> x, y;
};

/// Position capture through the placer's checkpoint observer.
struct Capture {
  std::string path;  ///< checkpoint file the placer writes
  int period = 0;    ///< iterations between captures
  std::vector<Point> points;
};

struct FlowRecord {
  double parse_s = 0.0, init_s = 0.0, gp_s = 0.0, lg_s = 0.0, dp_s = 0.0;
  int iters = 0;
  std::string stop;
  double gp_hpwl = 0.0;
  double hpwl = 0.0;  ///< HPWL after DP
  bool legal = false;
  std::size_t lg_failed = 0;
  double lg_avg_disp = 0.0;
  std::size_t dp_moves = 0;
  double dp_hpwl_before = 0.0;
  // Dispatcher launches during run() and the flow pool's GP-time counters.
  std::map<std::string, std::uint64_t> launches;
  std::uint64_t launches_total = 0;
  std::uint64_t pool_dispatches = 0;
  double pool_busy_s = 0.0;
  std::size_t pool_size = 1;
  bool ok = false;
  std::string why;  ///< first failed check, "" when ok
};

/// Runs one request. `capture` (nullable) records trajectory positions;
/// `after_lg` / `after_dp` (nullable) receive copies of the database at
/// those points.
FlowRecord run_flow(const FlowConfig& fc, SpanLog& spans, Capture* capture,
                    xplace::db::Database* after_lg,
                    xplace::db::Database* after_dp);

void write_flow(Json& j, const FlowRecord& r);

/// The traced run's GP/LG/DP attribution for one request: a reference flow
/// (launch counts, pool counters), a position-capturing repeat, kernel call
/// times at 1 and 4 threads on the captured positions, and a pass-by-pass
/// DP replay. Writes the "layers" object and returns the reference flow.
FlowRecord trace_layers(const FlowConfig& fc, const Options& opt,
                        SpanLog& spans, Json& j);

/// Submits the request once to an in-process PlacementServer with one slot
/// and the flow's thread count, and writes the "server" object. The served
/// DP HPWL must equal `expect_hpwl` bitwise (same design, config, threads).
void serve_once(const FlowConfig& fc, double expect_hpwl, SpanLog& spans,
                Json& j);

/// The place_bookshelf demo design generator (cells, nets = 1.05 × cells).
xplace::db::Database demo_design(std::size_t cells, std::uint64_t seed);

}  // namespace perfbench
