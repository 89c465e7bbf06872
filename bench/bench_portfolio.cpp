// bench_portfolio: quantifies the local-optima-escape subsystem (DESIGN.md
// §16) on the demo design — single GP run vs the hill-climb kick vs the
// best of a K-way perturbed-restart portfolio — and emits the shared
// bench-JSON schema so check_regression can gate the committed
// BENCH_portfolio.json baseline.
//
//   bench_portfolio [--cells 3000] [--iters 800] [--k 4] [--seed 1]
//                   [--json BENCH_portfolio.json]
//
// All gated rows are bitwise-deterministic: serial backend, fixed seeds, and
// the portfolio runs under a no-kill policy (racing reclaims core-seconds but
// its kill timing is wall-clock-dependent — the tier1-portfolio CI lane
// covers that path over the socket). HPWL values ride the schema's
// ns_per_iter field; core-second rows carry wide tolerance bands.
#include <cstdio>
#include <string>
#include <vector>

#include "core/placer.h"
#include "io/generator.h"
#include "server/server.h"
#include "util/arg_parser.h"

namespace {

using namespace xplace;

struct Row {
  std::string kernel;
  double value = 0.0;
  double tolerance = 0.0;
};

// The exact config mapping run_job applies to a portfolio member's JobSpec,
// so the core-level runs and the served members are apples-to-apples.
core::PlacerConfig job_cfg(int iters, std::uint64_t seed) {
  core::PlacerConfig cfg = core::PlacerConfig::xplace();
  cfg.grid_dim = 64;
  cfg.max_iters = iters;
  cfg.threads = 1;
  cfg.seed = seed;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args(argc, argv);
  if (!args.ok()) {
    for (const std::string& e : args.errors()) {
      std::fprintf(stderr, "%s\n", e.c_str());
    }
    return 2;
  }
  const long cells = args.get_int("cells", 3000);
  const int iters = static_cast<int>(args.get_int("iters", 800));
  const int k = static_cast<int>(args.get_int("k", 4));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));
  const std::uint64_t demo_seed = 11;

  const auto snap =
      io::make_demo_snapshot(static_cast<std::size_t>(cells), demo_seed);

  // ---- baseline: one GP run at the base seed ------------------------------
  core::GlobalPlacer single(snap, job_cfg(iters, seed));
  const core::GlobalPlaceResult r_single = single.run();

  // ---- cheap escape: the same run + hill-climb kicks ----------------------
  core::PlacerConfig kick_cfg = job_cfg(iters, seed);
  kick_cfg.kicks = 2;
  core::GlobalPlacer kicked(snap, kick_cfg);
  const core::GlobalPlaceResult r_kick = kicked.run();

  // ---- full escape: K-way perturbed-restart portfolio through the server --
  server::ServerConfig scfg;
  scfg.max_concurrency = static_cast<std::size_t>(k);
  scfg.portfolio_poll_s = -1.0;  // no racing: keep the gated rows bitwise
  server::PlacementServer srv(scfg);
  server::JobSpec src;
  src.demo_cells = cells;
  src.demo_seed = demo_seed;
  const auto up = srv.upload_design(src);
  if (!up.ok) {
    std::fprintf(stderr, "upload failed: %s\n", up.error.c_str());
    return 1;
  }
  server::JobSpec base;
  base.design_hash = up.hash;
  base.max_iters = iters;
  base.grid = 64;
  base.seed = seed;
  base.full_flow = false;
  base.label = "bench";
  server::RacePolicy no_kill;
  no_kill.no_kill = true;
  const auto out = srv.submit_portfolio(base, k, 0.0, no_kill);
  if (!out.ok) {
    std::fprintf(stderr, "submit-portfolio failed: %s\n", out.error.c_str());
    return 1;
  }
  const auto st = srv.group_wait(out.id, 3600.0);
  if (!st || !st->all_terminal || st->best_job == 0) {
    std::fprintf(stderr, "portfolio did not settle\n");
    return 1;
  }
  double portfolio_core_s = 0.0;
  for (const auto& ref : out.jobs) {
    if (const auto rec = srv.status(ref.id)) portfolio_core_s += rec->gp_seconds;
  }
  const double winner_hpwl = st->best_hpwl;
  srv.shutdown(/*drain=*/true);

  const double vs_single = 100.0 * (r_single.hpwl - winner_hpwl) / r_single.hpwl;
  const double kick_vs_single = 100.0 * (r_single.hpwl - r_kick.hpwl) / r_single.hpwl;
  std::printf("single     : hpwl %.1f  (%.2f core-s)\n", r_single.hpwl,
              r_single.gp_seconds);
  std::printf("kicks x2   : hpwl %.1f  (%.2f core-s, %+.2f%% vs single)\n",
              r_kick.hpwl, r_kick.gp_seconds, kick_vs_single);
  std::printf("best of %d  : hpwl %.1f  (%.2f core-s, %+.2f%% vs single)\n", k,
              winner_hpwl, portfolio_core_s, vs_single);

  std::vector<Row> rows = {
      {"portfolio.single_hpwl", r_single.hpwl, 0.02},
      {"portfolio.kick_hpwl", r_kick.hpwl, 0.02},
      {"portfolio.best_of_k_hpwl", winner_hpwl, 0.02},
      // Quality ratio the subsystem exists for: > 1 means the portfolio
      // escaped the single run's basin. Deterministic, so the band is tight.
      {"portfolio.single_over_winner", r_single.hpwl / winner_hpwl, 0.02},
      // Wall-clock rows are informational: shared runners are noisy.
      {"portfolio.single_core_s", r_single.gp_seconds * 1e9, 3.0},
      {"portfolio.total_core_s", portfolio_core_s * 1e9, 3.0},
  };

  if (const std::string json = args.get("json"); !json.empty()) {
    std::FILE* f = std::fopen(json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"bench_portfolio\",\n"
                    "  \"cells\": %ld,\n  \"iters\": %d,\n  \"k\": %d,\n"
                    "  \"results\": [\n", cells, iters, k);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"backend\": \"serve\", "
                   "\"threads\": 1, \"simd\": \"n/a\", \"ns_per_iter\": %.6f, "
                   "\"tolerance\": %.2f}%s\n",
                   rows[i].kernel.c_str(), rows[i].value, rows[i].tolerance,
                   i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("json written to %s\n", json.c_str());
  }
  return 0;
}
