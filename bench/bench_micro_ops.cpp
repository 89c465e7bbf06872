// M1 — operator micro-benchmarks (google-benchmark): the kernel-level costs
// behind Table 3's ablation.
//
//   * fused WL+grad+HPWL vs the three separate kernels vs the tape-decomposed
//     elementary-op graph (operator combination / reduction),
//   * extracted vs joint density accumulation (operator extraction),
//   * the spectral Poisson solve with and without the potential synthesis,
//   * FFT/DCT transform costs across grid sizes.
//
// `--json <path>` switches to the SIMD A/B mode: the four hot kernel classes
// (fused WA, density scatter, elementwise axpy, DCT pass) are timed under the
// forced-scalar and (if the CPU has it) AVX2 backends, and a machine-readable
// record {kernel, backend, threads, simd, ns_per_iter} per run is written to
// <path> (see BENCH_simd.json / EXPERIMENTS.md).
//
// `--json-fft <path>` is the transform-level A/B mode for the plan-based
// FFT/DCT engine: dct2 / idct2 / idxst_idct and the full Poisson solve at
// m=256 are timed under scalar/AVX2 × serial/pooled, with bytes_per_iter
// estimates alongside ns_per_iter (see BENCH_fft.json).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "fft/dct.h"
#include "fft/fft.h"
#include "io/generator.h"
#include "ops/density.h"
#include "ops/electrostatics.h"
#include "ops/netlist_view.h"
#include "ops/wirelength.h"
#include "ops/wirelength_tape.h"
#include "tensor/tape.h"
#include "util/arg_parser.h"
#include "util/rng.h"
#include "util/simd.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace xplace;

struct Fixture {
  db::Database db;
  ops::NetlistView view;
  std::vector<float> x, y, gx, gy;

  explicit Fixture(std::size_t cells) {
    io::GeneratorSpec spec;
    spec.name = "micro";
    spec.num_cells = cells;
    spec.num_nets = cells + cells / 20;
    spec.seed = 7;
    db = io::generate(spec);
    db.insert_fillers(1);
    view = ops::build_netlist_view(db);
    const std::size_t n = db.num_cells_total();
    x.resize(n);
    y.resize(n);
    for (std::size_t c = 0; c < n; ++c) {
      x[c] = static_cast<float>(db.x(c));
      y[c] = static_cast<float>(db.y(c));
    }
    gx.assign(n, 0.0f);
    gy.assign(n, 0.0f);
  }
};

Fixture& fixture() {
  static Fixture f(8000);
  return f;
}

void BM_WirelengthFused(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    std::fill(f.gx.begin(), f.gx.end(), 0.0f);
    std::fill(f.gy.begin(), f.gy.end(), 0.0f);
    const ops::WirelengthSums sums =
        ops::fused_wl_grad_hpwl(f.view, f.x.data(), f.y.data(), 8.0f,
                                f.gx.data(), f.gy.data());
    benchmark::DoNotOptimize(sums);
  }
}
BENCHMARK(BM_WirelengthFused);

void BM_WirelengthSeparate(benchmark::State& state) {
  Fixture& f = fixture();
  for (auto _ : state) {
    std::fill(f.gx.begin(), f.gx.end(), 0.0f);
    std::fill(f.gy.begin(), f.gy.end(), 0.0f);
    const double wl = ops::wa_wirelength(f.view, f.x.data(), f.y.data(), 8.0f);
    ops::wa_gradient(f.view, f.x.data(), f.y.data(), 8.0f, f.gx.data(), f.gy.data());
    const double h = ops::hpwl(f.view, f.x.data(), f.y.data());
    benchmark::DoNotOptimize(wl + h);
  }
}
BENCHMARK(BM_WirelengthSeparate);

void BM_WirelengthTapeAutograd(benchmark::State& state) {
  Fixture& f = fixture();
  ops::TapeWirelength tape_wl(f.view);
  tensor::Tape tape;
  for (auto _ : state) {
    std::fill(f.gx.begin(), f.gx.end(), 0.0f);
    std::fill(f.gy.begin(), f.gy.end(), 0.0f);
    const double wl = tape_wl.forward(tape, f.x.data(), f.y.data(), 8.0f,
                                      f.gx.data(), f.gy.data());
    tape.backward();
    const double h = tape_wl.hpwl_op(f.x.data(), f.y.data());
    benchmark::DoNotOptimize(wl + h);
  }
}
BENCHMARK(BM_WirelengthTapeAutograd);

void BM_DensityExtracted(benchmark::State& state) {
  Fixture& f = fixture();
  ops::DensityGrid grid(f.db, 128);
  std::vector<double> d(grid.num_bins()), dfl(grid.num_bins()), total(grid.num_bins());
  for (auto _ : state) {
    grid.accumulate_range("m.d", f.x.data(), f.y.data(), 0, f.db.num_physical(),
                          d.data(), true);
    grid.accumulate_range("m.dfl", f.x.data(), f.y.data(), f.db.num_physical(),
                          f.db.num_cells_total(), dfl.data(), true);
    for (std::size_t b = 0; b < total.size(); ++b) total[b] = d[b] + dfl[b];
    benchmark::DoNotOptimize(grid.overflow(d.data()));
  }
}
BENCHMARK(BM_DensityExtracted);

void BM_DensityJoint(benchmark::State& state) {
  Fixture& f = fixture();
  ops::DensityGrid grid(f.db, 128);
  std::vector<double> d(grid.num_bins()), total(grid.num_bins());
  for (auto _ : state) {
    grid.accumulate_range("m.joint", f.x.data(), f.y.data(), 0,
                          f.db.num_cells_total(), total.data(), true);
    grid.accumulate_range("m.ovfl", f.x.data(), f.y.data(), 0,
                          f.db.num_physical(), d.data(), true);
    benchmark::DoNotOptimize(grid.overflow(d.data()));
  }
}
BENCHMARK(BM_DensityJoint);

void BM_PoissonFieldOnly(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  ops::PoissonSolver solver(m, 1.0, 1.0);
  Rng rng(1);
  std::vector<double> rho(static_cast<std::size_t>(m) * m);
  for (auto& v : rho) v = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    solver.solve(rho.data(), /*want_potential=*/false);
    benchmark::DoNotOptimize(solver.ex().data());
  }
}
BENCHMARK(BM_PoissonFieldOnly)->Arg(64)->Arg(128)->Arg(256);

void BM_PoissonWithPotential(benchmark::State& state) {
  const int m = static_cast<int>(state.range(0));
  ops::PoissonSolver solver(m, 1.0, 1.0);
  Rng rng(1);
  std::vector<double> rho(static_cast<std::size_t>(m) * m);
  for (auto& v : rho) v = rng.uniform(0.0, 1.0);
  for (auto _ : state) {
    solver.solve(rho.data(), /*want_potential=*/true);
    benchmark::DoNotOptimize(solver.energy(rho.data()));
  }
}
BENCHMARK(BM_PoissonWithPotential)->Arg(128);

void BM_Dct2d(benchmark::State& state) {
  const std::size_t m = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<double> map(m * m);
  for (auto& v : map) v = rng.uniform(-1, 1);
  for (auto _ : state) {
    fft::dct2(map.data(), m, m);
    benchmark::DoNotOptimize(map.data());
  }
}
BENCHMARK(BM_Dct2d)->Arg(64)->Arg(128)->Arg(256);

void BM_Fft1d(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<fft::Complex> v(n);
  for (auto& c : v) c = fft::Complex(rng.uniform(-1, 1), rng.uniform(-1, 1));
  for (auto _ : state) {
    fft::fft(v.data(), n);
    benchmark::DoNotOptimize(v.data());
  }
}
BENCHMARK(BM_Fft1d)->Arg(256)->Arg(1024)->Arg(4096);

// ---------------- --json: SIMD backend A/B mode ----------------

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Median ns per call of fn() over `rounds` rounds of `reps` calls.
template <typename Fn>
double time_ns(int rounds, int reps, Fn&& fn) {
  fn();  // warm-up
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(rounds));
  for (int r = 0; r < rounds; ++r) {
    Stopwatch w;
    for (int i = 0; i < reps; ++i) fn();
    times.push_back(w.seconds() / reps * 1e9);
  }
  return median(times);
}

struct JsonRow {
  std::string kernel;
  std::string simd;
  double ns_per_iter;
};

int run_json_mode(const std::string& path) {
  Fixture& f = fixture();
  ops::DensityGrid grid(f.db, 128);
  std::vector<double> dens(grid.num_bins());
  const std::size_t kAxpyN = 1 << 16;
  std::vector<float> ax(kAxpyN, 1.0f), ab(kAxpyN, 2.0f);
  const std::size_t kDct = 256;
  Rng rng(2);
  std::vector<double> map(kDct * kDct);
  for (auto& v : map) v = rng.uniform(-1, 1);

  std::vector<const char*> backends = {"scalar"};
  if (simd::cpu_has_avx2()) backends.push_back("avx2");

  std::vector<JsonRow> rows;
  for (const char* backend : backends) {
    simd::select(backend);
    rows.push_back({"wa_fused", backend, time_ns(9, 3, [&] {
                      std::fill(f.gx.begin(), f.gx.end(), 0.0f);
                      std::fill(f.gy.begin(), f.gy.end(), 0.0f);
                      benchmark::DoNotOptimize(ops::fused_wl_grad_hpwl(
                          f.view, f.x.data(), f.y.data(), 8.0f, f.gx.data(),
                          f.gy.data()));
                    })});
    rows.push_back({"density_scatter", backend, time_ns(9, 3, [&] {
                      grid.accumulate_range("m.json", f.x.data(), f.y.data(),
                                            0, f.db.num_cells_total(),
                                            dens.data(), true);
                      benchmark::DoNotOptimize(dens.data());
                    })});
    rows.push_back({"axpy", backend, time_ns(11, 200, [&] {
                      simd::active().axpy_(ax.data(), ab.data(), 0.125f,
                                           kAxpyN);
                      benchmark::DoNotOptimize(ax.data());
                    })});
    rows.push_back({"dct_pass", backend, time_ns(9, 3, [&] {
                      fft::dct2(map.data(), kDct, kDct);
                      benchmark::DoNotOptimize(map.data());
                    })});
  }
  simd::select("auto");

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"bench_micro_ops\",\n"
                    "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"backend\": \"serial\", "
                 "\"threads\": 1, \"simd\": \"%s\", \"ns_per_iter\": %.1f}%s\n",
                 rows[i].kernel.c_str(), rows[i].simd.c_str(),
                 rows[i].ns_per_iter, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  // Human-readable speedup table on stdout.
  std::printf("%-16s %14s %14s %9s\n", "kernel", "scalar ns/iter",
              "avx2 ns/iter", "speedup");
  const std::size_t half = rows.size() / backends.size();
  for (std::size_t i = 0; i < half; ++i) {
    if (backends.size() == 2) {
      std::printf("%-16s %14.0f %14.0f %8.2fx\n", rows[i].kernel.c_str(),
                  rows[i].ns_per_iter, rows[half + i].ns_per_iter,
                  rows[i].ns_per_iter / rows[half + i].ns_per_iter);
    } else {
      std::printf("%-16s %14.0f %14s %9s\n", rows[i].kernel.c_str(),
                  rows[i].ns_per_iter, "-", "-");
    }
  }
  std::printf("json written to %s\n", path.c_str());
  return 0;
}

// ---------------- --json-fft: FFT plan engine A/B mode ----------------

struct FftRow {
  std::string kernel;
  std::string backend;  // "serial" or "pooled"
  int threads;
  std::string simd;
  double ns_per_iter;
  double bytes_per_iter;
};

int run_json_fft_mode(const std::string& path) {
  const std::size_t kM = 256;
  Rng rng(4);
  std::vector<double> base(kM * kM);
  for (auto& v : base) v = rng.uniform(-1, 1);
  std::vector<double> map = base;
  std::vector<double> rho(kM * kM);
  Rng rng2(5);
  for (auto& v : rho) v = rng2.uniform(0.0, 1.0);
  ops::PoissonSolver solver(static_cast<int>(kM), 1.0, 1.0);
  ThreadPool pool(4);  // caller + 3 workers

  // Traffic estimates: each 1-D pass reads and writes the full grid once
  // (8 B/double), so a 2-D transform moves 4 grids of bytes. The field-only
  // solve is dct2 rho→coeff (4 grids) + the spectral scale pass (read
  // coeff, write ex/ey: 3; ψ̂ is stored only with the potential) + the
  // batched ex/ey row and column syntheses (2 grids × 2 passes ×
  // read+write: 8).
  const double kGrid = 8.0 * static_cast<double>(kM * kM);
  const double kXformBytes = 4.0 * kGrid;   // 2 passes × (read + write)
  const double kSolveBytes = 15.0 * kGrid;  // fwd(4) + scale(3) + fields(8)

  std::vector<const char*> isas = {"scalar"};
  if (simd::cpu_has_avx2()) isas.push_back("avx2");

  std::vector<FftRow> rows;
  for (const char* isa : isas) {
    simd::select(isa);
    for (int pooled = 0; pooled < 2; ++pooled) {
      ThreadPool* p = pooled != 0 ? &pool : nullptr;
      const char* backend = pooled != 0 ? "pooled" : "serial";
      const int threads = pooled != 0 ? static_cast<int>(pool.size()) : 1;
      rows.push_back({"dct2", backend, threads, isa, time_ns(9, 4, [&] {
                        fft::dct2(map.data(), kM, kM, p);
                        benchmark::DoNotOptimize(map.data());
                      }),
                      kXformBytes});
      rows.push_back({"idct2", backend, threads, isa, time_ns(9, 4, [&] {
                        fft::idct2(map.data(), kM, kM, p);
                        benchmark::DoNotOptimize(map.data());
                      }),
                      kXformBytes});
      rows.push_back({"idxst_idct", backend, threads, isa, time_ns(9, 4, [&] {
                        fft::idxst_idct(map.data(), kM, kM, p);
                        benchmark::DoNotOptimize(map.data());
                      }),
                      kXformBytes});
      solver.set_pool(p);
      rows.push_back({"poisson_solve", backend, threads, isa,
                      time_ns(9, 4, [&] {
                        solver.solve(rho.data(), /*want_potential=*/false);
                        benchmark::DoNotOptimize(solver.ex().data());
                      }),
                      kSolveBytes});
    }
  }
  simd::select("auto");
  solver.set_pool(nullptr);

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  // tolerance 0.6: shared CI runners make wall-clock noisy; the band still
  // catches the ~2x regression class (plan cache loss, de-fused passes).
  std::fprintf(out, "{\n  \"bench\": \"bench_micro_ops_fft\",\n"
                    "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"backend\": \"%s\", "
                 "\"threads\": %d, \"simd\": \"%s\", \"ns_per_iter\": %.1f, "
                 "\"bytes_per_iter\": %.0f, \"tolerance\": 0.6}%s\n",
                 rows[i].kernel.c_str(), rows[i].backend.c_str(),
                 rows[i].threads, rows[i].simd.c_str(), rows[i].ns_per_iter,
                 rows[i].bytes_per_iter, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);

  // Human-readable table: one line per kernel × backend with the
  // scalar→avx2 speedup when both ISAs ran.
  std::printf("%-14s %-7s %8s %14s %14s %9s\n", "kernel", "backend",
              "threads", "scalar ns/iter", "avx2 ns/iter", "speedup");
  const std::size_t half = rows.size() / isas.size();
  for (std::size_t i = 0; i < half; ++i) {
    if (isas.size() == 2) {
      std::printf("%-14s %-7s %8d %14.0f %14.0f %8.2fx\n",
                  rows[i].kernel.c_str(), rows[i].backend.c_str(),
                  rows[i].threads, rows[i].ns_per_iter,
                  rows[half + i].ns_per_iter,
                  rows[i].ns_per_iter / rows[half + i].ns_per_iter);
    } else {
      std::printf("%-14s %-7s %8d %14.0f %14s %9s\n", rows[i].kernel.c_str(),
                  rows[i].backend.c_str(), rows[i].threads,
                  rows[i].ns_per_iter, "-", "-");
    }
  }
  std::printf("json written to %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  xplace::ArgParser args(argc, argv);
  const std::string json = args.get("json");
  if (!json.empty()) return run_json_mode(json);
  const std::string json_fft = args.get("json-fft");
  if (!json_fft.empty()) return run_json_fft_mode(json_fft);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
