// Pluggable execution backend for the placement flow.
//
// The paper's placer owes its speed to massively parallel per-net/per-cell
// GPU kernels; this CPU reproduction fans the same kernels out over a
// ThreadPool. An ExecutionContext is a pool or nothing: it owns (or borrows)
// the one ThreadPool every layer dispatches onto, and holds none below two
// workers. Each layer passes `pool()` to one entry point per op, and the op
// decides inside whether to fan out:
//
//   GlobalPlacer ──▶ GradientEngine ──▶ ops kernels (scatter/gather/fused WA)
//                └─▶ PoissonSolver  ──▶ fft 2-D transforms
//   abacus_legalize / detailed_place (passed explicitly by the driver)
//
// Determinism contract (see DESIGN.md §9):
//   * no pool: bitwise-identical to the historical single-threaded flow —
//     every op runs its inline path,
//   * a pool: bitwise-deterministic run-to-run for a fixed thread count (all
//     reductions are worker- or slot-ordered), and equal to serial up to
//     float accumulation order.
//
// Contexts are cheap value types (a shared_ptr pool); copies share the pool.
// The flow-level selection comes from `--threads N` or the XPLACE_THREADS env
// var via from_threads()/from_env().
#pragma once

#include <cstddef>
#include <memory>

#include "util/thread_pool.h"

namespace xplace::telemetry {
class Registry;
}

namespace xplace {

class ExecutionContext {
 public:
  /// Default-constructed context is the serial backend (no pool).
  ExecutionContext() = default;

  static ExecutionContext serial() { return ExecutionContext(); }

  /// Threadpool backend with an owned pool of `threads` workers
  /// (0 = hardware concurrency). Fewer than two workers is the serial
  /// backend: no pool is built.
  static ExecutionContext threaded(std::size_t threads = 0);

  /// Backend from the XPLACE_THREADS env var: > 1 selects the threadpool
  /// backend over the process-wide shared pool; unset/0/1 is serial.
  static ExecutionContext from_env();

  /// Backend from a config/CLI thread count:
  ///   0  → from_env()            (the default: env-controlled, serial if unset)
  ///   1  → serial
  ///   N>1 → threadpool with N threads
  ///   <0 → threadpool sized to hardware concurrency
  static ExecutionContext from_threads(int threads);

  const char* backend_name() const { return pool_ ? "threadpool" : "serial"; }

  /// Worker count the backend executes with (1 for serial).
  std::size_t threads() const { return pool_ ? pool_->size() : 1; }

  /// The shared pool (two or more workers), or nullptr on the serial backend.
  ThreadPool* pool() const { return pool_.get(); }

  /// Publishes backend configuration + pool utilization into `registry`:
  /// `exec.threads`, `exec.backend` (0 serial / 1 threadpool), and the pool's
  /// `exec.pool.*` gauges/counters. Idempotent (snapshot overwrite).
  void publish(telemetry::Registry& registry) const;

 private:
  std::shared_ptr<ThreadPool> pool_;
};

}  // namespace xplace
