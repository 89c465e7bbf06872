#include "util/execution.h"

#include <cstdlib>
#include <thread>

#include "telemetry/metrics.h"
#include "util/simd.h"

namespace xplace {

ExecutionContext ExecutionContext::threaded(std::size_t threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  ExecutionContext ctx;
  // One worker is the caller thread alone: that is the serial backend.
  if (threads > 1) ctx.pool_ = std::make_shared<ThreadPool>(threads);
  return ctx;
}

ExecutionContext ExecutionContext::from_env() {
  if (const char* env = std::getenv("XPLACE_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 1 && ThreadPool::global().size() > 1) {
      // Borrow the process-wide pool (sized from the same env var) instead of
      // spawning a fresh one per placer: one shared pool for the flow. If two
      // flow threads ever dispatch concurrently, parallel_for serializes the
      // loser inline rather than racing the task slot (see thread_pool.h).
      ExecutionContext ctx;
      ctx.pool_ = std::shared_ptr<ThreadPool>(&ThreadPool::global(),
                                              [](ThreadPool*) {});
      return ctx;
    }
  }
  return serial();
}

ExecutionContext ExecutionContext::from_threads(int threads) {
  if (threads == 0) return from_env();
  if (threads == 1) return serial();
  if (threads < 0) return threaded(0);  // hardware concurrency
  return threaded(static_cast<std::size_t>(threads));
}

void ExecutionContext::publish(telemetry::Registry& registry) const {
  registry.gauge("exec.threads").set(static_cast<double>(threads()));
  registry.gauge("exec.backend").set(pool_ ? 1.0 : 0.0);
  simd::publish(registry);  // exec.simd.isa: 0 = scalar, 2 = AVX2
  if (pool_ == nullptr) return;
  const ThreadPool::Stats s = pool_->stats();
  telemetry::Counter& d = registry.counter("exec.pool.dispatches");
  d.reset();
  d.inc(s.dispatches);
  registry.gauge("exec.pool.busy_seconds").set(s.busy_seconds);
  registry.gauge("exec.pool.wall_seconds").set(s.wall_seconds);
  // Fraction of worker capacity doing kernel work while the pool was engaged;
  // 1.0 = perfect scaling across every parallel_for.
  const double denom = s.wall_seconds * static_cast<double>(threads());
  registry.gauge("exec.pool.utilization")
      .set(denom > 0.0 ? s.busy_seconds / denom : 0.0);
}

}  // namespace xplace
