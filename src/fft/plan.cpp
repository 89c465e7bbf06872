#include "fft/plan.h"

#include <atomic>
#include <cassert>
#include <cmath>
#include <mutex>
#include <numbers>

#include "util/simd.h"
#include "util/thread_pool.h"

namespace xplace::fft {
namespace {

Plan* build_plan(std::size_t n) {
  Plan* p = new Plan;
  p->n = n;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    p->stage_off.push_back(p->tw.size());
    const std::size_t step = n / len;
    for (std::size_t k = 0; k < len / 2; ++k) {
      const double ang = -2.0 * std::numbers::pi *
                         static_cast<double>(k * step) / static_cast<double>(n);
      p->tw.emplace_back(std::cos(ang), std::sin(ang));
    }
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) {
      p->rev_i.push_back(static_cast<std::uint32_t>(i));
      p->rev_j.push_back(static_cast<std::uint32_t>(j));
    }
  }
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  p->brev.resize(n);
  p->fwd_perm.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    std::size_t r = 0;
    for (std::size_t t = 0; t < bits; ++t) r |= ((j >> t) & 1u) << (bits - 1 - t);
    p->brev[j] = static_cast<std::uint32_t>(r);
    // Makhoul pack: slot t reads x[2t] (t < n/2) or x[2(n-1-t)+1] (t ≥ n/2);
    // composed with the bit-reversal so the head gathers once.
    const std::size_t src = r < n / 2 ? 2 * r : 2 * (n - 1 - r) + 1;
    p->fwd_perm[j] = static_cast<std::uint32_t>(src);
  }
  p->ph.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double ang = -std::numbers::pi * static_cast<double>(k) /
                       (2.0 * static_cast<double>(n));
    p->ph[k] = Complex(std::cos(ang), std::sin(ang));
  }
  return p;
}

}  // namespace

const Plan& plan(std::size_t n) {
  assert(is_pow2(n) && n >= 2);
  // One atomic slot per log2(n): the hot path is a single acquire-load.
  // First build per size takes a mutex; plans live for the process.
  static std::atomic<const Plan*> slots[64] = {};
  std::size_t lg = 0;
  while ((std::size_t{1} << lg) < n) ++lg;
  std::atomic<const Plan*>& slot = slots[lg];
  const Plan* got = slot.load(std::memory_order_acquire);
  if (got != nullptr) return *got;
  static std::mutex build_mutex;
  std::lock_guard<std::mutex> lock(build_mutex);
  got = slot.load(std::memory_order_relaxed);
  if (got == nullptr) {
    got = build_plan(n);
    slot.store(got, std::memory_order_release);
  }
  return *got;
}

void transform_pair(const Plan& p, Kind1D kind, const double* sa,
                    const double* sb, double* da, double* db,
                    std::size_t stride, double* z) {
  const simd::Kernels& k = simd::active();
  const std::size_t n = p.n;
  const double* twd = p.tw_flat();
  if (kind == Kind1D::kDct) {
    k.plan_fwd_head(sa, sb, stride, p.fwd_perm.data(), z, n);
    std::size_t s = 1;  // stage index of len = 4
    for (std::size_t len = 4; len <= n / 2; len <<= 1, ++s) {
      k.fft_pass(z, twd + 2 * p.stage_off[s], n, len, /*step=*/1);
    }
    k.plan_fwd_tail(z, p.tw_last(), p.ph_flat(), da, db, stride, n);
  } else {
    const int sine = kind == Kind1D::kIdxst ? 1 : 0;
    k.plan_inv_head(sa, sb, stride, p.brev.data(), p.ph_flat(), z, n, sine);
    std::size_t s = 1;
    for (std::size_t len = 4; len <= n / 2; len <<= 1, ++s) {
      k.fft_pass(z, twd + 2 * p.stage_off[s], n, len, /*step=*/1);
    }
    k.plan_inv_tail(z, p.tw_last(), da, db, stride, n, sine);
  }
}

namespace {

/// Length-1 lines: dct/idct are the identity, idxst vanishes.
void copy_or_zero(const PassOp& op, std::size_t count, std::size_t stride) {
  for (std::size_t i = 0; i < count; ++i) {
    op.dst[i * stride] =
        op.kind == Kind1D::kIdxst ? 0.0 : op.src[i * stride];
  }
}

/// Row pairs are whole rows apart, so 2 per chunk is enough; column pairs
/// are 16 B of the same rows, so a chunk of 8 owns 128 B (two cache lines)
/// of every row it writes instead of sharing each line with another worker.
constexpr std::size_t kRowPairsPerChunk = 2;
constexpr std::size_t kColPairsPerChunk = 8;

template <typename Item>
void fan_out(std::size_t total, std::size_t n, std::size_t grain,
             ThreadPool* pool, PlanScratch& scratch, const Item& item) {
  if (pool != nullptr && pool->size() > 1 && total >= 2) {
    scratch.reserve(n, pool->size());
    pool->parallel_for(
        total,
        [&](std::size_t b, std::size_t e, std::size_t w) {
          double* z = scratch.slot(w);
          for (std::size_t t = b; t < e; ++t) item(t, z);
        },
        grain);
    return;
  }
  scratch.reserve(n, 1);
  double* z = scratch.slot(0);
  for (std::size_t t = 0; t < total; ++t) item(t, z);
}

}  // namespace

void run_rows(const PassOp* ops, std::size_t num_ops, std::size_t rows,
              std::size_t cols, ThreadPool* pool, PlanScratch& scratch) {
  if (num_ops == 0 || rows == 0) return;
  if (cols == 1) {
    for (std::size_t o = 0; o < num_ops; ++o) copy_or_zero(ops[o], rows, 1);
    return;
  }
  const Plan& p = plan(cols);
  const std::size_t pairs = (rows + 1) / 2;
  fan_out(pairs * num_ops, cols, kRowPairsPerChunk, pool, scratch,
          [&](std::size_t t, double* z) {
            const PassOp& op = ops[t / pairs];
            const std::size_t r0 = 2 * (t % pairs);
            const std::size_t r1 = r0 + 1 < rows ? r0 + 1 : r0;
            transform_pair(p, op.kind, op.src + r0 * cols, op.src + r1 * cols,
                           op.dst + r0 * cols, op.dst + r1 * cols,
                           /*stride=*/1, z);
          });
}

void run_cols(const PassOp* ops, std::size_t num_ops, std::size_t rows,
              std::size_t cols, ThreadPool* pool, PlanScratch& scratch) {
  if (num_ops == 0 || cols == 0) return;
  if (rows == 1) {
    for (std::size_t o = 0; o < num_ops; ++o) copy_or_zero(ops[o], cols, 1);
    return;
  }
  const Plan& p = plan(rows);
  const std::size_t pairs = (cols + 1) / 2;
  fan_out(pairs * num_ops, rows, kColPairsPerChunk, pool, scratch,
          [&](std::size_t t, double* z) {
            const PassOp& op = ops[t / pairs];
            const std::size_t c0 = 2 * (t % pairs);
            const std::size_t c1 = c0 + 1 < cols ? c0 + 1 : c0;
            transform_pair(p, op.kind, op.src + c0, op.src + c1, op.dst + c0,
                           op.dst + c1, /*stride=*/cols, z);
          });
}

}  // namespace xplace::fft
