#include "fft/dct.h"

#include <cassert>
#include <vector>

#include "fft/fft.h"
#include "fft/plan.h"
#include "util/simd.h"
#include "util/thread_pool.h"

namespace xplace::fft {
namespace {

/// Complex buffers viewed as interleaved (re,im) doubles for the SIMD table.
double* flat(std::vector<Complex>& v) {
  return reinterpret_cast<double*>(v.data());
}

}  // namespace

// The 1-D entry points below keep the classic Makhoul glue-kernel pipeline
// (pack → full complex FFT → rotate). The 2-D hot path no longer goes
// through them — run_rows/run_cols drive the fused plan passes instead —
// but they remain the reference-grade scalar pipeline for tests and for
// callers that transform a single line. Phase factors now come from the
// lock-free plan cache; the old mutex-guarded dct_phases() map is gone.

// Makhoul's N-point algorithm: reorder x into even indices ascending followed
// by odd indices descending, take an N-point complex FFT, then rotate.
void dct(double* x, std::size_t n) {
  assert(is_pow2(n));
  if (n == 1) return;
  const simd::Kernels& k = simd::active();
  std::vector<Complex> v(n);
  k.dct_pack(x, flat(v), n);
  fft(v.data(), n);
  k.dct_rotate(flat(v), plan(n).ph_flat(), x, n);
}

// Inverse of the above: rebuild the complex spectrum from the real DCT
// coefficients (V_0 = X_0, V_k = e^{iπk/(2N)} (X_k - i X_{N-k})), inverse FFT,
// and de-interleave.
void idct(double* x, std::size_t n) {
  assert(is_pow2(n));
  if (n == 1) return;
  const simd::Kernels& k = simd::active();
  std::vector<Complex> v(n);
  const double* ph = plan(n).ph_flat();
  v[0] = Complex(x[0], 0.0);
  // conj(ph[k]) = e^{+iπk/(2N)}; the pre-twiddle reads x before the unpack
  // overwrites it, and v never aliases x, so the unpack writes x directly.
  k.idct_pretwiddle(x, ph, flat(v), n);
  ifft(v.data(), n);
  k.idct_unpack(flat(v), x, n);
}

// Sine synthesis via the DCT-III identity
//   Σ_k α_k X_k sin(πk(2n+1)/(2N)) = (-1)^n · idct(d)_n,
// where d_0 = 0 and d_j = X_{N-j}.
void idxst(double* x, std::size_t n) {
  assert(is_pow2(n));
  if (n == 1) {
    x[0] = 0.0;  // k=0 sine term vanishes
    return;
  }
  std::vector<double> d(n);
  d[0] = 0.0;
  for (std::size_t j = 1; j < n; ++j) d[j] = x[n - j];
  idct(d.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = (i & 1) ? -d[i] : d[i];
  }
}

namespace {

/// Per-thread scratch slab for the standalone 2-D wrappers (allocation-free
/// at steady state). PoissonSolver bypasses these wrappers and owns its own
/// slab so its iterations share one allocation across all passes.
thread_local PlanScratch tl_scratch;

/// One in-place separable 2-D transform through the fused plan executors:
/// dimension 1 first (contiguous rows, paired two per complex FFT), then
/// dimension 0 (adjacent column pairs at native stride — no gather/scatter).
void run2d(double* data, std::size_t rows, std::size_t cols, Kind1D row_kind,
           Kind1D col_kind, ThreadPool* pool) {
  assert(is_pow2(rows) && is_pow2(cols));
  const PassOp row_op{data, data, row_kind};
  run_rows(&row_op, 1, rows, cols, pool, tl_scratch);
  const PassOp col_op{data, data, col_kind};
  run_cols(&col_op, 1, rows, cols, pool, tl_scratch);
}

}  // namespace

void dct2(double* data, std::size_t rows, std::size_t cols, ThreadPool* pool) {
  run2d(data, rows, cols, Kind1D::kDct, Kind1D::kDct, pool);
}

void idct2(double* data, std::size_t rows, std::size_t cols, ThreadPool* pool) {
  run2d(data, rows, cols, Kind1D::kIdct, Kind1D::kIdct, pool);
}

void idxst_idct(double* data, std::size_t rows, std::size_t cols,
                ThreadPool* pool) {
  // idxst along dimension 0, idct along dimension 1.
  run2d(data, rows, cols, Kind1D::kIdct, Kind1D::kIdxst, pool);
}

void idct_idxst(double* data, std::size_t rows, std::size_t cols,
                ThreadPool* pool) {
  // idct along dimension 0, idxst along dimension 1.
  run2d(data, rows, cols, Kind1D::kIdxst, Kind1D::kIdct, pool);
}

std::vector<double> dct(const std::vector<double>& x) {
  std::vector<double> y = x;
  dct(y.data(), y.size());
  return y;
}

std::vector<double> idct(const std::vector<double>& x) {
  std::vector<double> y = x;
  idct(y.data(), y.size());
  return y;
}

std::vector<double> idxst(const std::vector<double>& x) {
  std::vector<double> y = x;
  idxst(y.data(), y.size());
  return y;
}

}  // namespace xplace::fft
