#include "svm/kernel_ops.hpp"

#include <stdexcept>

#include "geom/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HSD_KERNEL_OPS_AVX2 1
#include <immintrin.h>
#endif

namespace hsd::svm::ops {

PackedVectors::PackedVectors(const std::vector<FeatureVector>& vs) {
  count_ = vs.size();
  if (count_ == 0) return;
  dim_ = vs.front().size();
  for (const FeatureVector& v : vs)
    if (v.size() != dim_)
      throw std::invalid_argument("PackedVectors: inconsistent dimension");
  data_.assign(blockCount() * dim_ * kPackWidth, 0.0);
  for (std::size_t j = 0; j < count_; ++j) {
    const std::size_t b = j / kPackWidth;
    const std::size_t lane = j % kPackWidth;
    double* const blk = data_.data() + b * dim_ * kPackWidth;
    for (std::size_t k = 0; k < dim_; ++k)
      blk[k * kPackWidth + lane] = vs[j][k];
  }
}

// ---------------------------------------------------------------------------
// Scalar oracles. Each lane's accumulator advances through k in order —
// the exact sequence the original per-vector loops performed. __restrict
// and contiguous spans let the compiler keep everything in registers; it
// cannot (and must not) vectorize the reduction itself without
// -ffast-math, which this project never enables.

void dotProductsScalar(const PackedVectors& vs, const double* x,
                       double* out) {
  const std::size_t dim = vs.dim();
  const std::size_t blocks = vs.blockCount();
  const double* __restrict xp = x;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* __restrict blk = vs.block(b);
    double acc[kPackWidth] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t k = 0; k < dim; ++k) {
      const double xk = xp[k];
      const double* const row = blk + k * kPackWidth;
      for (std::size_t l = 0; l < kPackWidth; ++l) acc[l] += row[l] * xk;
    }
    const std::size_t base = b * kPackWidth;
    const std::size_t lanes =
        base + kPackWidth <= vs.count() ? kPackWidth : vs.count() - base;
    for (std::size_t l = 0; l < lanes; ++l) out[base + l] = acc[l];
  }
}

void squaredDistancesScalar(const PackedVectors& vs, const double* x,
                            double* out) {
  const std::size_t dim = vs.dim();
  const std::size_t blocks = vs.blockCount();
  const double* __restrict xp = x;
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* __restrict blk = vs.block(b);
    double acc[kPackWidth] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t k = 0; k < dim; ++k) {
      const double xk = xp[k];
      const double* const row = blk + k * kPackWidth;
      for (std::size_t l = 0; l < kPackWidth; ++l) {
        const double d = row[l] - xk;
        acc[l] += d * d;
      }
    }
    const std::size_t base = b * kPackWidth;
    const std::size_t lanes =
        base + kPackWidth <= vs.count() ? kPackWidth : vs.count() - base;
    for (std::size_t l = 0; l < lanes; ++l) out[base + l] = acc[l];
  }
}

void squaredDistancesMultiScalar(const PackedVectors& vs, const double* xs,
                                 std::size_t nq, double* out) {
  for (std::size_t q = 0; q < nq; ++q)
    squaredDistancesScalar(vs, xs + q * vs.dim(), out + q * vs.count());
}

// ---------------------------------------------------------------------------
// AVX2 paths. One ymm register carries the four accumulators of a block;
// only per-lane mul/add/sub are used (the avx2 target attribute does not
// enable FMA, so the compiler cannot contract them), which keeps every
// lane bit-identical to its scalar-oracle sequence.

#ifdef HSD_KERNEL_OPS_AVX2

__attribute__((target("avx2"))) static void dotProductsAvx2(
    const PackedVectors& vs, const double* x, double* out) {
  const std::size_t dim = vs.dim();
  const std::size_t blocks = vs.blockCount();
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* const blk = vs.block(b);
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t k = 0; k < dim; ++k) {
      const __m256d xk = _mm256_set1_pd(x[k]);
      const __m256d v = _mm256_loadu_pd(blk + k * kPackWidth);
      acc = _mm256_add_pd(acc, _mm256_mul_pd(v, xk));
    }
    const std::size_t base = b * kPackWidth;
    if (base + kPackWidth <= vs.count()) {
      _mm256_storeu_pd(out + base, acc);
    } else {
      double tmp[kPackWidth];
      _mm256_storeu_pd(tmp, acc);
      for (std::size_t l = 0; base + l < vs.count(); ++l)
        out[base + l] = tmp[l];
    }
  }
}

// Q queries (1..4) against packed block b: one load of each block row
// feeds Q independent accumulators, each advancing through k in scalar
// order.
template <std::size_t Q>
__attribute__((target("avx2"))) static void squaredDistancesQueriesAvx2(
    const PackedVectors& vs, std::size_t b, const double* xs, std::size_t q0,
    double* out) {
  const std::size_t dim = vs.dim();
  const double* const blk = vs.block(b);
  // The q loops are unrolled so the accumulators live in registers.
  const double* x[Q];
  __m256d acc[Q];
#pragma GCC unroll 4
  for (std::size_t q = 0; q < Q; ++q) {
    x[q] = xs + (q0 + q) * dim;
    acc[q] = _mm256_setzero_pd();
  }
  for (std::size_t k = 0; k < dim; ++k) {
    const __m256d v = _mm256_loadu_pd(blk + k * kPackWidth);
#pragma GCC unroll 4
    for (std::size_t q = 0; q < Q; ++q) {
      const __m256d d = _mm256_sub_pd(v, _mm256_set1_pd(x[q][k]));
      acc[q] = _mm256_add_pd(acc[q], _mm256_mul_pd(d, d));
    }
  }
  const std::size_t count = vs.count();
  const std::size_t base = b * kPackWidth;
  for (std::size_t q = 0; q < Q; ++q) {
    double* const dst = out + (q0 + q) * count + base;
    if (base + kPackWidth <= count) {
      _mm256_storeu_pd(dst, acc[q]);
    } else {
      double tmp[kPackWidth];
      _mm256_storeu_pd(tmp, acc[q]);
      for (std::size_t l = 0; base + l < count; ++l) dst[l] = tmp[l];
    }
  }
}

__attribute__((target("avx2"))) static void squaredDistancesMultiAvx2(
    const PackedVectors& vs, const double* xs, std::size_t nq, double* out) {
  for (std::size_t b = 0; b < vs.blockCount(); ++b) {
    std::size_t q = 0;
    for (; q + 4 <= nq; q += 4)
      squaredDistancesQueriesAvx2<4>(vs, b, xs, q, out);
    switch (nq - q) {
      case 3: squaredDistancesQueriesAvx2<3>(vs, b, xs, q, out); break;
      case 2: squaredDistancesQueriesAvx2<2>(vs, b, xs, q, out); break;
      case 1: squaredDistancesQueriesAvx2<1>(vs, b, xs, q, out); break;
      default: break;
    }
  }
}

#endif  // HSD_KERNEL_OPS_AVX2

void dotProducts(const PackedVectors& vs, const double* x, double* out) {
  if (vs.empty()) return;
#ifdef HSD_KERNEL_OPS_AVX2
  if (simd::activeLevel() == simd::Level::kAvx2) {
    dotProductsAvx2(vs, x, out);
    return;
  }
#endif
  dotProductsScalar(vs, x, out);
}

void squaredDistancesMulti(const PackedVectors& vs, const double* xs,
                           std::size_t nq, double* out) {
  if (vs.empty()) return;
#ifdef HSD_KERNEL_OPS_AVX2
  if (simd::activeLevel() == simd::Level::kAvx2) {
    squaredDistancesMultiAvx2(vs, xs, nq, out);
    return;
  }
#endif
  squaredDistancesMultiScalar(vs, xs, nq, out);
}

}  // namespace hsd::svm::ops
