#include "svm/scaler.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "geom/simd.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define HSD_SCALER_AVX2 1
#include <immintrin.h>
#endif

namespace hsd::svm {

void Scaler::fit(const std::vector<FeatureVector>& data) {
  lo_.clear();
  hi_.clear();
  if (data.empty()) return;
  const std::size_t d = data.front().size();
  lo_.assign(d, std::numeric_limits<double>::infinity());
  hi_.assign(d, -std::numeric_limits<double>::infinity());
  for (const FeatureVector& v : data) {
    if (v.size() != d)
      throw std::invalid_argument("Scaler: inconsistent dimension");
    for (std::size_t i = 0; i < d; ++i) {
      lo_[i] = std::min(lo_[i], v[i]);
      hi_[i] = std::max(hi_[i], v[i]);
    }
  }
}

FeatureVector Scaler::transform(const FeatureVector& v) const {
  FeatureVector out(v.size());
  transformInto(v, out.data());
  return out;
}

namespace {

// One scaled element: the per-dimension formula both paths share.
double scaleOne(double v, double lo, double hi) {
  const double range = hi - lo;
  return range > 0 ? std::clamp((v - lo) / range, 0.0, 1.0) : 0.5;
}

#ifdef HSD_SCALER_AVX2
// Four dimensions per step with the scalar formula lane by lane: the
// division is computed for every lane and then masked, and the blends
// reproduce std::clamp's comparisons, so NaN and -0.0 pass through and a
// non-positive (or NaN) range yields 0.5 exactly as the scalar ternary.
__attribute__((target("avx2"))) void transformAvx2(const double* v,
                                                   const double* lo,
                                                   const double* hi,
                                                   std::size_t n,
                                                   double* out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d half = _mm256_set1_pd(0.5);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d l = _mm256_loadu_pd(lo + i);
    const __m256d range = _mm256_sub_pd(_mm256_loadu_pd(hi + i), l);
    const __m256d s = _mm256_div_pd(_mm256_sub_pd(_mm256_loadu_pd(v + i), l),
                                    range);
    __m256d c = _mm256_blendv_pd(s, one, _mm256_cmp_pd(one, s, _CMP_LT_OQ));
    c = _mm256_blendv_pd(c, zero, _mm256_cmp_pd(s, zero, _CMP_LT_OQ));
    _mm256_storeu_pd(out + i, _mm256_blendv_pd(
                                  half, c, _mm256_cmp_pd(range, zero,
                                                         _CMP_GT_OQ)));
  }
  for (; i < n; ++i) out[i] = scaleOne(v[i], lo[i], hi[i]);
}
#endif

}  // namespace

void Scaler::transformInto(const FeatureVector& v, double* out) const {
#ifdef HSD_SCALER_AVX2
  if (simd::activeLevel() == simd::Level::kAvx2) {
    if (v.size() != lo_.size())
      throw std::invalid_argument("Scaler: dimension mismatch");
    transformAvx2(v.data(), lo_.data(), hi_.data(), v.size(), out);
    return;
  }
#endif
  transformIntoScalar(v, out);
}

void Scaler::transformIntoScalar(const FeatureVector& v, double* out) const {
  if (v.size() != lo_.size())
    throw std::invalid_argument("Scaler: dimension mismatch");
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = scaleOne(v[i], lo_[i], hi_[i]);
}

void Scaler::transformInPlace(std::vector<FeatureVector>& data) const {
  for (FeatureVector& v : data) v = transform(v);
}

}  // namespace hsd::svm
