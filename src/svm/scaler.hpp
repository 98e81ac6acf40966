// Per-feature min-max scaling to [0, 1] (the standard libsvm-style
// preprocessing). Fitting records the training range; constant features
// map to 0.5 so they carry no information but stay bounded.
#pragma once

#include <vector>

#include "svm/dataset.hpp"

namespace hsd::svm {

class Scaler {
 public:
  Scaler() = default;
  /// Restore a fitted scaler from stored ranges (deserialization).
  Scaler(std::vector<double> mins, std::vector<double> maxs)
      : lo_(std::move(mins)), hi_(std::move(maxs)) {}

  /// Learn per-dimension ranges from `data`.
  void fit(const std::vector<FeatureVector>& data);
  bool fitted() const { return !lo_.empty(); }
  std::size_t dim() const { return lo_.size(); }

  /// Scale one vector (clamping to [0,1] for out-of-range test values).
  FeatureVector transform(const FeatureVector& v) const;
  /// transform() into caller-provided storage of dim() doubles (the
  /// allocation-free hot path; `out` may be arena scratch). Same values
  /// and same dimension-mismatch contract as transform(). Dispatched:
  /// the AVX2 path does the same per-element sub, div and clamp four
  /// dimensions at a time, so it is bit-identical to the scalar oracle.
  void transformInto(const FeatureVector& v, double* out) const;
  /// The scalar oracle of transformInto().
  void transformIntoScalar(const FeatureVector& v, double* out) const;
  void transformInPlace(std::vector<FeatureVector>& data) const;

  const std::vector<double>& mins() const { return lo_; }
  const std::vector<double>& maxs() const { return hi_; }

 private:
  std::vector<double> lo_;
  std::vector<double> hi_;
};

}  // namespace hsd::svm
