// Hot-path mechanical-sympathy tests (ctest label: hotpath). Pins the
// PR-8 contracts:
//  - SIMD byte-identity: the dispatched density rasterizer and SVM kernel
//    primitives produce bit-for-bit the scalar oracles' outputs on
//    randomized inputs (every window shape, ragged pack blocks, all eight
//    orientations of the rect sets) — vectorization must never
//    reassociate a reduction;
//  - the multi-query distance kernel and the AVX2 scaler equal their
//    scalar oracles bit for bit (ragged SV blocks and query chunks; NaN,
//    -0.0, out-of-range and constant-range inputs);
//  - SvmModel::decisionFrom equals the naive per-SV rbfKernel loop it
//    replaced, exactly, decisionsFrom equals it query by query, and
//    rbfKernel/Scaler reject dimension mismatches with the same error
//    contract;
//  - the kernel-major OR vote (Detector::voteCores, eval/svm) equals the
//    clip-major loop it replaced: verdict, attributed kernel and margin
//    bits across a bias sweep, with and without a ModelStatsRecorder;
//  - the per-clip Arena: alignment, scope rewind, reset-keeps-capacity,
//    and zero steady-state heap allocations through the arena-backed
//    scale→decide, kernel-vote and rasterize paths (global operator-new
//    counter, the test_obs.cpp harness);
//  - StageCache sharding: serving-scale capacity shards (approximate
//    global capacity still exact), small capacity stays one shard so LRU
//    order is globally exact;
//  - cache-line layout: CachePadded and the aligned obs counters.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <new>
#include <random>
#include <vector>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "core/trainer.hpp"
#include "engine/arena.hpp"
#include "engine/cache.hpp"
#include "geom/density_grid.hpp"
#include "geom/orientation.hpp"
#include "geom/simd.hpp"
#include "obs/metrics.hpp"
#include "obs/model_stats.hpp"
#include "par/cacheline.hpp"
#include "svm/kernel_ops.hpp"
#include "svm/scaler.hpp"
#include "svm/svm.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps it.
// Used to pin the zero-steady-state-allocation guarantee of the arena
// paths.
namespace {
std::atomic<std::uint64_t> g_allocCount{0};
}  // namespace

// GCC pairs these replacement operators with the default ones and flags
// the malloc/free backing as mismatched; the pairing is consistent here
// (both sides are replaced), so silence that one diagnostic.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace hsd {
namespace {

// ---------------------------------------------------------------------------
// Density rasterizer: dispatched == reference, bit for bit.

std::vector<Rect> randomRects(std::mt19937& rng, const Rect& window,
                              std::size_t n) {
  std::uniform_int_distribution<Coord> dx(window.lo.x - 50, window.hi.x + 50);
  std::uniform_int_distribution<Coord> dy(window.lo.y - 50, window.hi.y + 50);
  std::vector<Rect> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    out.emplace_back(dx(rng), dy(rng), dx(rng), dy(rng));  // some degenerate,
  return out;  // some outside the window — the rasterizer must skip both
}

std::vector<Rect> orientRects(const std::vector<Rect>& rects, Orient o,
                              Coord w, Coord h) {
  std::vector<Rect> out;
  out.reserve(rects.size());
  for (const Rect& r : rects) {
    const Point a = apply(o, r.lo, w, h);
    const Point b = apply(o, r.hi, w, h);
    out.emplace_back(a.x, a.y, b.x, b.y);  // ctor normalizes corners
  }
  return out;
}

TEST(DensityRaster, DispatchedMatchesReferenceRandomized) {
  std::mt19937 rng(12345u);
  const std::size_t grids[] = {1, 3, 4, 5, 7, 8, 13, 16};
  for (int trial = 0; trial < 40; ++trial) {
    const Coord w = 40 + Coord(rng() % 400);
    const Coord h = 40 + Coord(rng() % 400);
    const Rect window(0, 0, w, h);
    const std::vector<Rect> rects =
        randomRects(rng, window, 1 + rng() % 30);
    const std::size_t nx = grids[rng() % 8];
    const std::size_t ny = grids[rng() % 8];
    std::vector<double> got(nx * ny), want(nx * ny);
    rasterizeDensity(rects, window, nx, ny, got.data());
    rasterizeDensityReference(rects, window, nx, ny, want.data());
    ASSERT_EQ(std::memcmp(got.data(), want.data(), nx * ny * sizeof(double)),
              0)
        << "trial " << trial << " nx=" << nx << " ny=" << ny
        << " simd=" << simd::toString(simd::activeLevel());
  }
}

TEST(DensityRaster, AllOrientationsMatchReference) {
  std::mt19937 rng(777u);
  const Coord w = 200, h = 120;
  const Rect window(0, 0, w, h);
  const std::vector<Rect> base = randomRects(rng, window, 25);
  for (const Orient o : kAllOrients) {
    const Coord ow = swapsAxes(o) ? h : w;
    const Coord oh = swapsAxes(o) ? w : h;
    const Rect owin(0, 0, ow, oh);
    const std::vector<Rect> rects = orientRects(base, o, w, h);
    const std::size_t nx = 11, ny = 6;  // odd/non-multiple-of-4 on purpose
    std::vector<double> got(nx * ny), want(nx * ny);
    rasterizeDensity(rects, owin, nx, ny, got.data());
    rasterizeDensityReference(rects, owin, nx, ny, want.data());
    EXPECT_EQ(std::memcmp(got.data(), want.data(), nx * ny * sizeof(double)),
              0)
        << "orient " << toString(o);
  }
}

TEST(DensityRaster, GridCtorMatchesFreeFunction) {
  std::mt19937 rng(31u);
  const Rect window(-30, -20, 170, 140);
  const std::vector<Rect> rects = randomRects(rng, window, 20);
  const DensityGrid g(rects, window, 9, 9);
  std::vector<double> want(81);
  rasterizeDensityReference(rects, window, 9, 9, want.data());
  EXPECT_EQ(std::memcmp(g.values().data(), want.data(), 81 * sizeof(double)),
            0);
}

TEST(DensityRaster, DegenerateDims) {
  const std::vector<Rect> rects = {{0, 0, 10, 10}};
  std::vector<double> buf(4, 42.0);
  rasterizeDensity(rects, Rect(0, 0, 0, 0), 2, 2, buf.data());  // empty window
  for (const double v : buf) EXPECT_EQ(v, 0.0);
}

// ---------------------------------------------------------------------------
// Packed kernel primitives: dispatched == scalar oracle == naive loop.

TEST(KernelOps, PackedMatchesScalarAndNaive) {
  std::mt19937 rng(99u);
  std::uniform_real_distribution<double> u(-3.0, 3.0);
  for (const std::size_t count : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 33u}) {
    for (const std::size_t dim : {1u, 2u, 5u, 16u, 17u}) {
      std::vector<hsd::svm::FeatureVector> vs(count,
                                              hsd::svm::FeatureVector(dim));
      hsd::svm::FeatureVector x(dim);
      for (auto& v : vs)
        for (double& e : v) e = u(rng);
      for (double& e : x) e = u(rng);
      const hsd::svm::ops::PackedVectors packed(vs);
      EXPECT_EQ(packed.count(), count);
      EXPECT_EQ(packed.dim(), dim);

      std::vector<double> dotD(count), dotS(count), d2D(count), d2S(count);
      hsd::svm::ops::dotProducts(packed, x.data(), dotD.data());
      hsd::svm::ops::dotProductsScalar(packed, x.data(), dotS.data());
      hsd::svm::ops::squaredDistancesMulti(packed, x.data(), 1, d2D.data());
      hsd::svm::ops::squaredDistancesScalar(packed, x.data(), d2S.data());
      for (std::size_t j = 0; j < count; ++j) {
        // The naive sequential reductions every pre-PR loop performed.
        double dot = 0, d2 = 0;
        for (std::size_t k = 0; k < dim; ++k) {
          dot += vs[j][k] * x[k];
          const double d = vs[j][k] - x[k];
          d2 += d * d;
        }
        EXPECT_EQ(dotD[j], dotS[j]) << "dispatched vs oracle, j=" << j;
        EXPECT_EQ(d2D[j], d2S[j]) << "dispatched vs oracle, j=" << j;
        EXPECT_EQ(dotS[j], dot) << "oracle vs naive, j=" << j;
        EXPECT_EQ(d2S[j], d2) << "oracle vs naive, j=" << j;
      }
    }
  }
}

TEST(KernelOps, RaggedBlockLanesZeroFilled) {
  const std::vector<hsd::svm::FeatureVector> vs = {{1.0, 2.0}, {3.0, 4.0},
                                                   {5.0, 6.0}};
  const hsd::svm::ops::PackedVectors packed(vs);
  ASSERT_EQ(packed.blockCount(), 1u);
  const double* blk = packed.block(0);
  EXPECT_EQ(blk[3], 0.0);  // lane 3 of component 0
  EXPECT_EQ(blk[7], 0.0);  // lane 3 of component 1
}

TEST(KernelOps, InconsistentDimensionThrows) {
  const std::vector<hsd::svm::FeatureVector> vs = {{1.0, 2.0}, {3.0}};
  EXPECT_THROW(hsd::svm::ops::PackedVectors{vs}, std::invalid_argument);
}

TEST(KernelOps, MultiQueryMatchesScalarOracleBitForBit) {
  // Ragged SV blocks (count % 4 != 0) x ragged query groups (nq % 4 != 0,
  // up to a full kVoteChunk), at the production dimension too.
  std::mt19937 rng(321u);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  for (const std::size_t count : {1u, 3u, 4u, 6u, 9u, 33u}) {
    for (const std::size_t dim : {1u, 5u, 17u, 125u}) {
      std::vector<hsd::svm::FeatureVector> vs(count,
                                              hsd::svm::FeatureVector(dim));
      for (auto& v : vs)
        for (double& e : v) e = u(rng);
      const hsd::svm::ops::PackedVectors packed(vs);
      for (const std::size_t nq : {1u, 2u, 3u, 4u, 5u, 7u, 13u, 16u}) {
        std::vector<double> xs(nq * dim);
        for (double& e : xs) e = u(rng);
        std::vector<double> got(nq * count), want(nq * count),
            single(count);
        hsd::svm::ops::squaredDistancesMulti(packed, xs.data(), nq,
                                             got.data());
        hsd::svm::ops::squaredDistancesMultiScalar(packed, xs.data(), nq,
                                                   want.data());
        ASSERT_EQ(std::memcmp(got.data(), want.data(),
                              got.size() * sizeof(double)),
                  0)
            << "count=" << count << " dim=" << dim << " nq=" << nq
            << " simd=" << simd::toString(simd::activeLevel());
        for (std::size_t q = 0; q < nq; ++q) {
          hsd::svm::ops::squaredDistancesScalar(packed, xs.data() + q * dim,
                                                single.data());
          ASSERT_EQ(std::memcmp(single.data(), want.data() + q * count,
                                count * sizeof(double)),
                    0)
              << "oracle row " << q;
        }
      }
    }
  }
}

TEST(ScalerSimd, DispatchedMatchesScalarOnEdgeValues) {
  // Ranges: ordinary, constant (0.5), inverted (0.5), NaN bounds (0.5),
  // tiny; 11 dimensions so the AVX2 path also runs its scalar tail.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> lo = {0.0, -1.0, 3.0, 2.0, nan, 0.0,
                                  -5.0, 1e-300, 0.0, 7.0, -2.0};
  const std::vector<double> hi = {1.0, 1.0, 3.0, 1.0, 1.0, nan,
                                  5.0, 2e-300, 1e-9, 7.5, 2.0};
  const hsd::svm::Scaler sc(lo, hi);
  const double specials[] = {nan, 0.0, -0.0, -1.0, 2.0, 1e308, -1e308,
                             inf, -inf, 3.0, 0.5, 1e-300, -1e-300};
  std::mt19937 rng(8u);
  std::uniform_real_distribution<double> u(-6.0, 9.0);
  for (int trial = 0; trial < 400; ++trial) {
    hsd::svm::FeatureVector v(lo.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
      // Mostly specials, exact bounds and in-range values.
      switch (rng() % 4) {
        case 0: v[i] = specials[rng() % std::size(specials)]; break;
        case 1: v[i] = rng() % 2 ? lo[i] : hi[i]; break;
        default: v[i] = u(rng); break;
      }
    }
    double got[11], want[11];
    sc.transformInto(v, got);
    sc.transformIntoScalar(v, want);
    ASSERT_EQ(std::memcmp(got, want, sizeof(got)), 0)
        << "trial " << trial
        << " simd=" << simd::toString(simd::activeLevel());
  }
  // The contract itself: NaN passes through, -0.0 keeps its sign, out of
  // range clamps, a constant range maps to 0.5.
  double out[11];
  hsd::svm::FeatureVector v(lo.size(), 0.5);
  v[0] = nan;
  v[1] = 7.0;
  v[6] = -9.0;
  sc.transformInto(v, out);
  EXPECT_TRUE(std::isnan(out[0]));
  EXPECT_EQ(out[1], 1.0);
  EXPECT_EQ(out[2], 0.5);
  EXPECT_EQ(out[3], 0.5);
  EXPECT_EQ(out[6], 0.0);
  v[8] = -0.0;
  sc.transformInto(v, out);
  EXPECT_TRUE(std::signbit(out[8]));
}

TEST(SvmDecision, DecisionFromMatchesNaiveRbfLoopExactly) {
  std::mt19937 rng(4242u);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const std::size_t nsv = 19, dim = 7;
  std::vector<hsd::svm::FeatureVector> sv(nsv, hsd::svm::FeatureVector(dim));
  std::vector<double> coef(nsv);
  for (auto& v : sv)
    for (double& e : v) e = u(rng);
  for (double& c : coef) c = u(rng);
  const double rho = 0.37, gamma = 0.8;
  const hsd::svm::SvmModel model(sv, coef, rho, gamma);

  for (int trial = 0; trial < 25; ++trial) {
    hsd::svm::FeatureVector x(dim);
    for (double& e : x) e = u(rng);
    // The pre-PR decision(): a naive per-SV rbfKernel sum.
    double s = 0;
    for (std::size_t i = 0; i < nsv; ++i)
      s += coef[i] * hsd::svm::rbfKernel(sv[i], x, gamma);
    EXPECT_EQ(model.decision(x), s - rho);
    EXPECT_EQ(model.decisionFrom({x.data(), x.size()}), s - rho);
  }
}

TEST(SvmDecision, BatchedDecisionsEqualOneAtATime) {
  std::mt19937 rng(77u);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const std::size_t nsv = 10, dim = 9, nq = 7;
  std::vector<hsd::svm::FeatureVector> sv(nsv, hsd::svm::FeatureVector(dim));
  std::vector<double> coef(nsv);
  for (auto& v : sv)
    for (double& e : v) e = u(rng);
  for (double& c : coef) c = u(rng);
  const hsd::svm::SvmModel model(sv, coef, -0.2, 1.3);
  std::vector<double> xs(nq * dim);
  for (double& e : xs) e = u(rng);
  std::vector<double> got(nq);
  model.decisionsFrom(xs, got);
  for (std::size_t q = 0; q < nq; ++q) {
    const double want = model.decisionFrom({xs.data() + q * dim, dim});
    EXPECT_EQ(std::memcmp(&got[q], &want, sizeof(double)), 0) << q;
  }
  EXPECT_THROW(model.decisionsFrom({xs.data(), xs.size() - 1}, got),
               std::invalid_argument);
  // An empty model scores -rho without looking at the queries.
  const hsd::svm::SvmModel empty({}, {}, 0.75, 0.5);
  empty.decisionsFrom({}, got);
  for (const double d : got) EXPECT_EQ(d, -0.75);
}

TEST(SvmDecision, DimensionMismatchErrorContract) {
  EXPECT_THROW(hsd::svm::rbfKernel({1.0, 2.0}, {1.0}, 0.5),
               std::invalid_argument);
  const hsd::svm::SvmModel model({{1.0, 2.0}}, {0.5}, 0.0, 0.5);
  EXPECT_THROW(model.decision({1.0}), std::invalid_argument);
  hsd::svm::Scaler sc;
  sc.fit({{0.0, 0.0}, {1.0, 2.0}});
  EXPECT_THROW(sc.transform({1.0}), std::invalid_argument);
  double out[2];
  EXPECT_THROW(sc.transformInto({1.0}, out), std::invalid_argument);
  sc.transformInto({0.5, 1.0}, out);
  EXPECT_EQ(out[0], 0.5);
  EXPECT_EQ(out[1], 0.5);
}

// ---------------------------------------------------------------------------
// Kernel-major OR vote (Detector::voteCores, eval/svm) against the
// clip-major loop it replaced.

// The clip-major oracle: one clip scaled (scalar oracle) and scored
// (naive per-SV RBF sum) against each kernel in turn, stopping at the
// first kernel that flags; an unflagged clip keeps the first kernel with
// the largest decision value.
core::KernelVote clipMajorVote(const core::Detector& det,
                               const svm::FeatureVector& feat, double bias) {
  core::KernelVote v;
  for (std::size_t k = 0; k < det.kernels.size(); ++k) {
    const core::KernelEntry& ke = det.kernels[k];
    svm::FeatureVector x(ke.scaler.dim());
    ke.scaler.transformIntoScalar(feat, x.data());
    const std::vector<svm::FeatureVector>& sv = ke.model.supportVectors();
    double sum = 0;
    for (std::size_t i = 0; i < sv.size(); ++i)
      sum += ke.model.coefficients()[i] *
             svm::rbfKernel(sv[i], x, ke.model.gamma());
    const double d = sum - ke.model.rho();
    if (d > bias) return {true, k, d};
    if (k == 0 || d > v.margin) {
      v.kernel = k;
      v.margin = d;
    }
  }
  return v;
}

struct ScoredCandidates {
  GridIndex index;
  std::vector<ClipWindow> windows;
  std::vector<svm::FeatureVector> feats;  ///< core features, per window
};

/// The fixture layout's candidate clips with their core feature vectors.
const ScoredCandidates& fixtureCandidates() {
  static const ScoredCandidates c = [] {
    const tests::DetectorFixture& f = tests::detectorFixture();
    const core::Detector& det = f.detector;
    ScoredCandidates out{
        GridIndex(f.test.layout.findLayer(det.params.layer)->rects(),
                  det.params.clip.clipSide),
        {},
        {}};
    core::ExtractParams ep;
    ep.clip = det.params.clip;
    engine::RunContext ctx(1);
    out.windows = core::extractCandidateClips(out.index, ep, ctx);
    const std::vector<std::pair<LayerId, const GridIndex*>> layers{
        {det.params.layer, &out.index}};
    for (const ClipWindow& w : out.windows)
      out.feats.push_back(core::buildFeatureVector(
          core::CorePattern::fromCore(extractClip(layers, w),
                                      det.params.layer),
          det.params.features));
    return out;
  }();
  return c;
}

constexpr double kBiasSweep[] = {-1.0, -0.3, 0.0, 0.4, 1.5};

TEST(KernelMajorVote, EqualsClipMajorOracleAcrossBiasSweep) {
  const core::Detector& det = tests::detectorFixture().detector;
  const ScoredCandidates& c = fixtureCandidates();
  ASSERT_GT(det.kernels.size(), 1u);
  // 37 first: ragged chunks (16 + 16 + 5); then every candidate.
  std::vector<const svm::FeatureVector*> ptrs;
  for (const svm::FeatureVector& f : c.feats) ptrs.push_back(&f);
  ASSERT_GT(ptrs.size(), 37u);
  for (const double bias : kBiasSweep) {
    SCOPED_TRACE(bias);
    std::size_t flagged = 0;
    for (const std::size_t n : {std::size_t{37}, ptrs.size()}) {
      std::vector<core::KernelVote> got(n);
      det.voteCores({ptrs.data(), n}, bias, got);
      for (std::size_t i = 0; i < n; ++i) {
        const core::KernelVote want = clipMajorVote(det, c.feats[i], bias);
        ASSERT_EQ(got[i].flagged, want.flagged) << i;
        ASSERT_EQ(got[i].kernel, want.kernel) << i;
        ASSERT_EQ(std::memcmp(&got[i].margin, &want.margin, sizeof(double)),
                  0)
            << i << ": " << got[i].margin << " vs " << want.margin;
        if (n == ptrs.size() && got[i].flagged) ++flagged;
      }
    }
    if (bias == 0.0) {
      // Both outcomes occur at the production threshold.
      EXPECT_GT(flagged, 0u);
      EXPECT_LT(flagged, ptrs.size());
    }
  }
}

TEST(KernelMajorVote, EvaluatorMatchesOracleWithAndWithoutRecorder) {
  // eval/svm alone (feedback and removal off): the reported windows are
  // exactly the oracle-flagged ones, and an attached recorder sees the
  // oracle's per-kernel attribution and margins.
  const core::Detector& det = tests::detectorFixture().detector;
  const ScoredCandidates& c = fixtureCandidates();
  for (const double bias : kBiasSweep) {
    SCOPED_TRACE(bias);
    std::vector<ClipWindow> wantReported;
    std::vector<obs::ModelStatsRecorder::ClusterCounts> wantCounts(
        det.kernels.size());
    for (std::size_t i = 0; i < c.windows.size(); ++i) {
      const core::KernelVote v = clipMajorVote(det, c.feats[i], bias);
      if (v.flagged) wantReported.push_back(c.windows[i]);
      obs::ModelStatsRecorder::ClusterCounts& cc = wantCounts[v.kernel];
      ++(v.flagged ? cc.hot : cc.cold);
      ++cc.buckets[obs::MarginSketch::bucketOf(v.margin)];
    }
    core::EvalParams p;
    p.extract.clip = det.params.clip;
    p.decisionBias = bias;
    p.useFeedback = false;
    p.useRemoval = false;
    for (const bool withRecorder : {false, true}) {
      SCOPED_TRACE(withRecorder);
      engine::RunContext ctx(3);
      auto rec = std::make_shared<obs::ModelStatsRecorder>(det.clusterNames());
      if (withRecorder) ctx.attachModelStats(rec);
      const core::EvalResult res =
          core::evaluateCandidates(det, c.index, c.windows, p, ctx);
      EXPECT_EQ(res.reported, wantReported);
      if (!withRecorder) continue;
      const obs::ModelStatsRecorder::Snapshot snap = rec->snapshot();
      for (std::size_t k = 0; k < det.kernels.size(); ++k) {
        EXPECT_EQ(snap.clusters[k].hot, wantCounts[k].hot) << k;
        EXPECT_EQ(snap.clusters[k].cold, wantCounts[k].cold) << k;
        EXPECT_EQ(snap.clusters[k].buckets, wantCounts[k].buckets) << k;
      }
    }
  }
}

TEST(KernelMajorVote, DetectorEntryPointsAgreeWithTheVote) {
  // evaluateCore / evaluateClip route through voteCores too.
  const tests::DetectorFixture& f = tests::detectorFixture();
  const core::Detector& det = f.detector;
  const ScoredCandidates& c = fixtureCandidates();
  const std::vector<std::pair<LayerId, const GridIndex*>> layers{
      {det.params.layer, &c.index}};
  for (std::size_t i = 0; i < std::min<std::size_t>(c.windows.size(), 64);
       ++i) {
    const Clip clip = extractClip(layers, c.windows[i]);
    const bool want = clipMajorVote(det, c.feats[i], 0.0).flagged;
    EXPECT_EQ(det.evaluateCore(
                  core::CorePattern::fromCore(clip, det.params.layer)),
              want);
    EXPECT_EQ(det.evaluateClip(clip, 0.0, /*useFeedback=*/false), want);
  }
}

// ---------------------------------------------------------------------------
// Arena.

TEST(Arena, AlignmentAndGrowth) {
  engine::Arena a;
  EXPECT_EQ(a.capacity(), 0u);
  void* p1 = a.allocate(3, 1);
  void* p2 = a.allocate(8, 8);
  void* p3 = a.allocate(1, 64);
  EXPECT_EQ(std::uintptr_t(p2) % 8, 0u);
  EXPECT_EQ(std::uintptr_t(p3) % 64, 0u);
  EXPECT_NE(p1, p2);
  EXPECT_GE(a.capacity(), engine::Arena::kDefaultBlockBytes);
  EXPECT_EQ(a.blockCount(), 1u);
  // An oversized request grows the chain instead of failing.
  const std::span<double> big =
      a.allocSpan<double>(engine::Arena::kDefaultBlockBytes);
  EXPECT_EQ(big.size(), engine::Arena::kDefaultBlockBytes);
  EXPECT_GE(a.blockCount(), 2u);
}

TEST(Arena, ScopeRewindReusesStorage) {
  engine::Arena a;
  void* first = nullptr;
  {
    engine::ArenaScope scope(a);
    first = scope.arena().allocate(128, 8);
  }
  {
    engine::ArenaScope scope(a);
    // Same storage comes back after the rewind.
    EXPECT_EQ(scope.arena().allocate(128, 8), first);
  }
  EXPECT_EQ(a.used(), 0u);
  EXPECT_GE(a.highWater(), 128u);
}

TEST(Arena, NestedScopes) {
  engine::Arena a;
  engine::ArenaScope outer(a);
  a.allocSpan<double>(10);
  const std::size_t usedOuter = a.used();
  {
    engine::ArenaScope inner(a);
    a.allocSpan<double>(100);
    EXPECT_GT(a.used(), usedOuter);
  }
  EXPECT_EQ(a.used(), usedOuter);  // inner rewound, outer intact
}

TEST(Arena, ResetKeepsCapacity) {
  engine::Arena a;
  a.allocSpan<double>(5000);  // forces growth past the first block
  const std::size_t cap = a.capacity();
  const std::size_t blocks = a.blockCount();
  a.reset();
  EXPECT_EQ(a.used(), 0u);
  EXPECT_EQ(a.capacity(), cap);
  EXPECT_EQ(a.blockCount(), blocks);
  a.allocSpan<double>(5000);
  EXPECT_EQ(a.capacity(), cap);  // reused, not re-grown
}

TEST(Arena, SteadyStateScaleAndDecideAllocatesNothing) {
  std::mt19937 rng(5u);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const std::size_t nsv = 10, dim = 12;
  std::vector<hsd::svm::FeatureVector> sv(nsv, hsd::svm::FeatureVector(dim));
  std::vector<double> coef(nsv, 0.5);
  for (auto& v : sv)
    for (double& e : v) e = u(rng);
  const hsd::svm::SvmModel model(sv, coef, 0.1, 0.5);
  hsd::svm::Scaler sc;
  sc.fit(sv);
  const hsd::svm::FeatureVector x(dim, 0.25);

  engine::Arena& arena = engine::threadScratch();
  const auto evalOnce = [&] {
    engine::ArenaScope scope(arena);
    const std::span<double> buf = scope.arena().allocSpan<double>(dim);
    sc.transformInto(x, buf.data());
    return model.decisionFrom(buf);
  };
  const double want = evalOnce();  // warm-up: arena block, d2 scratch
  const std::uint64_t before = g_allocCount.load();
  double got = 0;
  for (int i = 0; i < 1000; ++i) got = evalOnce();
  EXPECT_EQ(g_allocCount.load(), before) << "hot path touched the heap";
  EXPECT_EQ(got, want);

  // The batched scorer: per-kernel scaled rows come from the thread
  // scratch arena, distances from the model's grown scratch. 21 vectors
  // make one full chunk and one ragged chunk.
  core::Detector det;
  det.kernels.resize(5);
  for (core::KernelEntry& k : det.kernels) {
    std::vector<hsd::svm::FeatureVector> svs(3 + rng() % 6,
                                             hsd::svm::FeatureVector(dim));
    for (auto& v : svs)
      for (double& e : v) e = u(rng);
    k.scaler.fit(svs);
    k.model = hsd::svm::SvmModel(svs, std::vector<double>(svs.size(), 0.3),
                                 1.5, 0.5);
  }
  std::vector<hsd::svm::FeatureVector> feats(21,
                                             hsd::svm::FeatureVector(dim));
  for (auto& v : feats)
    for (double& e : v) e = u(rng);
  std::vector<const hsd::svm::FeatureVector*> ptrs;
  for (const auto& v : feats) ptrs.push_back(&v);
  std::vector<core::KernelVote> votes(feats.size());
  const auto voteOnce = [&] { det.voteCores(ptrs, 0.0, votes); };
  voteOnce();  // warm-up: arena block, distance scratch
  const std::vector<core::KernelVote> wantVotes = votes;
  const std::uint64_t beforeVote = g_allocCount.load();
  for (int i = 0; i < 200; ++i) voteOnce();
  EXPECT_EQ(g_allocCount.load(), beforeVote) << "kernel vote touched the heap";
  for (std::size_t i = 0; i < votes.size(); ++i) {
    EXPECT_EQ(votes[i].flagged, wantVotes[i].flagged);
    EXPECT_EQ(votes[i].kernel, wantVotes[i].kernel);
    EXPECT_EQ(votes[i].margin, wantVotes[i].margin);
  }
}

TEST(Arena, SteadyStateRasterizeAllocatesNothing) {
  std::mt19937 rng(6u);
  const Rect window(0, 0, 300, 300);
  const std::vector<Rect> rects = randomRects(rng, window, 40);
  engine::Arena& arena = engine::threadScratch();
  const auto rasterOnce = [&] {
    engine::ArenaScope scope(arena);
    const std::span<double> g = scope.arena().allocSpan<double>(16 * 16);
    rasterizeDensity(rects, window, 16, 16, g.data());
    return g[0];
  };
  rasterOnce();  // warm-up: arena block + rasterizer's x-overlap scratch
  const std::uint64_t before = g_allocCount.load();
  for (int i = 0; i < 200; ++i) rasterOnce();
  EXPECT_EQ(g_allocCount.load(), before) << "rasterize path touched the heap";
}

// ---------------------------------------------------------------------------
// StageCache sharding.

TEST(StageCacheShards, SmallCapacityStaysSingleShard) {
  engine::StageCache c(16);
  EXPECT_EQ(c.shardCount(), 1u);
}

TEST(StageCacheShards, LargeCapacityShardsAndKeepsTotals) {
  engine::StageCache c(engine::StageCache::kShardThreshold);
  EXPECT_EQ(c.shardCount(), engine::StageCache::kMaxShards);
  // Insert more keys than capacity: residency must never exceed the
  // global budget, and the counters must aggregate across shards.
  const std::size_t n = engine::StageCache::kShardThreshold * 2;
  for (std::size_t i = 0; i < n; ++i)
    c.insert(engine::CacheKey{i, i * 31, i * 131}, int(i));
  EXPECT_LE(c.size(), c.capacity());
  std::size_t hits = 0;
  for (std::size_t i = 0; i < n; ++i)
    if (c.find<int>(engine::CacheKey{i, i * 31, i * 131})) ++hits;
  const engine::StageCache::Counters tallies = c.counters();
  EXPECT_EQ(tallies.hits, hits);
  EXPECT_EQ(tallies.misses, n - hits);
  EXPECT_GT(tallies.evictions, 0u);
  EXPECT_EQ(tallies.entries, c.size());
  c.clear();
  EXPECT_EQ(c.size(), 0u);
}

// ---------------------------------------------------------------------------
// Cache-line layout.

TEST(CacheLine, PaddedTypesAreLineAligned) {
  EXPECT_EQ(alignof(par::CachePadded<std::atomic<void*>>),
            par::kCacheLineSize);
  EXPECT_EQ(sizeof(par::CachePadded<std::atomic<void*>>),
            par::kCacheLineSize);
  EXPECT_EQ(alignof(obs::Counter), par::kCacheLineSize);
  EXPECT_EQ(alignof(obs::Gauge), par::kCacheLineSize);
  // Individually heap-allocated counters land on distinct lines (aligned
  // operator new honors the class alignment).
  const auto a = std::make_unique<obs::Counter>();
  const auto b = std::make_unique<obs::Counter>();
  EXPECT_EQ(std::uintptr_t(a.get()) % par::kCacheLineSize, 0u);
  EXPECT_EQ(std::uintptr_t(b.get()) % par::kCacheLineSize, 0u);
}

}  // namespace
}  // namespace hsd
