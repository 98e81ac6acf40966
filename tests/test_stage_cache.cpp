// Stage-cache tests (ctest label: cache). Two layers of coverage:
//
//  1. StageCache unit behavior: hit/miss/evict accounting, LRU order,
//     refresh semantics, capacity clamping, type safety of lookups.
//  2. Cached evaluation runs: a warm evaluateLayout() over an attached
//     cache must hit on every unchanged window and return byte-identical
//     reports to a cold run (threads=1 and threads=8); a single-rect edit
//     invalidates only the windows that see the rect; a parameter change
//     or a one-ulp model change invalidates the verdict cache but not the
//     screen cache; a tiny capacity evicts without ever changing results.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "engine/cache.hpp"
#include "engine/run_context.hpp"
#include "layout/layout.hpp"
#include "svm/svm.hpp"

namespace hsd::engine {
namespace {

CacheKey key(std::uint64_t geometry) {
  return CacheKey::of("test/stage", /*config=*/42, geometry);
}

TEST(StageCacheUnit, MissThenInsertThenHit) {
  StageCache cache(8);
  EXPECT_EQ(cache.find<int>(key(1)), std::nullopt);
  EXPECT_EQ(cache.insert(key(1), 7), 0u);
  const auto got = cache.find<int>(key(1));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 7);

  const StageCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);
  EXPECT_EQ(c.misses, 1u);
  EXPECT_EQ(c.evictions, 0u);
  EXPECT_EQ(c.entries, 1u);
}

TEST(StageCacheUnit, FullTripleParticipatesInEquality) {
  // Keys differing in any one component are distinct entries even if a
  // bucket collision occurs.
  StageCache cache(8);
  cache.insert(CacheKey{1, 2, 3}, 10);
  EXPECT_EQ(cache.find<int>(CacheKey{9, 2, 3}), std::nullopt);
  EXPECT_EQ(cache.find<int>(CacheKey{1, 9, 3}), std::nullopt);
  EXPECT_EQ(cache.find<int>(CacheKey{1, 2, 9}), std::nullopt);
  EXPECT_EQ(cache.find<int>(CacheKey{1, 2, 3}).value_or(-1), 10);
}

TEST(StageCacheUnit, TypeMismatchIsAMiss) {
  StageCache cache(8);
  cache.insert(key(5), 123);
  EXPECT_EQ(cache.find<double>(key(5)), std::nullopt);
  EXPECT_EQ(cache.find<int>(key(5)).value_or(-1), 123);
}

TEST(StageCacheUnit, RefreshKeepsOneEntry) {
  StageCache cache(8);
  EXPECT_EQ(cache.insert(key(1), 1), 0u);
  EXPECT_EQ(cache.insert(key(1), 2), 0u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.find<int>(key(1)).value_or(-1), 2);
}

TEST(StageCacheUnit, LruEvictsLeastRecentlyUsed) {
  StageCache cache(2);
  cache.insert(key(1), 1);
  cache.insert(key(2), 2);
  // Touch key 1 so key 2 becomes the eviction victim.
  EXPECT_TRUE(cache.find<int>(key(1)).has_value());
  EXPECT_EQ(cache.insert(key(3), 3), 1u);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_TRUE(cache.find<int>(key(1)).has_value());
  EXPECT_EQ(cache.find<int>(key(2)), std::nullopt);
  EXPECT_TRUE(cache.find<int>(key(3)).has_value());
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(StageCacheUnit, ZeroCapacityClampsToOne) {
  StageCache cache(0);
  EXPECT_EQ(cache.capacity(), 1u);
  cache.insert(key(1), 1);
  EXPECT_EQ(cache.insert(key(2), 2), 1u);  // evicts key 1
  EXPECT_EQ(cache.size(), 1u);
}

TEST(StageCacheUnit, ConcurrentHammerTinyCapacityKeepsEntriesIntact) {
  // Multi-request serving audit: many threads hammering a tiny cache so
  // eviction continuously races hits on the same keys. Values are a pure
  // function of the key, so any lookup that returns a dangling, partial,
  // or foreign entry is detectable as a value mismatch. Run under the
  // TSan build (ctest -L cache) this also vets the locking itself.
  StageCache cache(16);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kOpsPerThread = 4000;
  constexpr std::uint64_t kKeys = 64;  // 4x capacity: constant eviction
  const auto valueOf = [](std::uint64_t g) {
    return g * 0x9e3779b97f4a7c15ull + 17;
  };
  std::atomic<std::size_t> corrupt{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t op = 0; op < kOpsPerThread; ++op) {
        const std::uint64_t g = (t * 31 + op * 7) % kKeys;
        const CacheKey k = key(g);
        if (const auto got = cache.find<std::uint64_t>(k)) {
          if (*got != valueOf(g))
            corrupt.fetch_add(1, std::memory_order_relaxed);
        } else {
          cache.insert(k, valueOf(g));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(corrupt.load(), 0u);
  EXPECT_LE(cache.size(), 16u);
  const StageCache::Counters c = cache.counters();
  EXPECT_GT(c.evictions, 0u);  // capacity pressure actually occurred
  EXPECT_EQ(c.hits + c.misses, kThreads * kOpsPerThread);
}

TEST(StageCacheUnit, ClearDropsEntriesKeepsLifetimeCounters) {
  StageCache cache(8);
  cache.insert(key(1), 1);
  EXPECT_TRUE(cache.find<int>(key(1)).has_value());
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  const StageCache::Counters c = cache.counters();
  EXPECT_EQ(c.hits, 1u);  // lifetime totals survive a clear
  EXPECT_EQ(c.entries, 0u);
}

// ---------------------------------------------------------------------------
// Cached evaluation runs. All tests share one trained fixture (memoized in
// tests/common.hpp); each builds its own cache/context so counters are
// isolated per test.

const tests::DetectorFixture& fx() { return tests::detectorFixture(); }

core::EvalResult evalWith(std::shared_ptr<StageCache> cache,
                          const Layout& layout, const core::EvalParams& p,
                          std::size_t threads,
                          const core::Detector& det = fx().detector) {
  RunContext ctx(threads);
  if (cache) ctx.attachCache(std::move(cache));
  return core::evaluateLayout(det, layout, p, ctx);
}

// Same as evalWith but reports the context's cache counters.
struct CountedRun {
  core::EvalResult result;
  CacheStats screen;
  CacheStats verdict;
  std::string statsJson;
};

CountedRun countedEval(std::shared_ptr<StageCache> cache, const Layout& layout,
                       const core::EvalParams& p, std::size_t threads,
                       const core::Detector& det = fx().detector) {
  RunContext ctx(threads);
  if (cache) ctx.attachCache(std::move(cache));
  CountedRun run;
  run.result = core::evaluateLayout(det, layout, p, ctx);
  run.screen = ctx.stats().cache("extract/screen");
  run.verdict = ctx.stats().cache("eval/verdict");
  run.statsJson = ctx.stats().toJson();
  return run;
}

TEST(StageCacheEval, WarmRunHitsEverythingAndMatchesColdByteForByte) {
  const core::EvalParams p;
  const core::EvalResult plain = evalWith(nullptr, fx().test.layout, p, 1);

  auto cache = std::make_shared<StageCache>();
  const CountedRun cold = countedEval(cache, fx().test.layout, p, 1);
  const CountedRun warm = countedEval(cache, fx().test.layout, p, 1);

  // The cold run populates; the warm run must not recompute anything.
  EXPECT_GT(cold.verdict.misses, 0u);
  EXPECT_EQ(warm.screen.misses, 0u);
  EXPECT_EQ(warm.verdict.misses, 0u);
  EXPECT_GT(warm.screen.hits, 0u);
  EXPECT_GT(warm.verdict.hits, 0u);

  // Caching must never change results: plain == cold == warm, byte-wise.
  EXPECT_EQ(tests::canonicalReport(plain), tests::canonicalReport(cold.result));
  EXPECT_EQ(tests::canonicalReport(cold.result),
            tests::canonicalReport(warm.result));

  // Counters are surfaced in the EngineStats JSON dump.
  EXPECT_NE(warm.statsJson.find("\"cache/extract/screen\""), std::string::npos);
  EXPECT_NE(warm.statsJson.find("\"cache/eval/verdict\""), std::string::npos);
}

TEST(StageCacheEval, WarmRunByteIdenticalAcrossThreadCounts) {
  const core::EvalParams p;
  const std::string plain =
      tests::canonicalReport(evalWith(nullptr, fx().test.layout, p, 1));

  auto cache = std::make_shared<StageCache>();
  const CountedRun cold8 = countedEval(cache, fx().test.layout, p, 8);
  const CountedRun warm8 = countedEval(cache, fx().test.layout, p, 8);
  const CountedRun warm1 = countedEval(cache, fx().test.layout, p, 1);

  EXPECT_EQ(warm8.verdict.misses, 0u);
  EXPECT_EQ(warm1.verdict.misses, 0u);
  EXPECT_EQ(plain, tests::canonicalReport(cold8.result));
  EXPECT_EQ(plain, tests::canonicalReport(warm8.result));
  EXPECT_EQ(plain, tests::canonicalReport(warm1.result));
}

/// Rebuild `src` from its decomposed rects, translating the rect at
/// `editIndex` on layer 1 by (dx, dy). editIndex < 0 copies unchanged.
Layout rebuiltWithEdit(const Layout& src, std::ptrdiff_t editIndex, Coord dx,
                       Coord dy) {
  Layout out(src.name());
  for (const auto& [id, layer] : src.layers()) {
    const std::vector<Rect>& rects = layer.rects();
    for (std::size_t i = 0; i < rects.size(); ++i) {
      Rect r = rects[i];
      if (id == 1 && std::ptrdiff_t(i) == editIndex) {
        r = Rect{r.lo.x + dx, r.lo.y + dy, r.hi.x + dx, r.hi.y + dy};
      }
      out.addRect(id, r);
    }
  }
  return out;
}

TEST(StageCacheEval, SingleRectEditRecomputesOnlyAffectedWindows) {
  const core::EvalParams p;
  const Layout base = rebuiltWithEdit(fx().test.layout, -1, 0, 0);
  const Layout edited = rebuiltWithEdit(fx().test.layout, 0, 160, 0);

  auto cache = std::make_shared<StageCache>();
  const CountedRun cold = countedEval(cache, base, p, 2);
  const CountedRun warm = countedEval(cache, edited, p, 2);

  // Only windows whose content sees the moved rect may miss; the bulk of
  // the layout (windows far from the edit) must be served from cache.
  EXPECT_GT(warm.verdict.misses, 0u);
  EXPECT_GT(warm.verdict.hits, 0u);
  EXPECT_LT(warm.verdict.misses, warm.verdict.hits);
  EXPECT_LT(warm.verdict.misses, cold.verdict.misses);

  // The incremental result is byte-identical to a from-scratch evaluation
  // of the edited layout.
  const core::EvalResult fresh = evalWith(nullptr, edited, p, 2);
  EXPECT_EQ(tests::canonicalReport(warm.result), tests::canonicalReport(fresh));
}

TEST(StageCacheEval, ParameterChangeInvalidatesVerdictsNotScreening) {
  core::EvalParams p;
  auto cache = std::make_shared<StageCache>();
  const CountedRun cold = countedEval(cache, fx().test.layout, p, 2);
  ASSERT_GT(cold.verdict.misses, 0u);

  // decisionBias feeds the verdict fingerprint but not the screen one, so
  // a bias change recomputes every verdict while screening still hits.
  core::EvalParams biased = p;
  biased.decisionBias = 0.25;
  const CountedRun warm = countedEval(cache, fx().test.layout, biased, 2);
  EXPECT_EQ(warm.verdict.hits, 0u);
  EXPECT_GT(warm.verdict.misses, 0u);
  EXPECT_EQ(warm.screen.misses, 0u);
  EXPECT_GT(warm.screen.hits, 0u);

  // And the biased cached run matches a biased uncached run.
  const core::EvalResult fresh = evalWith(nullptr, fx().test.layout, biased, 2);
  EXPECT_EQ(tests::canonicalReport(warm.result), tests::canonicalReport(fresh));
}

TEST(StageCacheEval, ModelChangeInvalidatesEveryVerdict) {
  const core::EvalParams p;
  auto cache = std::make_shared<StageCache>();
  const CountedRun cold = countedEval(cache, fx().test.layout, p, 2);
  ASSERT_GT(cold.verdict.misses, 0u);

  // One support-vector coefficient one ulp up is a different model: none
  // of the original's verdicts may be served to it. Screening does not
  // depend on the model, so it still hits.
  core::Detector nudged = fx().detector;
  const svm::SvmModel& m = nudged.kernels.front().model;
  std::vector<double> coef = m.coefficients();
  coef.front() =
      std::nextafter(coef.front(), std::numeric_limits<double>::infinity());
  nudged.kernels.front().model =
      svm::SvmModel(m.supportVectors(), std::move(coef), m.rho(), m.gamma());
  const CountedRun warm = countedEval(cache, fx().test.layout, p, 2, nudged);
  EXPECT_EQ(warm.verdict.hits, 0u);
  EXPECT_GT(warm.verdict.misses, 0u);
  EXPECT_EQ(warm.screen.misses, 0u);

  // And the nudged model's cached run matches its uncached run.
  const core::EvalResult fresh =
      evalWith(nullptr, fx().test.layout, p, 2, nudged);
  EXPECT_EQ(tests::canonicalReport(warm.result), tests::canonicalReport(fresh));
}

TEST(StageCacheEval, TinyCapacityEvictsWithoutChangingResults) {
  const core::EvalParams p;
  auto cache = std::make_shared<StageCache>(32);
  const CountedRun first = countedEval(cache, fx().test.layout, p, 2);
  const CountedRun second = countedEval(cache, fx().test.layout, p, 2);

  EXPECT_LE(cache->size(), 32u);
  EXPECT_GT(cache->counters().evictions, 0u);
  EXPECT_GT(first.screen.misses + first.verdict.misses, 32u);

  const core::EvalResult plain = evalWith(nullptr, fx().test.layout, p, 2);
  EXPECT_EQ(tests::canonicalReport(plain), tests::canonicalReport(first.result));
  EXPECT_EQ(tests::canonicalReport(plain),
            tests::canonicalReport(second.result));
}

}  // namespace
}  // namespace hsd::engine
