// Tiling-layer tests (ctest label: tile). Three layers of coverage:
//
//  1. GridTiling / TilePlan / ReportMerger unit behavior: row-major ids,
//     half-open seam ownership (total and unique), halo floor hard errors
//     (anything below ambit + half core refuses to plan — a halo of just
//     the ambit is NOT enough), ownership dedup and sequence-ordered
//     merge.
//  2. Tiled evaluateLayout() vs the monolithic path: byte-identical
//     reports (canonicalReport) and identical counters at threads=1 and
//     8, across tile sizes from "clip spans four tiles" to "one tile
//     holds everything", on seam-aligned geometry and on layouts with
//     empty tiles; a warm shared cache serves tiled runs from entries a
//     monolithic run populated (same keys in both modes).
//  3. Tiled requests through serve::DetectionServer: fan-out across the
//     context pool returns results byte-identical to untiled requests,
//     and repeated tiled submissions hit the shared cache.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/evaluator.hpp"
#include "engine/cache.hpp"
#include "engine/run_context.hpp"
#include "engine/stats.hpp"
#include "engine/tiler.hpp"
#include "geom/tiling.hpp"
#include "serve/server.hpp"

namespace hsd::engine {
namespace {

using tests::kClip;

// ---------------------------------------------------------------------------
// GridTiling: deterministic row-major grid with half-open seam ownership.

TEST(GridTilingUnit, OverComputesCeilGridShape) {
  const Rect b{0, 0, 10000, 7000};
  const GridTiling g = GridTiling::over(b, 4000);
  EXPECT_EQ(g.nx, 3u);  // ceil(10000 / 4000)
  EXPECT_EQ(g.ny, 2u);  // ceil(7000 / 4000)
  EXPECT_EQ(g.tileCount(), 6u);
}

TEST(GridTilingUnit, DegenerateBoundsStillYieldOneTile) {
  const GridTiling g = GridTiling::over(Rect{5, 5, 5, 5}, 100);
  EXPECT_EQ(g.tileCount(), 1u);
  EXPECT_EQ(g.ownerOf({5, 5}), 0u);
}

TEST(GridTilingUnit, TileBoxesAreRowMajorAndClampedToBounds) {
  const Rect b{1000, 2000, 10000, 9000};
  const GridTiling g = GridTiling::over(b, 4000);
  ASSERT_EQ(g.nx, 3u);
  ASSERT_EQ(g.ny, 2u);
  // id 0 is the lower-left tile; ids walk x first (row-major).
  EXPECT_EQ(g.tileBox(0), (Rect{1000, 2000, 5000, 6000}));
  EXPECT_EQ(g.tileBox(1), (Rect{5000, 2000, 9000, 6000}));
  EXPECT_EQ(g.tileBox(2), (Rect{9000, 2000, 10000, 6000}));  // x-clamped
  EXPECT_EQ(g.tileBox(3), (Rect{1000, 6000, 5000, 9000}));   // y-clamped
  EXPECT_EQ(g.tileBox(5), (Rect{9000, 6000, 10000, 9000}));
}

TEST(GridTilingUnit, SeamPointsHaveExactlyOneOwner) {
  const Rect b{0, 0, 8000, 8000};
  const GridTiling g = GridTiling::over(b, 4000);  // 2x2
  // Interior points.
  EXPECT_EQ(g.ownerOf({1, 1}), 0u);
  EXPECT_EQ(g.ownerOf({4001, 1}), 1u);
  EXPECT_EQ(g.ownerOf({1, 4001}), 2u);
  EXPECT_EQ(g.ownerOf({4001, 4001}), 3u);
  // A point exactly on an interior seam belongs to the tile above/right
  // of it (half-open tiles), never to two tiles.
  EXPECT_EQ(g.ownerOf({4000, 100}), 1u);
  EXPECT_EQ(g.ownerOf({100, 4000}), 2u);
  EXPECT_EQ(g.ownerOf({4000, 4000}), 3u);  // four-corner point: one owner
  // The bounds' own edges are owned by the first/last row and column —
  // ownership is total over the bounds (and clamps outside them).
  EXPECT_EQ(g.ownerOf({0, 0}), 0u);
  EXPECT_EQ(g.ownerOf({8000, 8000}), 3u);
  EXPECT_EQ(g.ownerOf({-50, 9000}), 2u);
}

TEST(GridTilingUnit, OwnershipMatchesContainingTileBox) {
  // For strictly interior points, the owner's box contains the point.
  const Rect b{-3000, -3000, 9000, 9000};
  const GridTiling g = GridTiling::over(b, 5000);
  for (Coord x = -2999; x < 9000; x += 1357) {
    for (Coord y = -2999; y < 9000; y += 1777) {
      const Rect box = g.tileBox(g.ownerOf({x, y}));
      EXPECT_TRUE(box.lo.x <= x && x <= box.hi.x) << x << "," << y;
      EXPECT_TRUE(box.lo.y <= y && y <= box.hi.y) << x << "," << y;
    }
  }
}

// ---------------------------------------------------------------------------
// TilePlan: halo floor enforcement and tile geometry.

TEST(TilePlanUnit, AutoHaloIsTheExactnessMinimum) {
  TilingParams tp;
  tp.tileSize = 6000;
  const TilePlan plan = TilePlan::make(Rect{0, 0, 20000, 20000}, tp, kClip);
  EXPECT_EQ(plan.halo(), minTileHalo(kClip));
  EXPECT_GT(minTileHalo(kClip), kClip.ambit());  // strictly beyond ambit
}

TEST(TilePlanUnit, UndersizedHaloIsAHardError) {
  TilingParams tp;
  tp.tileSize = 6000;
  const Rect b{0, 0, 20000, 20000};
  // A halo of the ambit alone silently changes seam verdicts — it must
  // refuse to plan, not degrade.
  tp.halo = kClip.ambit();
  EXPECT_THROW(TilePlan::make(b, tp, kClip), std::invalid_argument);
  tp.halo = minTileHalo(kClip) - 1;
  EXPECT_THROW(TilePlan::make(b, tp, kClip), std::invalid_argument);
  tp.halo = minTileHalo(kClip);
  EXPECT_NO_THROW(TilePlan::make(b, tp, kClip));
  // Disabled tiling cannot be planned either.
  tp.tileSize = 0;
  tp.halo = 0;
  EXPECT_THROW(TilePlan::make(b, tp, kClip), std::invalid_argument);
}

TEST(TilePlanUnit, ExpandedRegionIsOwnedInflatedByHalo) {
  TilingParams tp;
  tp.tileSize = 5000;
  const TilePlan plan = TilePlan::make(Rect{0, 0, 12000, 12000}, tp, kClip);
  for (std::size_t id = 0; id < plan.tileCount(); ++id) {
    const TileSpec t = plan.tile(id);
    EXPECT_EQ(t.id, id);
    EXPECT_EQ(t.expanded, t.owned.inflated(plan.halo()));
  }
}

// ---------------------------------------------------------------------------
// ReportMerger: ownership dedup + global anchor-sequence order.

TEST(ReportMergerUnit, DropsNonOwnedDuplicatesAndSortsBySequence) {
  TilingParams tp;
  tp.tileSize = 4000;
  const TilePlan plan = TilePlan::make(Rect{0, 0, 8000, 8000}, tp, kClip);
  ASSERT_EQ(plan.tileCount(), 4u);

  const Point a0{1000, 1000};  // owned by tile 0
  const Point a1{5000, 1000};  // owned by tile 1
  ASSERT_EQ(plan.ownerOf(a0), 0u);
  ASSERT_EQ(plan.ownerOf(a1), 1u);

  ReportMerger merger(plan);
  // Tile 1 reports its own hit plus a halo duplicate of tile 0's anchor;
  // tile 0 reports its hit late and out of sequence order.
  merger.add(1, {{7, a1, tests::at(a1.x, a1.y)},
                 {3, a0, tests::at(a0.x, a0.y)}});
  merger.add(0, {{3, a0, tests::at(a0.x, a0.y)}});

  EXPECT_EQ(merger.droppedNonOwned(), 1u);
  const std::vector<ClipWindow> out = merger.finish();
  ASSERT_EQ(out.size(), 2u);
  // Sequence order, not arrival order: seq 3 before seq 7.
  EXPECT_EQ(out[0], tests::at(a0.x, a0.y));
  EXPECT_EQ(out[1], tests::at(a1.x, a1.y));
}

// ---------------------------------------------------------------------------
// EngineStats tile namespacing: roll-ups and JSON aggregates.

TEST(EngineStatsTiling, RollupSumsTileNamespacedEntries) {
  EngineStats s;
  s.record("tile0/eval/svm", 10, 0.25);
  s.record("tile12/eval/svm", 5, 0.5);
  s.record("eval/svm", 1, 0.125);          // plain entry folds in too
  s.record("tile0/extract/screen", 3, 0.0625);
  s.record("tileX/eval/svm", 99, 9.0);     // not a tile namespace: ignored
  s.record("tile/eval/svm", 99, 9.0);      // no digits: ignored

  const StageStats r = s.rollup("eval/svm");
  EXPECT_EQ(r.calls, 3u);
  EXPECT_EQ(r.items, 16u);
  EXPECT_DOUBLE_EQ(r.seconds, 0.875);

  s.recordCache("tile0/eval/verdict", 4, 2, 0);
  s.recordCache("tile1/eval/verdict", 1, 3, 1);
  const CacheStats c = s.cacheRollup("eval/verdict");
  EXPECT_EQ(c.hits, 5u);
  EXPECT_EQ(c.misses, 5u);
  EXPECT_EQ(c.evictions, 1u);
}

TEST(EngineStatsTiling, ToJsonAppendsAggregatesAfterRawEntries) {
  EngineStats s;
  s.record("tile0/eval/svm", 2, 0.0);
  s.record("tile1/eval/svm", 3, 0.0);
  const std::string json = s.toJson();
  const auto raw0 = json.find("\"tile0/eval/svm\"");
  const auto raw1 = json.find("\"tile1/eval/svm\"");
  const auto agg = json.find("\"eval/svm\"");
  ASSERT_NE(raw0, std::string::npos);
  ASSERT_NE(raw1, std::string::npos);
  ASSERT_NE(agg, std::string::npos);
  EXPECT_LT(raw0, raw1);
  EXPECT_LT(raw1, agg);  // roll-up follows the raw per-tile entries
  EXPECT_NE(json.find("\"items\": 5"), std::string::npos);
}

TEST(EngineStatsTiling, MonolithicJsonHasNoAggregates) {
  EngineStats s;
  s.record("eval/svm", 2, 0.0);
  s.record("eval/clip", 1, 0.0);
  const std::string json = s.toJson();
  // Exactly one occurrence of each key: no duplicate roll-up entries for
  // untiled runs (byte-compat with the pre-tiling ENGINE_STATS format).
  EXPECT_EQ(json.find("\"eval/svm\""), json.rfind("\"eval/svm\""));
  EXPECT_EQ(json.find("\"eval/clip\""), json.rfind("\"eval/clip\""));
}

TEST(EngineStatsTiling, MergeFromFoldsIntoExistingSlots) {
  EngineStats a;
  a.declare("tile0/eval/svm");
  a.declare("tile1/eval/svm");
  a.record("tile0/eval/svm", 2, 0.5);

  EngineStats b;
  b.record("tile1/eval/svm", 7, 0.25);
  b.recordCache("tile1/eval/verdict", 3, 1, 0);
  a.mergeFrom(b);

  EXPECT_EQ(a.stage("tile1/eval/svm").items, 7u);
  EXPECT_EQ(a.cache("tile1/eval/verdict").hits, 3u);
  // Declared order is preserved: tile0 still reports before tile1.
  const auto snap = a.snapshot();
  ASSERT_GE(snap.size(), 2u);
  EXPECT_EQ(snap[0].first, "tile0/eval/svm");
  EXPECT_EQ(snap[1].first, "tile1/eval/svm");
}

// ---------------------------------------------------------------------------
// Tiled evaluateLayout vs monolithic: byte identity at every shape.

const tests::DetectorFixture& fx() { return tests::detectorFixture(); }

core::EvalResult runEval(const Layout& layout, const core::EvalParams& p,
                         std::size_t threads,
                         std::shared_ptr<StageCache> cache = nullptr) {
  RunContext ctx(threads);
  if (cache) ctx.attachCache(std::move(cache));
  return core::evaluateLayout(fx().detector, layout, p, ctx);
}

core::EvalParams tiledParams(Coord tileSize, std::size_t tileThreads = 0) {
  core::EvalParams p;
  p.tiling.tileSize = tileSize;
  p.tiling.tileThreads = tileThreads;
  return p;
}

TEST(TiledEval, ByteIdenticalToMonolithicAcrossTileSizesAndThreads) {
  const core::EvalResult mono = runEval(fx().test.layout, {}, 1);
  ASSERT_GT(mono.candidateClips, 0u);
  const std::string monoCanon = tests::canonicalReport(mono);

  // 3000 dbu tiles are smaller than one clip window (4800 dbu): every
  // clip spans at least four tiles. 100000 dbu collapses to one tile.
  for (const Coord tileSize : {Coord(3000), Coord(9000), Coord(100000)}) {
    for (const std::size_t threads : {std::size_t(1), std::size_t(8)}) {
      const core::EvalResult tiled =
          runEval(fx().test.layout, tiledParams(tileSize), threads);
      // Exact identity: same windows in the same order, same counters.
      EXPECT_EQ(tiled.reported, mono.reported)
          << "tileSize=" << tileSize << " threads=" << threads;
      EXPECT_EQ(tiled.candidateClips, mono.candidateClips);
      EXPECT_EQ(tiled.flaggedBeforeRemoval, mono.flaggedBeforeRemoval);
      EXPECT_EQ(tests::canonicalReport(tiled), monoCanon);
    }
  }
}

TEST(TiledEval, SeamAlignedGeometryMatchesMonolithic) {
  // Rect corners — hence candidate anchors — sit exactly on tile seams
  // (multiples of the tile size), the worst case for ownership: every
  // seam anchor is claimed by exactly one tile or the merge breaks.
  const Coord tileSize = 4000;
  Layout layout("seam_aligned");
  for (Coord x = 0; x <= 20000; x += tileSize)
    layout.addRect(1, Rect{x, 0, x + 120, 20000});
  for (Coord y = 0; y <= 20000; y += tileSize)
    layout.addRect(1, Rect{0, y, 20000, y + 120});

  const core::EvalResult mono = runEval(layout, {}, 1);
  ASSERT_GT(mono.candidateClips, 0u);
  for (const std::size_t threads : {std::size_t(1), std::size_t(8)}) {
    const core::EvalResult tiled =
        runEval(layout, tiledParams(tileSize), threads);
    EXPECT_EQ(tiled.reported, mono.reported) << "threads=" << threads;
    EXPECT_EQ(tiled.candidateClips, mono.candidateClips);
  }
}

TEST(TiledEval, EmptyTilesAreSkippedAndHarmless) {
  // Geometry only in two opposite corners of a wide extent: most tiles
  // own no anchors and must neither run nor perturb the merge.
  Layout layout("sparse_corners");
  for (Coord i = 0; i < 3; ++i) {
    layout.addRect(1, Rect{i * 400, 0, i * 400 + 150, 5000});
    layout.addRect(1, Rect{40000 + i * 400, 40000, 40000 + i * 400 + 150,
                           45000});
  }

  const core::EvalParams tp = tiledParams(5000);
  const core::TiledLayout tiled =
      core::prepareTiledLayout(layout, fx().detector.params.layer, tp);
  EXPECT_GT(tiled.plan.tileCount(), tiled.work.size())
      << "expected some tiles to own no anchors";
  EXPECT_GT(tiled.anchorCount, 0u);

  const core::EvalResult mono = runEval(layout, {}, 1);
  const core::EvalResult t1 = runEval(layout, tp, 1);
  const core::EvalResult t8 = runEval(layout, tp, 8);
  EXPECT_EQ(t1.reported, mono.reported);
  EXPECT_EQ(t8.reported, mono.reported);
  EXPECT_EQ(t1.candidateClips, mono.candidateClips);
}

TEST(TiledEval, ClaimOrderTakesBiggestTilesFirst) {
  const core::TiledLayout tiled = core::prepareTiledLayout(
      fx().test.layout, fx().detector.params.layer, tiledParams(6000));
  ASSERT_GT(tiled.work.size(), 2u);
  ASSERT_EQ(tiled.claimOrder.size(), tiled.work.size());
  std::vector<bool> seen(tiled.work.size(), false);
  for (std::size_t k = 0; k < tiled.claimOrder.size(); ++k) {
    const std::size_t i = tiled.claimOrder[k];
    ASSERT_LT(i, tiled.work.size());
    EXPECT_FALSE(seen[i]) << "work index " << i << " claimed twice";
    seen[i] = true;
    if (k == 0) continue;
    const std::size_t prev = tiled.claimOrder[k - 1];
    EXPECT_GE(tiled.work[prev].anchors.size(), tiled.work[i].anchors.size());
    if (tiled.work[prev].anchors.size() == tiled.work[i].anchors.size())
      EXPECT_LT(prev, i) << "ties keep tile order";
  }
}

TEST(TiledEval, EmptyLayoutYieldsNothing) {
  const Layout empty;
  const core::EvalResult res = runEval(empty, tiledParams(4000), 2);
  EXPECT_TRUE(res.reported.empty());
  EXPECT_EQ(res.candidateClips, 0u);
}

TEST(TiledEval, TileThreadsCapPreservesIdentity) {
  const core::EvalResult mono = runEval(fx().test.layout, {}, 1);
  for (const std::size_t cap : {std::size_t(1), std::size_t(3)}) {
    const core::EvalResult tiled =
        runEval(fx().test.layout, tiledParams(6000, cap), 8);
    EXPECT_EQ(tiled.reported, mono.reported) << "tileThreads=" << cap;
  }
}

TEST(TiledEval, UndersizedHaloOverrideThrowsFromEvaluate) {
  core::EvalParams p = tiledParams(6000);
  p.tiling.halo = kClip.ambit();  // below the exactness minimum
  RunContext ctx(1);
  EXPECT_THROW(core::evaluateLayout(fx().detector, fx().test.layout, p, ctx),
               std::invalid_argument);
}

TEST(TiledEval, SharedCacheServesTiledRunsFromMonolithicEntries) {
  // Cache keys are canonical (translation-invariant content hashes, no
  // tile namespace): a monolithic run's entries must serve a tiled run
  // and vice versa.
  auto cache = std::make_shared<StageCache>();
  const core::EvalResult mono = runEval(fx().test.layout, {}, 1, cache);

  RunContext ctx(2);
  ctx.attachCache(cache);
  const core::EvalResult tiled = core::evaluateLayout(
      fx().detector, fx().test.layout, tiledParams(8000), ctx);
  EXPECT_EQ(tiled.reported, mono.reported);

  const CacheStats verdict = ctx.stats().cacheRollup("eval/verdict");
  EXPECT_EQ(verdict.misses, 0u);  // every window already cached
  EXPECT_GT(verdict.hits, 0u);
  const CacheStats screen = ctx.stats().cacheRollup("extract/screen");
  EXPECT_EQ(screen.misses, 0u);
  EXPECT_GT(screen.hits, 0u);
}

TEST(TiledEval, WarmTiledRunIsByteIdenticalAndAllHits) {
  auto cache = std::make_shared<StageCache>();
  const core::EvalParams tp = tiledParams(7000);
  const core::EvalResult cold = runEval(fx().test.layout, tp, 8, cache);

  RunContext ctx(8);
  ctx.attachCache(cache);
  const core::EvalResult warm =
      core::evaluateLayout(fx().detector, fx().test.layout, tp, ctx);
  EXPECT_EQ(tests::canonicalReport(cold), tests::canonicalReport(warm));
  EXPECT_EQ(ctx.stats().cacheRollup("eval/verdict").misses, 0u);
  EXPECT_GT(ctx.stats().cacheRollup("eval/verdict").hits, 0u);
}

// ---------------------------------------------------------------------------
// Serving: tiled requests fan across the pool, results stay identical.

TEST(ServeTiled, TiledRequestMatchesUntiledRequest) {
  serve::ServerConfig cfg;
  cfg.workers = 2;
  cfg.contexts = 3;  // fan-out has idle contexts to borrow
  cfg.threadsPerContext = 2;
  serve::DetectionServer server(cfg);

  core::EvalParams plain;
  auto fut0 = server.submit(fx().detector, fx().test.layout, plain);
  const serve::ServeResult untiled = fut0.get();
  ASSERT_TRUE(untiled.ok()) << untiled.error;

  auto futs = std::vector<std::future<serve::ServeResult>>{};
  for (const Coord tileSize : {Coord(5000), Coord(12000)})
    futs.push_back(server.submit(fx().detector, fx().test.layout,
                                 tiledParams(tileSize)));
  for (auto& f : futs) {
    const serve::ServeResult tiled = f.get();
    ASSERT_TRUE(tiled.ok()) << tiled.error;
    EXPECT_EQ(tiled.result.reported, untiled.result.reported);
    EXPECT_EQ(tiled.result.candidateClips, untiled.result.candidateClips);
    // The request's stats JSON covers every tile (helpers merged back).
    EXPECT_NE(tiled.statsJson.find("tile0/"), std::string::npos);
  }
  // Tiled and untiled requests shared one cache: the later tiled runs
  // were served from entries the first request populated.
  EXPECT_GT(server.stats().cache.hits, 0u);
  server.shutdown();
}

TEST(ServeTiled, SingleContextPoolStillCompletesTiledRequests) {
  // No idle contexts to borrow: the fan-out must degrade to the primary
  // context draining every tile itself, never deadlock.
  serve::ServerConfig cfg;
  cfg.workers = 1;
  cfg.contexts = 1;
  serve::DetectionServer server(cfg);

  auto fut = server.submit(fx().detector, fx().test.layout,
                           tiledParams(6000));
  const serve::ServeResult r = fut.get();
  ASSERT_TRUE(r.ok()) << r.error;

  auto fut2 = server.submit(fx().detector, fx().test.layout, {});
  const serve::ServeResult untiled = fut2.get();
  ASSERT_TRUE(untiled.ok()) << untiled.error;
  EXPECT_EQ(r.result.reported, untiled.result.reported);
  server.shutdown();
}

TEST(ServeTiled, ConcurrentTiledRequestsStayIdentical) {
  serve::ServerConfig cfg;
  cfg.workers = 3;
  cfg.contexts = 4;
  cfg.threadsPerContext = 2;
  serve::DetectionServer server(cfg);

  std::vector<std::future<serve::ServeResult>> futs;
  for (int i = 0; i < 6; ++i)
    futs.push_back(server.submit(fx().detector, fx().test.layout,
                                 tiledParams(6000, /*tileThreads=*/2)));
  const serve::ServeResult first = futs[0].get();
  ASSERT_TRUE(first.ok()) << first.error;
  for (std::size_t i = 1; i < futs.size(); ++i) {
    const serve::ServeResult r = futs[i].get();
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.result.reported, first.result.reported) << "request " << i;
  }
  server.shutdown();
}

}  // namespace
}  // namespace hsd::engine
