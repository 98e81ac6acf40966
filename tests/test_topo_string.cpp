// Directional-string encoding and Theorem-1 matching tests, including the
// key property check: the composite-string matcher agrees with brute-force
// D8 comparison, and the canonical key is orientation-invariant.
#include <gtest/gtest.h>

#include <random>

#include "core/pattern.hpp"
#include "core/topo_string.hpp"
#include "data/generator.hpp"

namespace hsd::core {
namespace {

CorePattern pattern(Coord w, Coord h, std::vector<Rect> rects) {
  CorePattern p;
  p.w = w;
  p.h = h;
  p.rects = std::move(rects);
  return p;
}

TEST(TopoString, EmptyPatternSingleSpaceSlices) {
  const DirectionalStrings s = encodeStrings(pattern(100, 100, {}));
  ASSERT_EQ(s.bottom.size(), 1u);
  // Code "10": boundary bit then one space run -> bits 0b01, len 2.
  EXPECT_EQ(s.bottom[0].len, 2);
  EXPECT_EQ(s.bottom[0].bits & 0x3, 0x1u);
  EXPECT_EQ(s.top, s.bottom);
  EXPECT_EQ(s.left, s.right);
}

TEST(TopoString, FullBlockSlice) {
  const DirectionalStrings s =
      encodeStrings(pattern(100, 100, {{0, 0, 100, 100}}));
  ASSERT_EQ(s.bottom.size(), 1u);
  // Code "11": boundary + one block run.
  EXPECT_EQ(s.bottom[0].len, 2);
  EXPECT_EQ(s.bottom[0].bits & 0x3, 0x3u);
}

TEST(TopoString, Figure5StyleSliceCodes) {
  // A pattern with two distinct vertical slices: left half fully covered,
  // right half with a floating mid block (space-block-space from bottom).
  const CorePattern p =
      pattern(100, 100, {{0, 0, 50, 100}, {50, 40, 100, 60}});
  const DirectionalStrings s = encodeStrings(p);
  ASSERT_EQ(s.bottom.size(), 2u);
  // Slice 1 = <11b> = decimal 3 in the paper's notation.
  EXPECT_EQ(s.bottom[0].len, 2);
  EXPECT_EQ(s.bottom[0].bits, 0x3u);
  // Slice 2 = boundary, space, block, space = <1010b> read from bottom.
  EXPECT_EQ(s.bottom[1].len, 4);
  // bits are packed LSB-first per run: boundary(1),space(0),block(1),space(0)
  EXPECT_EQ(s.bottom[1].bits, 0b0101u);
}

TEST(TopoString, DimensionChangesDontChangeTopology) {
  const CorePattern a = pattern(100, 100, {{10, 10, 40, 90}});
  const CorePattern b = pattern(100, 100, {{20, 5, 45, 80}});
  EXPECT_EQ(canonicalTopoKey(a), canonicalTopoKey(b));
  EXPECT_TRUE(sameTopology(a, b));
}

TEST(TopoString, DifferentTopologyDetected) {
  const CorePattern one = pattern(100, 100, {{10, 10, 40, 90}});
  const CorePattern two =
      pattern(100, 100, {{10, 10, 30, 90}, {60, 10, 80, 90}});
  EXPECT_NE(canonicalTopoKey(one), canonicalTopoKey(two));
  EXPECT_FALSE(sameTopology(one, two));
}

TEST(TopoString, RotatedPatternsMatch) {
  const CorePattern base =
      pattern(120, 120, {{0, 0, 80, 30}, {0, 30, 30, 100}});
  for (const Orient o : kAllOrients) {
    const CorePattern t = base.transformed(o);
    EXPECT_TRUE(sameTopology(base, t)) << toString(o);
    EXPECT_EQ(canonicalTopoKey(base), canonicalTopoKey(t)) << toString(o);
  }
}

// Random rectilinear patterns for property testing.
CorePattern randomPattern(std::mt19937& rng, int maxRects = 4) {
  std::uniform_int_distribution<Coord> c(0, 100);
  std::uniform_int_distribution<int> n(1, maxRects);
  std::vector<Rect> rects;
  const int k = n(rng);
  for (int i = 0; i < k; ++i) {
    const Coord x1 = c(rng), x2 = c(rng), y1 = c(rng), y2 = c(rng);
    if (x1 == x2 || y1 == y2) continue;
    rects.push_back({x1, y1, x2, y2});
  }
  return pattern(100, 100, std::move(rects));
}

// Ground truth: same topology iff the full 4-string tuples are equal under
// some orientation of one pattern.
bool bruteForceSame(const CorePattern& a, const CorePattern& b) {
  const DirectionalStrings sb = encodeStrings(b);
  for (const Orient o : kAllOrients)
    if (encodeStrings(a.transformed(o)) == sb) return true;
  return false;
}

TEST(TopoStringProperty, CompositeMatcherAgreesWithBruteForce) {
  std::mt19937 rng(77);
  int positives = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const CorePattern a = randomPattern(rng);
    // Mix of related (transformed) and unrelated patterns.
    const CorePattern b =
        (trial % 3 == 0)
            ? a.transformed(kAllOrients[std::size_t(trial) % 8])
            : randomPattern(rng);
    const bool brute = bruteForceSame(a, b);
    const bool composite = sameTopology(a, b);
    if (brute) {
      ++positives;
      // Theorem 1 (completeness): equal topology must always be found.
      EXPECT_TRUE(composite);
    }
    // Soundness: the composite matcher and the canonical keys must agree
    // with brute force in both directions.
    EXPECT_EQ(canonicalTopoKey(a) == canonicalTopoKey(b), brute);
  }
  EXPECT_GT(positives, 50);  // the test actually exercised matches
}

TEST(TopoStringProperty, CanonicalKeyInvariantUnderD8) {
  std::mt19937 rng(91);
  for (int trial = 0; trial < 100; ++trial) {
    const CorePattern a = randomPattern(rng);
    const std::string key = canonicalTopoKey(a);
    for (const Orient o : kAllOrients)
      EXPECT_EQ(canonicalTopoKey(a.transformed(o)), key);
  }
}

TEST(TopoStringProperty, CanonicalOrientAttainsKey) {
  std::mt19937 rng(13);
  for (int trial = 0; trial < 50; ++trial) {
    const CorePattern a = randomPattern(rng);
    const Orient o = canonicalOrient(a);
    EXPECT_EQ(serializeStrings(encodeStrings(a.transformed(o))),
              canonicalTopoKey(a));
  }
}

TEST(TopoString, SliceCountMatchesCutLines) {
  // Three non-aligned rects: bottom string has one slice per x-interval
  // between distinct edge coordinates (including window margins).
  const CorePattern p = pattern(
      100, 100, {{10, 0, 20, 50}, {30, 20, 60, 80}, {70, 10, 90, 90}});
  const DirectionalStrings s = encodeStrings(p);
  // Cut xs: 0,10,20,30,60,70,90,100 -> 7 slices.
  EXPECT_EQ(s.bottom.size(), 7u);
  EXPECT_EQ(s.top.size(), 7u);
}

TEST(TopoString, SerializeIsInjectiveOnExamples) {
  const CorePattern a = pattern(100, 100, {{0, 0, 50, 100}});
  const CorePattern b = pattern(100, 100, {{50, 0, 100, 100}});
  // Same topology (mirror), different raw serialization.
  EXPECT_NE(serializeStrings(encodeStrings(a)),
            serializeStrings(encodeStrings(b)));
  EXPECT_EQ(canonicalTopoKey(a), canonicalTopoKey(b));
}

// ---------------------------------------------------------------------------
// One-encode canonical orientation: orientStrings' D8 reordering and the
// canonical key/orientation against the eight-transform definitions.

// The definitions canonicalTopoKey and canonicalOrient implement: transform
// the pattern eight times and encode each orientation from scratch.
std::string oracleTopoKey(const CorePattern& p) {
  std::string best;
  for (const Orient o : kAllOrients) {
    std::string k = serializeStrings(encodeStrings(p.transformed(o)));
    if (best.empty() || k < best) best = std::move(k);
  }
  return best;
}

Orient oracleOrient(const CorePattern& p) {
  std::string bestKey;
  std::vector<Rect> bestRects;
  Orient bestO = Orient::R0;
  bool first = true;
  for (const Orient o : kAllOrients) {
    CorePattern t = p.transformed(o);
    std::string k = serializeStrings(encodeStrings(t));
    if (first || k < bestKey || (k == bestKey && t.rects < bestRects)) {
      bestKey = std::move(k);
      bestRects = std::move(t.rects);
      bestO = o;
      first = false;
    }
  }
  return bestO;
}

// Generated training clips (core and full-clip patterns), random patterns
// with touching and overlapping rects in non-square windows, and the
// shapes where keys tie: empty, full cover, fully symmetric, and
// topologically symmetric but dimensionally lopsided.
std::vector<CorePattern> orientationCorpus() {
  std::vector<CorePattern> out = {
      pattern(100, 100, {}),
      pattern(120, 80, {}),
      pattern(100, 100, {{0, 0, 100, 100}}),
      pattern(100, 100, {{40, 40, 60, 60}}),
      pattern(100, 100, {{0, 40, 100, 60}, {40, 0, 60, 100}}),
      pattern(100, 100, {{10, 10, 40, 90}}),
      pattern(100, 100, {{0, 0, 30, 30}, {70, 70, 100, 100}}),
      pattern(100, 100, {{0, 0, 30, 30}, {70, 0, 100, 30},
                         {0, 70, 30, 100}, {70, 70, 100, 100}}),
      pattern(90, 150, {{0, 0, 90, 20}, {0, 130, 90, 150}})};
  std::mt19937 rng(2024);
  std::uniform_int_distribution<Coord> side(40, 160);
  for (int trial = 0; trial < 300; ++trial) {
    const Coord w = side(rng), h = side(rng);
    std::uniform_int_distribution<Coord> x(0, w), y(0, h);
    std::vector<Rect> rects;
    const int n = 1 + int(rng() % 6);
    for (int i = 0; i < n; ++i) {
      const Coord x1 = x(rng), x2 = x(rng), y1 = y(rng), y2 = y(rng);
      if (x1 != x2 && y1 != y2) rects.push_back({x1, y1, x2, y2});
    }
    out.push_back(pattern(w, h, std::move(rects)));
  }
  data::GeneratorParams gp;
  gp.seed = 5;
  data::TrainingTargets t;
  t.hotspots = 20;
  t.nonHotspots = 80;
  for (const Clip& c : data::generateTrainingSet(gp, t).clips) {
    out.push_back(CorePattern::fromCore(c, 1));
    out.push_back(CorePattern::fromClip(c, 1));
  }
  return out;
}

TEST(TopoStringOrient, OrientStringsEqualsEncodingTheTransformedPattern) {
  for (const CorePattern& p : orientationCorpus()) {
    const DirectionalStrings s = encodeStrings(p);
    for (const Orient o : kAllOrients)
      ASSERT_EQ(orientStrings(s, o), encodeStrings(p.transformed(o)))
          << toString(o) << " on " << serializeStrings(s);
  }
}

TEST(TopoStringOrient, CanonicalKeyAndOrientMatchEightTransformOracle) {
  std::size_t ties = 0;
  for (const CorePattern& p : orientationCorpus()) {
    const std::string key = oracleTopoKey(p);
    ASSERT_EQ(canonicalTopoKey(p), key) << serializeStrings(encodeStrings(p));
    ASSERT_EQ(canonicalOrient(p), oracleOrient(p))
        << serializeStrings(encodeStrings(p));
    std::size_t attaining = 0;
    for (const Orient o : kAllOrients)
      attaining +=
          serializeStrings(encodeStrings(p.transformed(o))) == key ? 1 : 0;
    ties += attaining > 1 ? 1 : 0;
  }
  EXPECT_GT(ties, 10u);  // the rect tie-break actually ran
}

TEST(TopoStringOrient, FullySymmetricPatternKeepsTheFirstOrientation) {
  // Every orientation gives the same key and the same rects: the first
  // (R0) wins, as in kAllOrients order.
  EXPECT_EQ(canonicalOrient(pattern(100, 100, {})), Orient::R0);
  EXPECT_EQ(canonicalOrient(pattern(100, 100, {{0, 0, 100, 100}})),
            Orient::R0);
  EXPECT_EQ(canonicalOrient(pattern(100, 100, {{40, 40, 60, 60}})),
            Orient::R0);
}

}  // namespace
}  // namespace hsd::core
