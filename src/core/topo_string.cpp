#include "core/topo_string.hpp"

#include <algorithm>
#include <array>
#include <charconv>

#include "geom/interval.hpp"
#include "geom/rectset.hpp"

namespace hsd::core {

namespace {

// Append one run label (1 block / 0 space) to a slice code.
void pushBit(SliceCode& c, bool one) {
  if (c.len >= 64) return;  // physically impossible in a 1.2um core
  if (one) c.bits |= (std::uint64_t{1} << c.len);
  ++c.len;
}

// Run labels of a slice, reading from coordinate 0 upward: the merged
// covered intervals within [0, extent] alternate with space runs.
// Returns labels in ascending-coordinate order (no boundary bit).
std::vector<bool> runLabels(const std::vector<Interval>& covered,
                            Coord extent) {
  std::vector<bool> runs;
  Coord cursor = 0;
  for (const Interval& iv : covered) {
    const Coord lo = std::max<Coord>(iv.lo, 0);
    const Coord hi = std::min(iv.hi, extent);
    if (hi <= lo) continue;
    if (lo > cursor) runs.push_back(false);
    runs.push_back(true);
    cursor = hi;
  }
  if (cursor < extent || runs.empty()) runs.push_back(false);
  return runs;
}

SliceCode makeCode(const std::vector<bool>& runs, bool reversed) {
  SliceCode c;
  pushBit(c, true);  // boundary marker
  if (reversed) {
    for (auto it = runs.rbegin(); it != runs.rend(); ++it) pushBit(c, *it);
  } else {
    for (const bool b : runs) pushBit(c, b);
  }
  return c;
}

// Distinct slice cut coordinates: polygon edges plus the window bounds.
std::vector<Coord> cutsX(const CorePattern& p) {
  std::vector<Coord> xs{0, p.w};
  for (const Rect& r : p.rects) {
    xs.push_back(r.lo.x);
    xs.push_back(r.hi.x);
  }
  std::sort(xs.begin(), xs.end());
  xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
  return xs;
}

std::vector<Coord> cutsY(const CorePattern& p) {
  std::vector<Coord> ys{0, p.h};
  for (const Rect& r : p.rects) {
    ys.push_back(r.lo.y);
    ys.push_back(r.hi.y);
  }
  std::sort(ys.begin(), ys.end());
  ys.erase(std::unique(ys.begin(), ys.end()), ys.end());
  return ys;
}

}  // namespace

DirectionalStrings encodeStrings(const CorePattern& p) {
  DirectionalStrings s;
  const std::vector<Coord> xs = cutsX(p);
  const std::vector<Coord> ys = cutsY(p);

  // Vertical slices (cuts at x) serve the bottom and top strings.
  std::vector<std::vector<bool>> vRuns;
  for (std::size_t i = 0; i + 1 < xs.size(); ++i) {
    if (xs[i] < 0 || xs[i + 1] > p.w || xs[i] >= xs[i + 1]) continue;
    vRuns.push_back(runLabels(coveredY(p.rects, xs[i], xs[i + 1]), p.h));
  }
  for (const auto& runs : vRuns)  // bottom: slices left->right, runs up
    s.bottom.push_back(makeCode(runs, /*reversed=*/false));
  for (auto it = vRuns.rbegin(); it != vRuns.rend(); ++it)  // top: right->left
    s.top.push_back(makeCode(*it, /*reversed=*/true));

  // Horizontal slices (cuts at y) serve the left and right strings.
  std::vector<std::vector<bool>> hRuns;
  for (std::size_t i = 0; i + 1 < ys.size(); ++i) {
    if (ys[i] < 0 || ys[i + 1] > p.h || ys[i] >= ys[i + 1]) continue;
    hRuns.push_back(runLabels(coveredX(p.rects, ys[i], ys[i + 1]), p.w));
  }
  for (const auto& runs : hRuns)  // right: slices bottom->top, runs leftward
    s.right.push_back(makeCode(runs, /*reversed=*/true));
  for (auto it = hRuns.rbegin(); it != hRuns.rend(); ++it)  // left: top->down
    s.left.push_back(makeCode(*it, /*reversed=*/false));

  return s;
}

namespace {

std::vector<SliceCode> ccwComposite(const DirectionalStrings& s) {
  std::vector<SliceCode> out;
  out.reserve(s.bottom.size() + s.right.size() + s.top.size() +
              s.left.size());
  out.insert(out.end(), s.bottom.begin(), s.bottom.end());
  out.insert(out.end(), s.right.begin(), s.right.end());
  out.insert(out.end(), s.top.begin(), s.top.end());
  out.insert(out.end(), s.left.begin(), s.left.end());
  return out;
}

bool containsCyclic(const std::vector<SliceCode>& hay,
                    const std::vector<SliceCode>& needle) {
  if (needle.empty()) return true;
  if (needle.size() > hay.size()) return false;
  // Doubling the haystack turns cyclic search into linear search.
  std::vector<SliceCode> d = hay;
  d.insert(d.end(), hay.begin(), hay.end());
  return std::search(d.begin(), d.end(), needle.begin(), needle.end()) !=
         d.end();
}

}  // namespace

bool sameTopology(const DirectionalStrings& a, const DirectionalStrings& b) {
  // Two adjacent side strings of `a` in ccw order (left then bottom, as in
  // the paper's example; any adjacent pair works).
  std::vector<SliceCode> needle = a.left;
  needle.insert(needle.end(), a.bottom.begin(), a.bottom.end());

  const std::vector<SliceCode> ccw = ccwComposite(b);
  if (containsCyclic(ccw, needle)) return true;
  std::vector<SliceCode> cw(ccw.rbegin(), ccw.rend());
  return containsCyclic(cw, needle);
}

bool sameTopology(const CorePattern& a, const CorePattern& b) {
  return sameTopology(encodeStrings(a), encodeStrings(b));
}

namespace {

/// One side string as it appears in an oriented tuple: a side of the R0
/// encoding, read forwards or with its slice sequence reversed.
struct SideView {
  const std::vector<SliceCode>* codes;
  bool reversed;
};
using OrientedSides = std::array<SideView, 4>;  // bottom, right, top, left

OrientedSides orientedSides(const DirectionalStrings& s, Orient o) {
  const std::vector<SliceCode>* const b = &s.bottom;
  const std::vector<SliceCode>* const r = &s.right;
  const std::vector<SliceCode>* const t = &s.top;
  const std::vector<SliceCode>* const l = &s.left;
  switch (o) {
    case Orient::R0:    return {{{b, false}, {r, false}, {t, false}, {l, false}}};
    case Orient::R90:   return {{{l, false}, {b, false}, {r, false}, {t, false}}};
    case Orient::R180:  return {{{t, false}, {l, false}, {b, false}, {r, false}}};
    case Orient::R270:  return {{{r, false}, {t, false}, {l, false}, {b, false}}};
    case Orient::MX:    return {{{t, true}, {r, true}, {b, true}, {l, true}}};
    case Orient::MY:    return {{{b, true}, {l, true}, {t, true}, {r, true}}};
    case Orient::MXR90: return {{{l, true}, {t, true}, {r, true}, {b, true}}};
    case Orient::MYR90: return {{{r, true}, {b, true}, {l, true}, {t, true}}};
  }
  return {{{b, false}, {r, false}, {t, false}, {l, false}}};  // unreachable
}

/// serializeStrings' format ("<hex bits>:<dec len>," per code, '|' after
/// each side) written into `out`, whose capacity is reused across calls.
void serializeInto(const OrientedSides& sides, std::string& out) {
  out.clear();
  char buf[32];
  const auto code = [&](const SliceCode& c) {
    char* p = std::to_chars(buf, buf + sizeof(buf), c.bits, 16).ptr;
    *p++ = ':';
    p = std::to_chars(p, buf + sizeof(buf), int(c.len)).ptr;
    *p++ = ',';
    out.append(buf, p);
  };
  for (const SideView& side : sides) {
    if (side.reversed) {
      for (auto it = side.codes->rbegin(); it != side.codes->rend(); ++it)
        code(*it);
    } else {
      for (const SliceCode& c : *side.codes) code(c);
    }
    out.push_back('|');
  }
}

}  // namespace

std::string serializeStrings(const DirectionalStrings& s) {
  std::string out;
  serializeInto(orientedSides(s, Orient::R0), out);
  return out;
}

DirectionalStrings orientStrings(const DirectionalStrings& s, Orient o) {
  const OrientedSides sides = orientedSides(s, o);
  const auto copy = [](const SideView& v) {
    return v.reversed ? std::vector<SliceCode>(v.codes->rbegin(),
                                               v.codes->rend())
                      : *v.codes;
  };
  return {copy(sides[0]), copy(sides[1]), copy(sides[2]), copy(sides[3])};
}

std::string canonicalTopoKey(const CorePattern& p) {
  const DirectionalStrings s = encodeStrings(p);
  std::string best;
  std::string key;
  for (const Orient o : kAllOrients) {
    serializeInto(orientedSides(s, o), key);
    if (o == kAllOrients.front() || key < best) best.swap(key);
  }
  return best;
}

Orient canonicalOrient(const CorePattern& p) {
  // Ties on the topology key are broken by the transformed geometry
  // itself: patterns with a topologically symmetric but dimensionally
  // asymmetric shape would otherwise canonicalize inconsistently across
  // orientations (breaking feature alignment within a cluster).
  const DirectionalStrings s = encodeStrings(p);
  thread_local std::string bestKey;
  thread_local std::string key;
  std::vector<Rect> bestRects;  // p.transformed(bestO).rects, once a tie needs it
  bool haveBestRects = false;
  Orient bestO = Orient::R0;
  for (const Orient o : kAllOrients) {
    serializeInto(orientedSides(s, o), key);
    if (o == kAllOrients.front() || key < bestKey) {
      bestKey.swap(key);
      bestO = o;
      haveBestRects = false;
    } else if (key == bestKey) {
      if (!haveBestRects) {
        bestRects = p.transformed(bestO).rects;
        haveBestRects = true;
      }
      std::vector<Rect> rects = p.transformed(o).rects;
      if (rects < bestRects) {
        bestRects = std::move(rects);
        bestO = o;
      }
    }
  }
  return bestO;
}

}  // namespace hsd::core
