// Four-directional string encoding of a core pattern's topology and the
// composite-string matching of Theorem 1 (Sec. III-B1).
//
// Each side (bottom/right/top/left) yields one string: the pattern is
// sliced along polygon edges perpendicular to that side; every slice
// encodes a boundary bit followed by the labels of the alternating
// block(1)/space(0) runs read *away from that side's boundary*. Slices are
// ordered along the counterclockwise traversal of the window, so rotating
// the pattern cyclically rotates the 4-tuple of side strings and mirroring
// reverses it — which is exactly what the composite-string search exploits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pattern.hpp"

namespace hsd::core {

/// One slice's binary run code (boundary bit + run labels), LSB-free
/// explicit representation: bits[0] is the boundary marker.
struct SliceCode {
  std::uint64_t bits = 0;  ///< bit i (from MSB order below) packed LSB-first
  std::uint8_t len = 0;

  friend constexpr auto operator<=>(const SliceCode&,
                                    const SliceCode&) = default;
};

/// The four side strings, each a sequence of slice codes in ccw traversal
/// order: bottom (left->right), right (bottom->top), top (right->left),
/// left (top->bottom).
struct DirectionalStrings {
  std::vector<SliceCode> bottom;
  std::vector<SliceCode> right;
  std::vector<SliceCode> top;
  std::vector<SliceCode> left;

  friend auto operator<=>(const DirectionalStrings&,
                          const DirectionalStrings&) = default;
};

/// Encode all four directional strings of `p`.
DirectionalStrings encodeStrings(const CorePattern& p);

/// Theorem-1 composite-string matching: true iff the two core patterns have
/// the same topology under some of the eight orientations. Chooses two
/// adjacent side strings of `a` and searches them in the counterclockwise
/// and clockwise composite strings of `b`.
bool sameTopology(const DirectionalStrings& a, const DirectionalStrings& b);
bool sameTopology(const CorePattern& a, const CorePattern& b);

/// The strings of p.transformed(o), derived from s = encodeStrings(p)
/// without re-encoding. Every orientation reorders the R0 tuple
/// (b, r, t, l) — rotations rotate it, mirrors also reverse each side's
/// slice sequence (x̄):
///   R90 (l,b,r,t)   R180 (t,l,b,r)   R270 (r,t,l,b)
///   MY (b̄,l̄,t̄,r̄)   MX (t̄,r̄,b̄,l̄)   MXR90 (l̄,t̄,r̄,b̄)   MYR90 (r̄,b̄,l̄,t̄)
/// Slice codes read from their side's boundary inward, so a code itself
/// never changes.
DirectionalStrings orientStrings(const DirectionalStrings& s, Orient o);

/// Canonical topology key: the lexicographically smallest serialization of
/// encodeStrings over all eight orientations of `p`. Two patterns have the
/// same key iff they have the same topology (used for hash-based
/// clustering; property-tested against sameTopology). Encodes `p` once and
/// derives the other seven orientations with orientStrings' reordering.
std::string canonicalTopoKey(const CorePattern& p);

/// The orientation whose encoding attains the canonical key (ties broken by
/// the transformed rects, then by kAllOrients order). Feature extraction
/// aligns all cluster members by transforming them with this orientation
/// first. Encodes once like canonicalTopoKey; transforms the rects only to
/// break a key tie.
Orient canonicalOrient(const CorePattern& p);

/// Serialize directional strings for hashing / debugging.
std::string serializeStrings(const DirectionalStrings& s);

}  // namespace hsd::core
