// Topological layout patterns, after Dai & Capodieci ("Systematic
// physical verification with topological patterns" / "Layout pattern
// catalogs"): a pattern is the content of a layout window expressed as
//
//   * an alignment bitmap — the window is cut at every polygon edge
//     coordinate into a grid of cells, each uniformly covered or empty,
//     recorded per layer; and
//   * a dimensional constraint vector — the spacings between adjacent
//     cut lines.
//
// Two windows have the same *topology* when their bitmaps match, and are
// the same *pattern* when the dimension vectors match too. The canonical
// form quotients out the eight orientations of D4 and translation, so
// pattern identity is position- and orientation-independent.
#pragma once

#include "geometry/region.h"
#include "layout/layer.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dfm {

/// Canonical serialized pattern form. Comparison is lexicographic with
/// the bitmap before the dimensions, so topology-equality is a prefix
/// property (needed for dimension-tolerance matching).
struct PatternEncoding {
  std::uint32_t nx = 0;  // columns of cells
  std::uint32_t ny = 0;  // rows of cells
  std::vector<LayerKey> pattern_layers;      // participating layers, in order
  std::vector<std::uint8_t> bitmap;  // layers * ny * nx cells, row-major
  std::vector<Coord> dims_x;         // nx cell widths
  std::vector<Coord> dims_y;         // ny cell heights

  friend auto operator<=>(const PatternEncoding&, const PatternEncoding&) = default;
};

/// One layer's clipped geometry inside a capture window.
struct LayerClip {
  LayerKey layer;
  Region region;  // already clipped to the window
};

class TopologicalPattern {
 public:
  TopologicalPattern() = default;

  /// Captures the pattern of `clips` inside `window`. Cut lines come from
  /// every shape edge of every layer plus the window frame, so layer-to-
  /// layer alignment is part of the topology.
  static TopologicalPattern capture(const std::vector<LayerClip>& clips,
                                    const Rect& window);

  const PatternEncoding& canonical() const { return canon_; }
  std::uint64_t hash() const { return hash_; }

  bool empty() const;  // no filled cell on any layer
  std::uint32_t cell_count() const { return canon_.nx * canon_.ny; }

  /// Fraction of the window covered on layer index `li`.
  double coverage(std::size_t li) const;

  /// Single-step generalizations for the pattern association tree: the
  /// patterns obtained by deleting one interior cut line (merging the two
  /// adjacent rows/columns with an OR). A parent is "the same layout seen
  /// with one less distinction".
  std::vector<TopologicalPattern> generalizations() const;

  friend bool operator==(const TopologicalPattern& a,
                         const TopologicalPattern& b) {
    return a.canon_ == b.canon_;
  }

  /// Multi-line ASCII art of the canonical bitmap (debugging aid).
  std::string to_ascii() const;

 private:
  static TopologicalPattern from_encoding(PatternEncoding e);
  void finalize(PatternEncoding raw);

  PatternEncoding canon_;
  std::uint64_t hash_ = 0;
};

/// FNV-1a over the serialized encoding (exposed for the catalog).
std::uint64_t hash_encoding(const PatternEncoding& e);

/// Hash of the topology only (bitmap + grid shape, dimensions ignored);
/// the secondary index for dimension-tolerance matching.
std::uint64_t topology_hash(const PatternEncoding& e);

/// All 8 D4 orientations of an encoding (R0 first).
std::vector<PatternEncoding> all_orientations(const PatternEncoding& e);

}  // namespace dfm

template <>
struct std::hash<dfm::TopologicalPattern> {
  size_t operator()(const dfm::TopologicalPattern& p) const noexcept {
    return static_cast<size_t>(p.hash());
  }
};
