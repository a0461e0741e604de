// Region: a set of points of the plane represented as a canonical list of
// non-overlapping rectangles. Semantics are half-open boxes
// [lo.x, hi.x) x [lo.y, hi.y): two shapes that share an edge merge into
// one connected figure, matching layout "merge" behaviour.
//
// Boolean operations (union / intersection / difference / xor) run a
// single scanline over the vertical edges of both operands; the output is
// a unique canonical decomposition, so two Regions covering the same point
// set compare equal after normalize().
#pragma once

#include "geometry/polygon.h"
#include "geometry/rect.h"

#include <cstdint>
#include <vector>

namespace dfm {

enum class BoolOp { kOr, kAnd, kSub, kXor };

/// Pixel rows [lo, hi) of one column of a pixel grid.
struct PixelRun {
  int lo = 0, hi = 0;
};

/// The runs of every column of a pixel grid, stored flat: column i's runs
/// are runs[start[i], start[i + 1]), sorted by lo. Default: no columns.
struct ColumnRuns {
  std::vector<std::uint32_t> start;  // columns() + 1 offsets, or none
  std::vector<PixelRun> runs;

  std::size_t columns() const { return start.empty() ? 0 : start.size() - 1; }
  const PixelRun* begin(std::size_t i) const {
    return runs.data() + start[i];
  }
  const PixelRun* end(std::size_t i) const {
    return runs.data() + start[i + 1];
  }
  /// Closes the next column: it holds the runs pushed since the last close.
  void end_column() {
    if (start.empty()) start.push_back(0);
    start.push_back(static_cast<std::uint32_t>(runs.size()));
  }
};

class Region {
 public:
  Region() = default;
  explicit Region(const Rect& r) { add(r); }
  explicit Region(const Polygon& p) { add(p); }
  explicit Region(std::vector<Rect> rects);

  /// Adds a shape; the region is lazily normalized on first query.
  void add(const Rect& r);
  void add(const Polygon& p);
  void add(const Region& other);

  bool empty() const;
  /// Number of rectangles in the canonical decomposition.
  std::size_t rect_count() const;
  Area area() const;
  Rect bbox() const;
  bool contains(Point p) const;

  /// Canonical non-overlapping rectangles (normalizes if needed).
  const std::vector<Rect>& rects() const;
  /// Raw shapes as added, pre-merge (polygons are pre-decomposed to rects).
  const std::vector<Rect>& raw() const { return raw_; }

  /// Merged boundary contours. Holes are returned as separate clockwise-
  /// free polygons cut open by a zero-width keyhole slit... no: holes are
  /// resolved by splitting the region into hole-free polygons at hole
  /// extents, which is what GDSII output needs.
  std::vector<Polygon> to_polygons() const;

  /// Connected components (edge-adjacency connects).
  std::vector<Region> components() const;

  Region translated(Point d) const;
  Region transformed(const Transform& t) const;

  /// Multiplies every coordinate by `f` (> 0). Morphology at doubled
  /// resolution gives exact odd-threshold DRC checks on integer grids.
  Region scaled(Coord f) const;

  /// Clips to a window.
  Region clipped(const Rect& window) const;

  // Morphology (implemented in morphology.cpp).
  Region bloated(Coord d) const;
  Region shrunk(Coord d) const;
  Region opened(Coord d) const;   // shrink then bloat: removes thin parts
  Region closed(Coord d) const;   // bloat then shrink: fills thin gaps

  friend Region boolean_op(const Region& a, const Region& b, BoolOp op);
  friend Region covered_at_least(const std::vector<Rect>& rects, int k);
  friend Region grid_region(const Rect& window, Coord px,
                            const ColumnRuns& columns);

  Region operator|(const Region& o) const { return boolean_op(*this, o, BoolOp::kOr); }
  Region operator&(const Region& o) const { return boolean_op(*this, o, BoolOp::kAnd); }
  Region operator-(const Region& o) const { return boolean_op(*this, o, BoolOp::kSub); }
  Region operator^(const Region& o) const { return boolean_op(*this, o, BoolOp::kXor); }

  bool operator==(const Region& o) const;

 private:
  void normalize() const;

  mutable std::vector<Rect> raw_;      // as-added shapes (rect-decomposed)
  mutable bool normalized_ = true;     // raw_ is canonical when true
};

/// Chebyshev distance between two regions, early-exiting at `cap`.
Coord region_distance(const Region& a, const Region& b, Coord cap);

/// Decomposes a rectilinear polygon into non-overlapping rectangles
/// (vertical-slab decomposition).
std::vector<Rect> decompose(const Polygon& p);

/// Core sweep: canonical rect decomposition of a predicate over coverage
/// counts of two rect sets. Exposed for the DRC engine.
std::vector<Rect> sweep_boolean(const std::vector<Rect>& a,
                                const std::vector<Rect>& b, BoolOp op);

/// Area covered by at least `k` of the input rects (counting multiplicity).
/// Feeding each connected component's canonical rects once makes k=2 the
/// "two distinct components come within range" detector used for
/// corner-to-corner spacing checks. The sweep emits canonical bands, so
/// the result comes back already normalized.
Region covered_at_least(const std::vector<Rect>& rects, int k);

/// Region covered by pixels of a grid anchored at `window.lo` with pitch
/// `px`: `columns` holds each column's runs (sorted by lo), and pixel
/// (i, j) covers [lo.x + i*px, lo.x + (i+1)*px) x [lo.y + j*px,
/// lo.y + (j+1)*px) clipped to `window`. Each column is one slab of the
/// canonical x-slab form, so the bands are built directly and the result
/// comes back already normalized.
Region grid_region(const Rect& window, Coord px, const ColumnRuns& columns);

}  // namespace dfm
