// TileGrid: the one tile grid of the tool — the density map's cells,
// the litho simulation tiles (make_tiles) and the spatial splice grid of
// damage-local re-analysis.
//
// Square cores of edge `tile` anchored at the extent's lo corner, with
// nx = ceil(width / tile) columns and ny rows in row-major order, the
// last column and row clipped to the extent. Ownership is half-open: a
// point belongs to the core whose [lo, hi) box holds it, and the
// outermost cores extend to infinity on their open sides, so every
// point of the plane (geometry outside the extent included, e.g. a
// spacing bloat past the chip edge) has exactly one owner.
#pragma once

#include "geometry/region.h"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace dfm {

class TileGrid {
 public:
  /// Far enough that a scaled (2x) coordinate never overflows.
  static constexpr Coord kFar = Coord{1} << 50;

  TileGrid() = default;
  TileGrid(const Rect& extent, Coord tile) : extent_(extent), tile_(tile) {
    if (extent.is_empty() || tile <= 0) return;
    nx_ = static_cast<int>((extent.width() + tile - 1) / tile);
    ny_ = static_cast<int>((extent.height() + tile - 1) / tile);
  }

  std::size_t size() const {
    return static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  }
  const Rect& extent() const { return extent_; }
  Coord tile() const { return tile_; }
  int nx() const { return nx_; }
  int ny() const { return ny_; }

  /// The tile's core (row-major index), clipped to the extent.
  Rect core(std::size_t t) const {
    const Coord x = extent_.lo.x + tile_ * static_cast<Coord>(t % cols());
    const Coord y = extent_.lo.y + tile_ * static_cast<Coord>(t / cols());
    return Rect{x, y, std::min(x + tile_, extent_.hi.x),
                std::min(y + tile_, extent_.hi.y)};
  }
  /// Every core, in row-major order.
  std::vector<Rect> cores() const {
    std::vector<Rect> out;
    out.reserve(size());
    for (std::size_t t = 0; t < size(); ++t) out.push_back(core(t));
    return out;
  }
  /// The half-open box of points the tile owns: its core, with the
  /// outermost sides pushed out to kFar.
  Rect cell(std::size_t t) const {
    const auto ix = static_cast<int>(t % cols());
    const auto iy = static_cast<int>(t / cols());
    Rect c = core(t);
    if (ix == 0) c.lo.x = -kFar;
    if (iy == 0) c.lo.y = -kFar;
    if (ix == nx_ - 1) c.hi.x = kFar;
    if (iy == ny_ - 1) c.hi.y = kFar;
    return c;
  }
  /// The tile that owns `p` (half-open, clamped to the grid).
  std::size_t owner(Point p) const {
    return static_cast<std::size_t>(row(p.y)) * cols() +
           static_cast<std::size_t>(col(p.x));
  }
  /// Appends to `out` every tile whose cell shares a point (closed) with
  /// `r`, in row-major order.
  void touching(const Rect& r, std::vector<std::size_t>& out) const {
    if (size() == 0 || r.lo.x > r.hi.x || r.lo.y > r.hi.y) return;
    for (int iy = row(r.lo.y); iy <= row(r.hi.y); ++iy) {
      for (int ix = col(r.lo.x); ix <= col(r.hi.x); ++ix) {
        out.push_back(static_cast<std::size_t>(iy) * cols() +
                      static_cast<std::size_t>(ix));
      }
    }
  }

  friend bool operator==(const TileGrid&, const TileGrid&) = default;

 private:
  std::size_t cols() const { return static_cast<std::size_t>(nx_); }
  static int index(Coord v, Coord lo, Coord tile, int n) {
    const Coord d = v - lo;
    const Coord i = d >= 0 ? d / tile : -1;
    return static_cast<int>(std::clamp<Coord>(i, 0, n - 1));
  }
  int col(Coord x) const { return index(x, extent_.lo.x, tile_, nx_); }
  int row(Coord y) const { return index(y, extent_.lo.y, tile_, ny_); }

  Rect extent_;
  Coord tile_ = 0;
  int nx_ = 0, ny_ = 0;
};

/// The lexicographically smallest point (x, then y) of a non-empty
/// region: the lo corner of its lowest leftmost canonical rect. It lies
/// in the region and depends only on the point set, so it is the anchor
/// that assigns a component to exactly one tile however it was computed.
inline Point anchor_point(const Region& r) {
  Point best = r.rects().front().lo;
  for (const Rect& b : r.rects()) best = std::min(best, b.lo);
  return best;
}

}  // namespace dfm
