#include "core/fill.h"

#include "core/delta.h"
#include "core/snapshot.h"
#include "geometry/rtree.h"
#include "layout/density.h"
#include "layout/tile_grid.h"

namespace dfm {

FillResult insert_fill(const Region& layer, const Rect& extent,
                       const FillOptions& p) {
  FillResult res;
  if (extent.is_empty() || p.square <= 0 || p.tile <= 0) return res;

  const DensityMap before = density_map(layer, extent, p.tile);

  // Obstacles: real geometry bloated by the moat; queried via an index.
  const Region moat = layer.bloated(p.spacing);
  const std::vector<Rect>& obstacles = moat.rects();
  const RTree tree(obstacles);

  const double fill_area = static_cast<double>(p.square) *
                           static_cast<double>(p.square);
  const Coord step = p.square + p.spacing;

  const TileGrid grid(extent, p.tile);
  for (std::size_t t = 0; t < grid.size(); ++t) {
    const double d = before.values[t];
    if (d >= p.target_min) continue;
    ++res.tiles_below;
    const Rect tile = grid.core(t);
    const double tile_area = static_cast<double>(tile.area());
    double have = d * tile_area;
    const double want = p.target_min * tile_area;

    for (Coord y = tile.lo.y; y + p.square <= tile.hi.y && have < want;
         y += step) {
      for (Coord x = tile.lo.x; x + p.square <= tile.hi.x && have < want;
           x += step) {
        const Rect candidate{x, y, x + p.square, y + p.square};
        bool blocked = false;
        tree.visit(candidate, [&](std::uint32_t i) {
          if (obstacles[i].overlaps(candidate)) blocked = true;
        });
        if (blocked) continue;
        // Moat against already-placed fill.
        if (region_distance(res.fill, Region{candidate},
                            p.spacing) < p.spacing &&
            !res.fill.empty()) {
          continue;
        }
        res.fill.add(candidate);
        ++res.squares;
        have += fill_area;
      }
    }
    if (have >= want) ++res.tiles_fixed;
  }
  return res;
}

FillResult insert_fill(const LayoutSnapshot& snap, LayerKey layer,
                       const Rect& extent, const FillOptions& options) {
  return insert_fill(snap.layer(layer), extent, options);
}

LayoutDelta to_delta(const FillResult& result, LayerKey layer) {
  LayoutDelta delta;
  delta.add(layer, result.fill);
  return delta;
}

}  // namespace dfm
