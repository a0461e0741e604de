#include "layout/density.h"

#include "layout/tile_grid.h"

#include <algorithm>

namespace dfm {

double DensityMap::min() const {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double DensityMap::max() const {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double DensityMap::mean() const {
  if (values.empty()) return 0.0;
  double s = 0;
  for (double v : values) s += v;
  return s / static_cast<double>(values.size());
}

DensityMap density_map(const Region& r, const Rect& window, Coord tile) {
  DensityMap m;
  m.window = window;
  m.tile = tile;
  const TileGrid grid(window, tile);
  m.nx = grid.nx();
  m.ny = grid.ny();
  m.values.assign(grid.size(), 0.0);

  // Accumulate each canonical rect's overlap into the tiles it spans.
  std::vector<std::size_t> tiles;
  for (const Rect& box : r.rects()) {
    const Rect c = box.intersect(window);
    if (c.is_empty()) continue;
    tiles.clear();
    grid.touching(Rect{c.lo.x, c.lo.y, c.hi.x - 1, c.hi.y - 1}, tiles);
    for (const std::size_t t : tiles) {
      const Rect core = grid.core(t);
      const Rect ov = c.intersect(core);
      if (ov.is_empty() || core.is_empty()) continue;
      m.values[t] +=
          static_cast<double>(ov.area()) / static_cast<double>(core.area());
    }
  }
  return m;
}

}  // namespace dfm
