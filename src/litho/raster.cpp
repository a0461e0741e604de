#include "litho/kernel_detail.h"
#include "litho/litho.h"

#include "core/parallel.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace dfm {

double Raster::sample(Point p) const {
  if (nx == 0 || ny == 0) return 0.0;
  // Pixel centers sit at window.lo + (i + 0.5) * px.
  const double fx =
      (static_cast<double>(p.x - window.lo.x) / static_cast<double>(px)) - 0.5;
  const double fy =
      (static_cast<double>(p.y - window.lo.y) / static_cast<double>(px)) - 0.5;
  const double cx = std::clamp(fx, 0.0, static_cast<double>(nx - 1));
  const double cy = std::clamp(fy, 0.0, static_cast<double>(ny - 1));
  const int ix = static_cast<int>(cx);
  const int iy = static_cast<int>(cy);
  const int ix1 = std::min(ix + 1, nx - 1);
  const int iy1 = std::min(iy + 1, ny - 1);
  const double tx = cx - ix;
  const double ty = cy - iy;
  return (1 - tx) * (1 - ty) * at(ix, iy) + tx * (1 - ty) * at(ix1, iy) +
         (1 - tx) * ty * at(ix, iy1) + tx * ty * at(ix1, iy1);
}

Raster rasterize(const Region& r, const Rect& window, Coord px,
                 ThreadPool* pool) {
  if (px <= 0) throw std::invalid_argument("pixel size must be positive");
  Raster img;
  img.window = window;
  img.px = px;
  if (window.is_empty()) return img;
  img.nx = static_cast<int>((window.width() + px - 1) / px);
  img.ny = static_cast<int>((window.height() + px - 1) / px);
  const std::size_t total =
      static_cast<std::size_t>(img.nx) * static_cast<std::size_t>(img.ny);
  if (total > 64u * 1024 * 1024) {
    throw std::invalid_argument("raster too large; clip the window");
  }
  img.values.assign(total, 0.0f);

  // Exact area-weighted coverage: for each canonical rect, distribute its
  // overlap over the pixel grid with fractional rows/columns at edges.
  // Parallel fill splits the image into row bands; a band accumulates its
  // rows from every rect in canonical order, so each pixel sees the same
  // additions in the same order as the serial loop (bit-identical), and
  // no two bands touch the same row.
  const std::vector<Rect>& rects = r.rects();
  const double pxd = static_cast<double>(px);
  const auto fill_rows = [&](int row_lo, int row_hi) {
    for (const Rect& box : rects) {
      const Rect c = box.intersect(window);
      if (c.is_empty()) continue;
      const int ix0 = static_cast<int>((c.lo.x - window.lo.x) / px);
      const int ix1 = static_cast<int>((c.hi.x - 1 - window.lo.x) / px);
      const int iy0 = std::max(static_cast<int>((c.lo.y - window.lo.y) / px),
                               row_lo);
      const int iy1 = std::min(
          static_cast<int>((c.hi.y - 1 - window.lo.y) / px), row_hi - 1);
      for (int iy = iy0; iy <= iy1; ++iy) {
        const double py0 = static_cast<double>(window.lo.y) + iy * pxd;
        const double oy = std::min<double>(static_cast<double>(c.hi.y), py0 + pxd) -
                          std::max<double>(static_cast<double>(c.lo.y), py0);
        for (int ix = ix0; ix <= ix1; ++ix) {
          const double px0 = static_cast<double>(window.lo.x) + ix * pxd;
          const double ox = std::min<double>(static_cast<double>(c.hi.x), px0 + pxd) -
                            std::max<double>(static_cast<double>(c.lo.x), px0);
          img.at(ix, iy) += static_cast<float>((ox * oy) / (pxd * pxd));
        }
      }
    }
  };
  detail::for_row_bands(img.ny, pool, fill_rows);
  // Canonical rects never overlap, but numerical accumulation can nudge a
  // pixel past 1.
  for (float& v : img.values) v = std::min(v, 1.0f);
  return img;
}

}  // namespace dfm
