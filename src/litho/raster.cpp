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
  // Coverage is summed in integer nm^2, which a float holds exactly up to
  // 2^24 — one whole pixel of 4096 x 4096 nm.
  if (px > 4096) throw std::invalid_argument("pixel size above 4096 nm");
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

  // Exact area-weighted coverage: each pixel adds, per canonical rect, its
  // overlap in integer nm^2. Every partial sum is an integer of at most
  // px^2 (canonical rects never overlap), so the float sum is exact and
  // independent of the order and of how the point set is cut into rects:
  // a pixel's value is a pure function of the geometry inside it. Each
  // row band divides its own rows by px^2 once, so the parallel fill is
  // bit-identical to the serial one.
  std::vector<Rect> clipped;
  for (const Rect& box : r.rects()) {
    const Rect c = box.intersect(window);
    if (!c.is_empty()) clipped.push_back(c);
  }
  const float pixel_area = static_cast<float>(px * px);
  const auto fill_rows = [&](int row_lo, int row_hi) {
    for (const Rect& c : clipped) {
      const int ix0 = static_cast<int>((c.lo.x - window.lo.x) / px);
      const int ix1 = static_cast<int>((c.hi.x - 1 - window.lo.x) / px);
      const int iy0 = std::max(static_cast<int>((c.lo.y - window.lo.y) / px),
                               row_lo);
      const int iy1 = std::min(
          static_cast<int>((c.hi.y - 1 - window.lo.y) / px), row_hi - 1);
      for (int iy = iy0; iy <= iy1; ++iy) {
        const Coord py0 = window.lo.y + iy * px;
        const Coord oy = std::min(c.hi.y, py0 + px) - std::max(c.lo.y, py0);
        for (int ix = ix0; ix <= ix1; ++ix) {
          const Coord px0 = window.lo.x + ix * px;
          const Coord ox = std::min(c.hi.x, px0 + px) - std::max(c.lo.x, px0);
          img.at(ix, iy) += static_cast<float>(ox * oy);
        }
      }
    }
    const auto row = [&](int y) {
      return img.values.begin() + static_cast<std::ptrdiff_t>(y) * img.nx;
    };
    for (auto v = row(row_lo); v != row(row_hi); ++v) *v /= pixel_area;
  };
  detail::for_row_bands(img.ny, pool, fill_rows);
  return img;
}

}  // namespace dfm
