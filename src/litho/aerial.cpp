#include "litho/kernel_detail.h"
#include "litho/litho.h"

#include "core/parallel.h"
#include "core/telemetry.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>

namespace dfm {
namespace {

// dst[i] += src[i] * t for i in [0, n). The fixed-length inner block is
// what lets the compiler vectorize at -O2 without a scalar epilogue; each
// element still takes one rounded product and one rounded add.
void multiply_add(float* __restrict dst, const float* __restrict src, float t,
                  int n) {
  constexpr int kBlock = 16;
  int i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (int j = 0; j < kBlock; ++j) dst[i + j] += src[i + j] * t;
  }
  for (; i < n; ++i) dst[i] += src[i] * t;
}

// dst[i] += a[i] * ta, then b, c and d in turn: four taps per sweep over
// `dst`, each element still taking its four products and adds in order.
void multiply_add4(float* __restrict dst, const float* __restrict a,
                   const float* __restrict b, const float* __restrict c,
                   const float* __restrict d, const float* taps, int n) {
  constexpr int kBlock = 16;
  const float ta = taps[0], tb = taps[1], tc = taps[2], td = taps[3];
  int i = 0;
  for (; i + kBlock <= n; i += kBlock) {
    for (int j = 0; j < kBlock; ++j) {
      float v = dst[i + j];
      v += a[i + j] * ta;
      v += b[i + j] * tb;
      v += c[i + j] * tc;
      v += d[i + j] * td;
      dst[i + j] = v;
    }
  }
  for (; i < n; ++i) {
    float v = dst[i];
    v += a[i] * ta;
    v += b[i] * tb;
    v += c[i] * tc;
    v += d[i] * td;
    dst[i] = v;
  }
}

}  // namespace

namespace detail {

void for_row_bands(int ny, ThreadPool* pool,
                   const std::function<void(int, int)>& fn) {
  if (pool == nullptr || pool->concurrency() <= 1 || ny <= 1) {
    fn(0, ny);
    return;
  }
  const int bands =
      std::min<int>(static_cast<int>(pool->concurrency()) * 4, ny);
  const int rows_per = (ny + bands - 1) / bands;
  pool->parallel_for(static_cast<std::size_t>(bands), [&](std::size_t b) {
    const int lo = static_cast<int>(b) * rows_per;
    if (lo < ny) fn(lo, std::min(lo + rows_per, ny));
  });
}

// Taps outer, pixels inner: each output row starts at zero and takes
// row-long multiply-adds in ascending tap order — four taps per sweep
// over the pixels all four reach, one at a time near the borders. A
// pixel therefore sums exactly the products the per-pixel loop
// `for k: if (in range) acc += v[x + k] * tap[k]` sums, in the same
// order, skipping the same out-of-range taps, so the image is
// bit-identical to it; rows are independent, so it is bit-identical at
// any thread count too.
Raster separable_convolve(Raster img, const std::vector<float>& taps,
                          ThreadPool* pool) {
  TELEM_SPAN_ARG("litho/convolve", static_cast<std::uint64_t>(img.nx) *
                                       static_cast<std::uint64_t>(img.ny));
  const int nx = img.nx, ny = img.ny;
  const int radius = static_cast<int>(taps.size() / 2);
  const auto row = [nx](float* base, int y) {
    return base + static_cast<std::size_t>(y) * static_cast<std::size_t>(nx);
  };
  // Every row of both passes is written in full before it is read, so
  // neither buffer needs initializing; the vertical pass writes its
  // result back over the input.
  const std::unique_ptr<float[]> tmp(new float[img.values.size()]);
  float* const in = img.values.data();
  // Horizontal pass: output pixel x takes source pixel x + k.
  for_row_bands(ny, pool, [&](int lo, int hi) {
    for (int y = lo; y < hi; ++y) {
      const float* src = row(in, y);
      float* dst = row(tmp.get(), y);
      std::fill(dst, dst + nx, 0.0f);
      // Tap j alone over the pixels of [from, to) it reaches, which are
      // [max(0, -j), min(nx, nx - j)).
      const auto tap = [&](int j, int from, int to) {
        const int x0 = std::max({from, 0, -j});
        const int x1 = std::min({to, nx, nx - j});
        if (x0 < x1) {
          multiply_add(dst + x0, src + x0 + j,
                       taps[static_cast<std::size_t>(j + radius)], x1 - x0);
        }
      };
      int k = -radius;
      for (; k + 3 <= radius; k += 4) {
        // Pixels all four taps reach take them fused; the rest take each
        // reachable tap alone, still in tap order.
        const int c0 = std::max(0, -k);
        const int c1 = std::max(c0, std::min(nx, nx - k - 3));
        if (c0 < c1) {
          multiply_add4(dst + c0, src + c0 + k, src + c0 + k + 1,
                        src + c0 + k + 2, src + c0 + k + 3,
                        &taps[static_cast<std::size_t>(k + radius)], c1 - c0);
        }
        for (int j = k; j < k + 4; ++j) {
          tap(j, 0, c0);
          tap(j, c1, nx);
        }
      }
      for (; k <= radius; ++k) tap(k, 0, nx);
    }
  });
  // Vertical pass: output row y takes whole source row y + k.
  for_row_bands(ny, pool, [&](int lo, int hi) {
    for (int y = lo; y < hi; ++y) {
      float* dst = row(in, y);
      std::fill(dst, dst + nx, 0.0f);
      const int k1 = std::min(radius, ny - 1 - y);
      int k = std::max(-radius, -y);
      for (; k + 3 <= k1; k += 4) {
        multiply_add4(dst, row(tmp.get(), y + k), row(tmp.get(), y + k + 1),
                      row(tmp.get(), y + k + 2), row(tmp.get(), y + k + 3),
                      &taps[static_cast<std::size_t>(k + radius)], nx);
      }
      for (; k <= k1; ++k) {
        const float t = taps[static_cast<std::size_t>(k + radius)];
        multiply_add(dst, row(tmp.get(), y + k), t, nx);
      }
    }
  });
  return img;
}

}  // namespace detail

namespace {

// The padded raster a simulation window is rendered on: the window grown
// by the kernel reach, rounded up to whole pixels so that the padded grid
// and the window's own grid share pixel edges. The taps come from the
// unrounded effective sigma; at defocus 0 it equals `sigma` exactly, so
// the best-focus image is unchanged from the historical rounded form.
struct PaddedGrid {
  std::vector<float> taps;
  int radius = 0;  // tap radius in pixels
  int off = 0;     // window pixel (i, j) is padded pixel (i + off, j + off)
  Rect padded;
  int nx = 0, ny = 0;  // window grid
  int pnx = 0, pny = 0;  // padded grid
};

int pixels_over(Coord extent, Coord px) {
  return static_cast<int>((extent + px - 1) / px);
}

PaddedGrid padded_grid(const Rect& window, const OpticalModel& model,
                       Coord defocus) {
  const Coord px = model.px;
  const double s = model.sigma_at_nm(defocus);
  PaddedGrid g;
  g.taps = detail::gaussian_taps(s / static_cast<double>(px));
  g.radius = static_cast<int>(g.taps.size() / 2);
  const Coord reach = static_cast<Coord>(std::ceil(3.0 * s)) + px;
  g.off = static_cast<int>((reach + px - 1) / px);
  g.padded = window.expanded(g.off * px);
  g.nx = pixels_over(window.width(), px);
  g.ny = pixels_over(window.height(), px);
  g.pnx = g.nx + 2 * g.off;
  g.pny = g.ny + 2 * g.off;
  return g;
}

// Pixels [x0, x1) x [y0, y1) of a raster grid.
struct PixelBox {
  int x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  bool empty() const { return x0 >= x1 || y0 >= y1; }
  std::uint64_t pixels() const {
    return empty() ? 0
                   : static_cast<std::uint64_t>(x1 - x0) *
                         static_cast<std::uint64_t>(y1 - y0);
  }
};

// The rect a box of grid pixels covers, clipped to the grid's window.
Rect box_rect(const Rect& window, Coord px, const PixelBox& b) {
  return Rect{window.lo.x + b.x0 * px, window.lo.y + b.y0 * px,
              std::min(window.lo.x + b.x1 * px, window.hi.x),
              std::min(window.lo.y + b.y1 * px, window.hi.y)};
}

// The aerial image over the window pixels of `box` — each pixel
// bit-identical to the same pixel of the whole-window image. Only the
// padded pixels the box's taps read (the box grown by the tap radius) are
// rendered: the raster is exact per pixel (rasterize), and a box pixel
// sums the same products in the same order, skipping the same
// out-of-range taps, as in the whole padded raster.
Raster aerial_box(const Region& mask, const Rect& window,
                  const OpticalModel& model, const PaddedGrid& g,
                  ThreadPool* pool, const PixelBox& box) {
  const Coord px = model.px;
  const PixelBox src{std::max(0, box.x0 + g.off - g.radius),
                     std::max(0, box.y0 + g.off - g.radius),
                     std::min(g.pnx, box.x1 + g.off + g.radius),
                     std::min(g.pny, box.y1 + g.off + g.radius)};
  Raster img;
  {
    TELEM_SPAN("litho/raster");
    img = rasterize(mask, box_rect(g.padded, px, src), px, pool);
  }
  img = detail::separable_convolve(std::move(img), g.taps, pool);

  // Crop to the box in place, one row copy at a time: row y moves from
  // (y + cy) * img.nx + cx down to y * out.nx, which never overwrites a row
  // still to be read.
  Raster out;
  out.window = box_rect(window, px, box);
  out.px = px;
  out.nx = box.x1 - box.x0;
  out.ny = box.y1 - box.y0;
  const int cx = box.x0 + g.off - src.x0;
  const int cy = box.y0 + g.off - src.y0;
  for (int y = 0; y < out.ny; ++y) {
    const auto from = img.values.begin() +
                      static_cast<std::ptrdiff_t>(y + cy) * img.nx + cx;
    std::copy(from, from + out.nx,
              img.values.begin() + static_cast<std::ptrdiff_t>(y) * out.nx);
  }
  img.values.resize(static_cast<std::size_t>(out.nx) *
                    static_cast<std::size_t>(out.ny));
  out.values = std::move(img.values);
  return out;
}

// Thresholds into per-column y-runs. A strip of columns reads the image
// row by row, and each column's runs are written only by its strip.
ColumnRuns threshold_runs(const Raster& aerial, double th, ThreadPool* pool) {
  TELEM_SPAN_ARG("litho/print", static_cast<std::uint64_t>(aerial.nx) *
                                    static_cast<std::uint64_t>(aerial.ny));
  const int nx = aerial.nx, ny = aerial.ny;
  std::vector<std::vector<PixelRun>> columns(static_cast<std::size_t>(nx));
  constexpr int kMinStrip = 64;
  const int tasks =
      pool != nullptr ? static_cast<int>(pool->concurrency()) * 4 : 1;
  const int width = std::max(kMinStrip, (nx + tasks - 1) / tasks);
  const auto scan = [&](std::size_t s) {
    const int x0 = static_cast<int>(s) * width;
    const int x1 = std::min(x0 + width, nx);
    std::vector<int> start(static_cast<std::size_t>(x1 - x0), -1);
    for (int y = 0; y < ny; ++y) {
      for (int x = x0; x < x1; ++x) {
        int& s0 = start[static_cast<std::size_t>(x - x0)];
        const bool on = aerial.at(x, y) >= th;
        if (on == (s0 >= 0)) continue;  // inside or outside a run still
        if (on) {
          s0 = y;
        } else {
          columns[static_cast<std::size_t>(x)].push_back({s0, y});
          s0 = -1;
        }
      }
    }
    for (int x = x0; x < x1; ++x) {
      const int s0 = start[static_cast<std::size_t>(x - x0)];
      if (s0 >= 0) columns[static_cast<std::size_t>(x)].push_back({s0, ny});
    }
  };
  const int strips = nx > 0 ? (nx + width - 1) / width : 0;
  if (pool != nullptr && strips > 1) {
    pool->parallel_for(static_cast<std::size_t>(strips), scan);
  } else {
    for (int s = 0; s < strips; ++s) scan(static_cast<std::size_t>(s));
  }
  ColumnRuns out;
  for (const std::vector<PixelRun>& column : columns) {
    out.runs.insert(out.runs.end(), column.begin(), column.end());
    out.end_column();
  }
  return out;
}

// `base` with rows [box.y0, box.y1) of columns [box.x0, box.x1) replaced
// by `sub` (box's columns, rows counted from box.y0). A run of `base`
// that crosses a box row edge is cut there, and runs meeting at the edge
// are merged again, so each column stays a list of maximal runs: the
// runs a threshold of the spliced image would produce.
ColumnRuns splice_runs(const ColumnRuns& base, const ColumnRuns& sub,
                       const PixelBox& box) {
  ColumnRuns out;
  out.runs.reserve(base.runs.size() + sub.runs.size());
  const auto push = [&](std::size_t column_start, PixelRun r) {
    if (out.runs.size() > column_start && out.runs.back().hi == r.lo) {
      out.runs.back().hi = r.hi;
    } else {
      out.runs.push_back(r);
    }
  };
  for (std::size_t x = 0; x < base.columns(); ++x) {
    const int ix = static_cast<int>(x);
    const std::size_t first = out.runs.size();
    if (ix < box.x0 || ix >= box.x1) {
      out.runs.insert(out.runs.end(), base.begin(x), base.end(x));
      out.end_column();
      continue;
    }
    for (const PixelRun* r = base.begin(x); r != base.end(x); ++r) {
      if (r->lo < box.y0) push(first, {r->lo, std::min(r->hi, box.y0)});
    }
    const std::size_t sx = static_cast<std::size_t>(ix - box.x0);
    for (const PixelRun* r = sub.begin(sx); r != sub.end(sx); ++r) {
      push(first, {r->lo + box.y0, r->hi + box.y0});
    }
    for (const PixelRun* r = base.begin(x); r != base.end(x); ++r) {
      if (r->hi > box.y1) push(first, {std::max(r->lo, box.y1), r->hi});
    }
    out.end_column();
  }
  return out;
}

}  // namespace

Raster aerial_image(const Region& mask, const Rect& window,
                    const OpticalModel& model, Coord defocus,
                    ThreadPool* pool) {
  const PaddedGrid g = padded_grid(window, model, defocus);
  return aerial_box(mask, window, model, g, pool, PixelBox{0, 0, g.nx, g.ny});
}

Region printed_region(const Raster& aerial, const OpticalModel& model,
                      const ProcessCondition& cond, ThreadPool* pool) {
  return grid_region(aerial.window, aerial.px,
                     threshold_runs(aerial, model.threshold / cond.dose, pool));
}

WindowPrint print_window(const Region& mask, const Rect& window,
                         const OpticalModel& model,
                         const ProcessCondition& cond, ThreadPool* pool,
                         const ColumnRuns* prev, const Rect& changed) {
  const PaddedGrid g = padded_grid(window, model, cond.defocus);
  const Coord px = model.px;
  WindowPrint out;
  PixelBox box{0, 0, g.nx, g.ny};
  const bool splice =
      prev != nullptr && prev->columns() == static_cast<std::size_t>(g.nx);
  if (splice) {
    // The pixels the change can reach: the padded pixels it touches (the
    // mask counts out to the padded window), grown by the tap radius and
    // clamped to the window's grid.
    const Rect c = changed.intersect(g.padded);
    const auto lo = [&](Coord v, Coord origin) {
      return static_cast<int>((v - origin) / px) - g.off - g.radius;
    };
    const auto hi = [&](Coord v, Coord origin) {
      return pixels_over(v - origin, px) - g.off + g.radius;
    };
    box = c.is_empty() ? PixelBox{}
                       : PixelBox{std::max(0, lo(c.lo.x, g.padded.lo.x)),
                                  std::max(0, lo(c.lo.y, g.padded.lo.y)),
                                  std::min(g.nx, hi(c.hi.x, g.padded.lo.x)),
                                  std::min(g.ny, hi(c.hi.y, g.padded.lo.y))};
  }
  TELEM_SPAN_ARG("litho/window", box.pixels());
  if (box.x1 > box.x0 && box.y1 > box.y0) {
    out.rendered =
        Rect{window.lo.x + box.x0 * px, window.lo.y + box.y0 * px,
             window.lo.x + box.x1 * px, window.lo.y + box.y1 * px}
            .intersect(window);
  }
  // Render the box in row strips, each spliced onto the print so far: a
  // render then holds one strip's raster (grown by the tap radius) at a
  // time instead of the whole tile's.
  constexpr int kStripPixels = 1 << 22;
  const int rows =
      std::max(1, kStripPixels / (box.x1 - box.x0 + 2 * g.radius));
  if (!splice) {
    for (int x = 0; x < g.nx; ++x) out.runs.end_column();
  }
  const ColumnRuns* base = splice ? prev : &out.runs;
  for (int y = box.y0; y < box.y1; y += rows) {
    const PixelBox strip{box.x0, y, box.x1, std::min(y + rows, box.y1)};
    out.runs = splice_runs(
        *base,
        threshold_runs(aerial_box(mask, window, model, g, pool, strip),
                       model.threshold / cond.dose, pool),
        strip);
    base = &out.runs;
  }
  if (base != &out.runs) out.runs = *base;
  return out;
}

Region simulate_print(const Region& mask, const Rect& window,
                      const OpticalModel& model, const ProcessCondition& cond,
                      ThreadPool* pool) {
  return grid_region(window, model.px,
                     print_window(mask, window, model, cond, pool).runs);
}

}  // namespace dfm
