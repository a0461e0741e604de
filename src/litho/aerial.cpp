#include "litho/fft.h"
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
    fn(lo, std::min(lo + rows_per, ny));
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

Raster aerial_image_ex(const Region& mask, const Rect& window,
                       const OpticalModel& model, Coord defocus,
                       ThreadPool* pool, LithoFastMode mode,
                       KernelSpectrumCache* kernels) {
  // Pad the window by the kernel reach so features just outside still
  // contribute, then crop back. The taps come from the unrounded
  // effective sigma; at defocus 0 it equals `sigma` exactly, so the
  // best-focus image is unchanged from the historical rounded form.
  const double s = model.sigma_at_nm(defocus);
  const Coord pad = static_cast<Coord>(std::ceil(3.0 * s)) + model.px;
  const Rect padded = window.expanded(pad);
  Raster img;
  {
    TELEM_SPAN("litho/raster");
    img = rasterize(mask, padded, model.px, pool);
  }
  const double sigma_px = s / static_cast<double>(model.px);
  const std::vector<float> taps = detail::gaussian_taps(sigma_px);
  const bool use_fft =
      mode == LithoFastMode::kFft ||
      (mode == LithoFastMode::kAuto &&
       fftconv::fft_beats_direct(taps.size(), img.nx, img.ny));
  img = use_fft ? fftconv::fft_convolve_separable(img, taps, kernels, pool)
                : detail::separable_convolve(std::move(img), taps, pool);

  // Crop to the requested window in place, one row copy at a time: row y
  // moves from (y + off) * img.nx + off down to y * out.nx, which never
  // overwrites a row still to be read.
  Raster out;
  out.window = window;
  out.px = model.px;
  const int off = static_cast<int>(pad / model.px);
  out.nx = static_cast<int>((window.width() + model.px - 1) / model.px);
  out.ny = static_cast<int>((window.height() + model.px - 1) / model.px);
  for (int y = 0; y < out.ny; ++y) {
    const auto src = img.values.begin() +
                     static_cast<std::ptrdiff_t>(y + off) * img.nx + off;
    std::copy(src, src + out.nx,
              img.values.begin() + static_cast<std::ptrdiff_t>(y) * out.nx);
  }
  img.values.resize(static_cast<std::size_t>(out.nx) *
                    static_cast<std::size_t>(out.ny));
  out.values = std::move(img.values);
  return out;
}

Raster aerial_image(const Region& mask, const Rect& window,
                    const OpticalModel& model, Coord defocus,
                    ThreadPool* pool) {
  return aerial_image_ex(mask, window, model, defocus, pool,
                         LithoFastMode::kOff);
}

Region printed_region(const Raster& aerial, const OpticalModel& model,
                      const ProcessCondition& cond, ThreadPool* pool) {
  TELEM_SPAN_ARG("litho/print", static_cast<std::uint64_t>(aerial.nx) *
                                    static_cast<std::uint64_t>(aerial.ny));
  const double th = model.threshold / cond.dose;
  const int nx = aerial.nx, ny = aerial.ny;
  // Threshold into per-column y-runs. A strip of columns reads the image
  // row by row, and each column's runs are written only by its strip.
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
  return grid_region(aerial.window, aerial.px, columns);
}

Region simulate_print(const Region& mask, const Rect& window,
                      const OpticalModel& model, const ProcessCondition& cond,
                      ThreadPool* pool) {
  return printed_region(aerial_image(mask, window, model, cond.defocus, pool),
                        model, cond, pool);
}

Region simulate_print_ex(const Region& mask, const Rect& window,
                         const OpticalModel& model,
                         const ProcessCondition& cond, ThreadPool* pool,
                         LithoFastMode mode, KernelSpectrumCache* kernels) {
  return printed_region(
      aerial_image_ex(mask, window, model, cond.defocus, pool, mode, kernels),
      model, cond, pool);
}

}  // namespace dfm
