// Kernel equivalence tests: the row-streaming separable convolution and
// the raster-built print contours must reproduce the historical scalar
// kernels exactly — the convolution byte for byte (memcmp), the contours
// rect for rect — at every thread count. The historical kernels are kept
// below, verbatim but for their names and the telemetry span, as the
// reference.
#include "core/parallel.h"
#include "gen/generators.h"
#include "gen/rng.h"
#include "litho/kernel_detail.h"
#include "litho/litho.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <ostream>
#include <vector>

namespace dfm {
namespace {

// ---- Reference kernels -----------------------------------------------------

// Separable convolution with clamp-to-zero borders (dark field). Every
// output pixel depends only on the input raster, so both passes schedule
// rows independently onto the pool with bit-identical results.
Raster reference_convolve(const Raster& in, const std::vector<float>& taps,
                          ThreadPool* pool) {
  const int radius = static_cast<int>(taps.size() / 2);
  const auto rows = [&](int ny, const std::function<void(int)>& row_fn) {
    if (pool != nullptr && pool->concurrency() > 1 && ny > 1) {
      pool->parallel_for(static_cast<std::size_t>(ny), [&](std::size_t y) {
        row_fn(static_cast<int>(y));
      });
    } else {
      for (int y = 0; y < ny; ++y) row_fn(y);
    }
  };
  Raster tmp = in;
  // Horizontal pass.
  rows(in.ny, [&](int y) {
    for (int x = 0; x < in.nx; ++x) {
      float acc = 0;
      for (int k = -radius; k <= radius; ++k) {
        const int xx = x + k;
        if (xx < 0 || xx >= in.nx) continue;
        acc += in.at(xx, y) * taps[static_cast<std::size_t>(k + radius)];
      }
      tmp.at(x, y) = acc;
    }
  });
  // Vertical pass.
  Raster out = tmp;
  rows(in.ny, [&](int y) {
    for (int x = 0; x < in.nx; ++x) {
      float acc = 0;
      for (int k = -radius; k <= radius; ++k) {
        const int yy = y + k;
        if (yy < 0 || yy >= in.ny) continue;
        acc += tmp.at(x, yy) * taps[static_cast<std::size_t>(k + radius)];
      }
      out.at(x, y) = acc;
    }
  });
  return out;
}

// aerial_image over the reference convolution.
Raster reference_aerial_image(const Region& mask, const Rect& window,
                              const OpticalModel& model, Coord defocus) {
  const double s = model.sigma_at_nm(defocus);
  // The reach rounded up to whole pixels, so the crop stays on the
  // window's pixel grid.
  const Coord reach = static_cast<Coord>(std::ceil(3.0 * s)) + model.px;
  const Coord pad = (reach + model.px - 1) / model.px * model.px;
  const Rect padded = window.expanded(pad);
  Raster img = rasterize(mask, padded, model.px);
  const double sigma_px = s / static_cast<double>(model.px);
  const std::vector<float> taps = detail::gaussian_taps(sigma_px);
  img = reference_convolve(img, taps, nullptr);

  // Crop to the requested window.
  Raster out;
  out.window = window;
  out.px = model.px;
  const int off = static_cast<int>(pad / model.px);
  out.nx = static_cast<int>((window.width() + model.px - 1) / model.px);
  out.ny = static_cast<int>((window.height() + model.px - 1) / model.px);
  out.values.resize(static_cast<std::size_t>(out.nx) *
                    static_cast<std::size_t>(out.ny));
  for (int y = 0; y < out.ny; ++y) {
    for (int x = 0; x < out.nx; ++x) {
      out.at(x, y) = img.at(x + off, y + off);
    }
  }
  return out;
}

// Row-run print contours; the caller's first query normalizes them.
Region reference_printed_region(const Raster& aerial, const OpticalModel& model,
                                const ProcessCondition& cond) {
  Region out;
  const double th = model.threshold / cond.dose;
  // Row-run compression: adjacent printing pixels form one rect per run.
  for (int y = 0; y < aerial.ny; ++y) {
    int run_start = -1;
    for (int x = 0; x <= aerial.nx; ++x) {
      const bool on = x < aerial.nx && aerial.at(x, y) >= th;
      if (on && run_start < 0) {
        run_start = x;
      } else if (!on && run_start >= 0) {
        const Coord x0 = aerial.window.lo.x + run_start * aerial.px;
        const Coord x1 = aerial.window.lo.x + x * aerial.px;
        const Coord y0 = aerial.window.lo.y + y * aerial.px;
        out.add(Rect{x0, y0, std::min(x1, aerial.window.hi.x),
                     std::min(y0 + aerial.px, aerial.window.hi.y)});
        run_start = -1;
      }
    }
  }
  return out;
}

// ---- Helpers ---------------------------------------------------------------

// A raster of `nx` x `ny` pixels of pitch `px` whose window falls `trim`
// short of a whole pixel at the hi edges, so the last column and row are
// clipped.
Raster blank_raster(int nx, int ny, Coord px, Coord trim_x, Coord trim_y) {
  Raster r;
  r.px = px;
  r.nx = nx;
  r.ny = ny;
  r.window = Rect{13, -7, 13 + nx * px - trim_x, -7 + ny * px - trim_y};
  r.values.assign(static_cast<std::size_t>(nx) * static_cast<std::size_t>(ny),
                  0.0f);
  return r;
}

Raster noise_raster(Rng& rng, int nx, int ny) {
  Raster r = blank_raster(nx, ny, 5, 0, 0);
  for (float& v : r.values) v = static_cast<float>(rng.uniform01());
  return r;
}

bool same_bytes(const Raster& a, const Raster& b) {
  return a.nx == b.nx && a.ny == b.ny && a.window == b.window &&
         a.px == b.px && a.values.size() == b.values.size() &&
         std::memcmp(a.values.data(), b.values.data(),
                     a.values.size() * sizeof(float)) == 0;
}

OpticalModel model_at(Coord sigma) {
  OpticalModel m;
  m.sigma = sigma;
  m.px = 5;
  return m;
}

// ---- Convolution -----------------------------------------------------------

struct TapCase {
  Coord sigma;
  Coord defocus;
};

void PrintTo(const TapCase& c, std::ostream* os) {
  *os << "sigma " << c.sigma << " defocus " << c.defocus;
}

class LithoKernelConvolve : public ::testing::TestWithParam<TapCase> {};

TEST_P(LithoKernelConvolve, MatchesScalarReferenceBytes) {
  const OpticalModel m = model_at(GetParam().sigma);
  const std::vector<float> taps = detail::gaussian_taps(
      m.sigma_at_nm(GetParam().defocus) / static_cast<double>(m.px));
  const int radius = static_cast<int>(taps.size() / 2);
  const std::vector<int> sizes{1, 2, 7, 8, 9, radius, 2 * radius + 1, 1003};
  ThreadPool p1(1), p2(2), p8(8);
  Rng rng(static_cast<std::uint64_t>(GetParam().sigma * 100 +
                                     GetParam().defocus));
  for (const int nx : sizes) {
    for (const int ny : sizes) {
      const Raster in = noise_raster(rng, nx, ny);
      const Raster want = reference_convolve(in, taps, nullptr);
      for (ThreadPool* pool : {&p1, &p2, &p8}) {
        EXPECT_TRUE(same_bytes(detail::separable_convolve(in, taps, pool), want))
            << nx << "x" << ny << " px, " << taps.size() << " taps, "
            << pool->concurrency() << " threads";
      }
    }
  }
}

std::vector<TapCase> tap_cases() {
  std::vector<TapCase> out;
  for (const Coord sigma : {20, 25, 30, 40}) {
    for (const Coord defocus : {0, 20, 40}) out.push_back({sigma, defocus});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Taps, LithoKernelConvolve, ::testing::ValuesIn(tap_cases()),
    [](const ::testing::TestParamInfo<TapCase>& p) {
      return "sigma" + std::to_string(p.param.sigma) + "_defocus" +
             std::to_string(p.param.defocus);
    });

// ---- Print contours --------------------------------------------------------

// Every raster shape the contour builder must agree on: seeded noise (many
// fragments), an aerial image (smooth contours), all on, all off, a
// checkerboard (corner-touching pixels) and single pixels at the corners.
std::vector<Raster> contour_rasters(int nx, int ny, Coord trim_x,
                                    Coord trim_y) {
  std::vector<Raster> out;
  Rng rng(static_cast<std::uint64_t>(nx * 1009 + ny));
  Raster noise = blank_raster(nx, ny, 5, trim_x, trim_y);
  for (float& v : noise.values) v = static_cast<float>(rng.uniform01());
  out.push_back(noise);

  const OpticalModel m = model_at(25);
  Raster aerial = blank_raster(nx, ny, 5, trim_x, trim_y);
  Region mask;
  for (int i = 0; i < 12; ++i) {
    const Coord x = rng.uniform(aerial.window.lo.x - 40, aerial.window.hi.x);
    const Coord y = rng.uniform(aerial.window.lo.y - 40, aerial.window.hi.y);
    mask.add(Rect{x, y, x + rng.uniform(20, 160), y + rng.uniform(20, 160)});
  }
  const Raster img = aerial_image(mask, aerial.window, m, 20);
  aerial.values = img.values;
  out.push_back(aerial);

  Raster on = blank_raster(nx, ny, 5, trim_x, trim_y);
  std::fill(on.values.begin(), on.values.end(), 1.0f);
  out.push_back(on);
  out.push_back(blank_raster(nx, ny, 5, trim_x, trim_y));

  Raster checker = blank_raster(nx, ny, 5, trim_x, trim_y);
  for (int y = 0; y < ny; ++y) {
    for (int x = 0; x < nx; ++x) checker.at(x, y) = (x + y) % 2 ? 1.0f : 0.0f;
  }
  out.push_back(checker);

  for (const auto& [x, y] : {std::pair{0, 0}, std::pair{nx - 1, ny - 1},
                             std::pair{nx / 2, ny / 2}, std::pair{nx - 1, 0}}) {
    Raster dot = blank_raster(nx, ny, 5, trim_x, trim_y);
    dot.at(x, y) = 1.0f;
    out.push_back(dot);
  }
  return out;
}

TEST(LithoKernelPrint, MatchesRowRunReferenceRects) {
  const OpticalModel m = model_at(25);
  ThreadPool p1(1), p2(2), p8(8);
  const std::vector<std::pair<int, int>> sizes{
      {1, 1}, {1, 9}, {9, 1}, {37, 23}, {200, 150}, {301, 129}};
  for (const auto& [nx, ny] : sizes) {
    for (const auto& [trim_x, trim_y] :
         {std::pair<Coord, Coord>{0, 0}, {3, 2}, {1, 4}}) {
      const std::vector<Raster> rasters =
          contour_rasters(nx, ny, trim_x, trim_y);
      for (std::size_t ri = 0; ri < rasters.size(); ++ri) {
        for (const double dose : {0.95, 1.0, 1.05}) {
          const ProcessCondition cond{dose, 0};
          const Region want = reference_printed_region(rasters[ri], m, cond);
          for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &p1,
                                   &p2, &p8}) {
            const Region got = printed_region(rasters[ri], m, cond, pool);
            EXPECT_EQ(got.rects(), want.rects())
                << nx << "x" << ny << " px, trim " << trim_x << "/" << trim_y
                << ", raster " << ri << ", dose " << dose << ", "
                << (pool != nullptr ? pool->concurrency() : 0) << " threads";
          }
        }
      }
    }
  }
}

// ---- Whole tiles of a generated design -------------------------------------

TEST(LithoKernelTiles, DirectAerialMatchesReferenceOnEveryTile) {
  DesignParams params;
  params.seed = 42;
  params.rows = 4;
  params.cells_per_row = 10;
  params.routes = 30;
  params.via_fields = 1;
  const Library lib = generate_design(params);
  const Region m1 = lib.flatten(lib.top_cells().front(), layers::kMetal1);
  const OpticalModel m = model_at(25);
  const Coord margin = 6 * m.sigma;
  ThreadPool pool(4);
  int tiles = 0;
  for (const Rect& core : make_tiles(m1.bbox(), 2000)) {
    const Rect window = core.expanded(margin);
    const Region clip = m1.clipped(window);
    for (const Coord defocus : {0, 20}) {
      const Raster want = reference_aerial_image(clip, window, m, defocus);
      EXPECT_TRUE(same_bytes(aerial_image(clip, window, m, defocus, &pool),
                             want))
          << "tile " << tiles << ", defocus " << defocus;
      for (const double dose : {0.95, 1.05}) {
        const ProcessCondition cond{dose, defocus};
        EXPECT_EQ(printed_region(want, m, cond, &pool).rects(),
                  reference_printed_region(want, m, cond).rects())
            << "tile " << tiles << ", dose " << dose;
      }
    }
    ++tiles;
  }
  EXPECT_GT(tiles, 1);
}

}  // namespace
}  // namespace dfm
