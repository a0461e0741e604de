// Windowed litho re-simulation: an edited tile re-renders only the pixels
// the edit can reach and splices them into the tile's cached print. The
// splice must be exact, so every check here is equality: a spliced
// print's runs memcmp-equal a cold render's, and the hotspot lists are
// equal, after every edit of seeded add/remove streams. The fallbacks
// (FFT tiles and other tiles without a print, tiles entering or leaving
// the prefilter skip) must stay exact too. Underneath, the raster is a
// pure function of the point set inside each pixel, and the simulation
// grid stays on the window's pixel lattice at every defocus.
#include "core/hotspot_flow.h"
#include "core/parallel.h"
#include "core/snapshot.h"
#include "gen/generators.h"
#include "gen/rng.h"
#include "layout/tile_grid.h"
#include "litho/litho.h"
#include "litho/prefilter.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

namespace dfm {
namespace {

// Byte equality of two vectors. memcmp only runs on non-empty ones: the
// data() of an empty vector may be null, which memcmp must not receive.
template <class T>
bool same_memory(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_runs(const ColumnRuns& a, const ColumnRuns& b) {
  return same_memory(a.start, b.start) && same_memory(a.runs, b.runs);
}

bool same_bytes(const Raster& a, const Raster& b) {
  return a.nx == b.nx && a.ny == b.ny && a.window == b.window &&
         a.px == b.px && same_memory(a.values, b.values);
}

OpticalModel model_of(Coord sigma, Coord px) {
  OpticalModel m;
  m.sigma = sigma;
  m.px = px;
  return m;
}

Region small_m1(std::uint64_t seed) {
  DesignParams p;
  p.seed = seed;
  p.rows = 2;
  p.cells_per_row = 4;
  p.routes = 8;
  p.via_fields = 1;
  p.vias_per_field = 16;
  const Library lib = generate_design(p);
  return lib.flatten(lib.top_cells().front(), layers::kMetal1);
}

Region random_rects(Rng& rng, const Rect& box, int n, Coord min_side,
                    Coord max_side) {
  Region r;
  for (int i = 0; i < n; ++i) {
    const Coord w = rng.uniform(min_side, max_side);
    const Coord h = rng.uniform(min_side, max_side);
    const Coord x = rng.uniform(box.lo.x, box.hi.x - w);
    const Coord y = rng.uniform(box.lo.y, box.hi.y - h);
    r.add(Rect{x, y, x + w, y + h});
  }
  return r;
}

// ---- Raster ----------------------------------------------------------------

// The same point set inside the window, cut into rects differently —
// geometry outside the window adds slab cuts through it, and the rects
// arrive in shuffled order, split into pieces — rasterizes to the same
// bytes, and every pixel is its exact covered area over px^2.
TEST(LithoWindowRaster, PurePointSetFunction) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    Rng rng(seed);
    const Coord px = seed % 2 == 0 ? 10 : 7;
    const Rect window{3, -11, 3 + 37 * px - 4, -11 + 29 * px - 2};
    // Fine geometry: many pixels take three or more partial rects.
    const Region base = random_rects(rng, window.expanded(20), 120, 1, 23);

    Region cut;  // the same set inside `window`, cut and reordered
    std::vector<Rect> pieces;
    for (const Rect& r : base.rects()) {
      const Coord sx = rng.uniform(r.lo.x, r.hi.x);
      const Coord sy = rng.uniform(r.lo.y, r.hi.y);
      for (const Rect& q :
           {Rect{r.lo.x, r.lo.y, sx, sy}, Rect{sx, r.lo.y, r.hi.x, sy},
            Rect{r.lo.x, sy, sx, r.hi.y}, Rect{sx, sy, r.hi.x, r.hi.y}}) {
        if (!q.is_empty()) pieces.push_back(q);
      }
    }
    for (std::size_t i = pieces.size(); i > 1; --i) {
      std::swap(pieces[i - 1], pieces[static_cast<std::size_t>(
                                   rng.uniform(0, static_cast<Coord>(i - 1)))]);
    }
    for (const Rect& q : pieces) cut.add(q);
    // Strips above and below the window re-cut its x slabs.
    for (int i = 0; i < 12; ++i) {
      const Coord x = rng.uniform(window.lo.x, window.hi.x - 3);
      const Coord w = rng.uniform(1, 9);
      cut.add(Rect{x, window.hi.y + 30, x + w, window.hi.y + 60});
      cut.add(Rect{x + 1, window.lo.y - 60, x + w + 2, window.lo.y - 25});
    }
    ASSERT_NE(cut.rects(), base.rects());

    ThreadPool p3(3);
    const Raster want = rasterize(base, window, px);
    EXPECT_TRUE(same_bytes(rasterize(cut, window, px), want)) << seed;
    EXPECT_TRUE(same_bytes(rasterize(cut, window, px, &p3), want)) << seed;
    for (int iy = 0; iy < want.ny; ++iy) {
      for (int ix = 0; ix < want.nx; ++ix) {
        const Rect pixel = Rect{window.lo.x + ix * px, window.lo.y + iy * px,
                                window.lo.x + (ix + 1) * px,
                                window.lo.y + (iy + 1) * px}
                               .intersect(window);
        const float area = static_cast<float>(base.clipped(pixel).area());
        ASSERT_EQ(want.at(ix, iy), area / static_cast<float>(px * px))
            << "pixel " << ix << "," << iy << " seed " << seed;
      }
    }
  }
}

TEST(LithoWindowRaster, RejectsPixelsTooLargeForExactCoverage) {
  EXPECT_NO_THROW(rasterize(Region{}, Rect{0, 0, 4096, 4096}, 4096));
  EXPECT_THROW(rasterize(Region{}, Rect{0, 0, 4097, 4097}, 4097),
               std::invalid_argument);
}

// ---- Simulation grid -------------------------------------------------------

// The print sits on the window's own pixel lattice at every defocus, also
// where the kernel reach is not a whole number of pixels: mirroring the
// mask about the window's centre mirrors the print exactly. A grid shifted
// off the window's lattice would mirror onto a different lattice.
TEST(LithoWindowGrid, PrintStaysOnTheWindowLatticeAtDefocus) {
  const OpticalModel m;  // default optics
  const Coord defocus = 40;
  ASSERT_NE(static_cast<Coord>(std::ceil(3.0 * m.sigma_at_nm(defocus))) % m.px,
            0)
      << "the case needs a reach that is not a whole number of pixels";
  const Rect window{-400, 100, -400 + 120 * m.px, 100 + 80 * m.px};
  const Coord axis2 = window.lo.x + window.hi.x;  // twice the mirror axis
  const auto mirror = [&](const Region& r) {
    Region out;
    for (const Rect& q : r.rects()) {
      out.add(Rect{axis2 - q.hi.x, q.lo.y, axis2 - q.lo.x, q.hi.y});
    }
    return out;
  };
  Rng rng(5);
  const Region mask = random_rects(rng, window, 14, 30, 160);
  for (const Coord f : {Coord{0}, Coord{20}, defocus}) {
    const Region print = simulate_print(mask, window, m, {1.0, f});
    EXPECT_EQ(simulate_print(mirror(mask), window, m, {1.0, f}), mirror(print))
        << "defocus " << f;
    ASSERT_FALSE(print.empty());
  }
}

// ---- print_window ----------------------------------------------------------

struct PrintCase {
  Coord sigma;
  Coord px;
};

void PrintTo(const PrintCase& c, std::ostream* os) {
  *os << "sigma " << c.sigma << " px " << c.px;
}

class LithoWindowPrint : public ::testing::TestWithParam<PrintCase> {};

// Each edit's splice, chained onto the previous splice, equals a cold
// print of the edited mask: small patches anywhere, patches on the
// window border and outside it, full-height stripes and multi-rect edits.
TEST_P(LithoWindowPrint, SpliceEqualsFullRender) {
  const OpticalModel m = model_of(GetParam().sigma, GetParam().px);
  const Rect window{0, 0, 2003, 1501};
  ThreadPool pool(3);
  Rng rng(static_cast<std::uint64_t>(m.sigma * 31 + m.px));
  for (const Coord defocus : {Coord{0}, Coord{40}}) {
    const ProcessCondition cond{1.0, defocus};
    Region mask = random_rects(rng, window.expanded(60), 40, 20, 300);
    WindowPrint print = print_window(mask, window, m, cond, &pool,
                                     LithoFastMode::kDirect);
    ASSERT_TRUE(print.direct);
    for (int i = 0; i < 24; ++i) {
      Region delta;
      switch (i % 6) {
        case 0:  // a small patch
          delta = random_rects(rng, window, 1, 20, 200);
          break;
        case 1:  // on the window border, reaching past it
          delta.add(Rect{window.hi.x - 30, rng.uniform(0, 1200),
                         window.hi.x + 40, rng.uniform(1300, 1600)});
          break;
        case 2:  // outside the window: in its padded ring, then beyond it
          delta.add(Rect{window.hi.x + (i < 12 ? 10 : 400), 300,
                         window.hi.x + (i < 12 ? 90 : 480), 500});
          break;
        case 3: {  // a full-height stripe
          const Coord x = rng.uniform(0, 1900);
          delta.add(Rect{x, window.lo.y - 50, x + 40, window.hi.y + 50});
          break;
        }
        case 4:  // a multi-rect edit, far apart
          delta = random_rects(rng, window, 3, 20, 120);
          break;
        default:  // at the lower-left corner
          delta.add(Rect{window.lo.x - 20, window.lo.y - 20,
                         window.lo.x + 35, window.lo.y + 45});
          break;
      }
      mask = rng.chance(0.4) ? mask - delta : mask | delta;
      const WindowPrint full = print_window(mask, window, m, cond, &pool,
                                            LithoFastMode::kDirect);
      const WindowPrint spliced =
          print_window(mask, window, m, cond, &pool, LithoFastMode::kDirect,
                       nullptr, &print.runs, delta.bbox());
      ASSERT_TRUE(same_runs(spliced.runs, full.runs))
          << "edit " << i << " defocus " << defocus;
      EXPECT_EQ(grid_region(window, m.px, spliced.runs),
                simulate_print(mask, window, m, cond));
      print = spliced;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Optics, LithoWindowPrint,
    ::testing::Values(PrintCase{20, 10}, PrintCase{25, 5}, PrintCase{30, 5},
                      PrintCase{22, 7}),
    [](const ::testing::TestParamInfo<PrintCase>& p) {
      return "sigma" + std::to_string(p.param.sigma) + "_px" +
             std::to_string(p.param.px);
    });

// A window over one strip's pixel budget renders in row strips; the
// stacked strips equal the print of the whole-window raster.
TEST(LithoWindowPrintStrips, StackedStripsEqualWholeRaster) {
  const OpticalModel m = model_of(25, 5);
  const Rect window{0, 0, 2400 * 5 - 3, 1900 * 5 - 2};
  Rng rng(13);
  const Region mask = random_rects(rng, window, 600, 20, 400);
  ThreadPool pool(4);
  for (const Coord defocus : {Coord{0}, Coord{40}}) {
    const ProcessCondition cond{1.0, defocus};
    const WindowPrint print =
        print_window(mask, window, m, cond, &pool, LithoFastMode::kDirect);
    EXPECT_EQ(grid_region(window, m.px, print.runs),
              printed_region(aerial_image_ex(mask, window, m, defocus, &pool,
                                             LithoFastMode::kDirect),
                             m, cond, &pool))
        << "defocus " << defocus;
  }
}

// The FFT mixes every pixel into every other, so it never splices: a
// previous print is ignored and the result is the full FFT print.
TEST(LithoWindowPrintFallback, FftIgnoresThePreviousPrint) {
  const OpticalModel m = model_of(25, 5);
  const Rect window{0, 0, 1200, 900};
  Rng rng(11);
  const Region mask = random_rects(rng, window, 20, 30, 200);
  const WindowPrint direct =
      print_window(mask, window, m, {}, nullptr, LithoFastMode::kDirect);
  const Region patched = mask | Region(Rect{500, 400, 600, 500});
  const WindowPrint fft =
      print_window(patched, window, m, {}, nullptr, LithoFastMode::kFft,
                   nullptr, &direct.runs, Rect{500, 400, 600, 500});
  EXPECT_FALSE(fft.direct);
  EXPECT_TRUE(same_runs(
      fft.runs,
      print_window(patched, window, m, {}, nullptr, LithoFastMode::kFft).runs));
}

// ---- Tiled streams ---------------------------------------------------------

struct StreamCase {
  Coord sigma;
  Coord px;
  Coord tile;
};

void PrintTo(const StreamCase& c, std::ostream* os) {
  *os << "sigma " << c.sigma << " px " << c.px << " tile " << c.tile;
}

// A tiled run kept tile by tile, as the flow's litho pass keeps it.
using Tiles = std::vector<LithoTile>;

// Every tile of `grid` over `layer`, simulated cold.
Tiles cold_tiles(const NormalizedRegion& layer, const DensityMap* density,
                 const TileGrid& grid, const HotspotSimOptions& options) {
  const PrefilterCalibration cal = resolve_litho_calibration(options);
  const PassPool pool(options);
  Tiles out;
  for (std::size_t ti = 0; ti < grid.size(); ++ti) {
    out.push_back(simulate_litho_tile(layer, density, grid, ti, options, pool,
                                      cal.valid ? &cal : nullptr));
  }
  return out;
}

// Re-runs each tile whose window (core grown by the 6-sigma halo) the
// edit `d` overlaps with positive area, from its previous result, as the
// flow does. Returns how many of them had a print to splice into.
std::size_t resimulate(Tiles& tiles, const NormalizedRegion& layer,
                       const DensityMap* density, const TileGrid& grid,
                       const HotspotSimOptions& options, const Region& d) {
  const PrefilterCalibration cal = resolve_litho_calibration(options);
  const PassPool pool(options);
  const Coord margin = 6 * options.model.sigma;
  std::size_t spliced = 0;
  for (std::size_t ti = 0; ti < grid.size(); ++ti) {
    const Rect window = grid.core(ti).expanded(margin);
    Rect changed = Rect::empty();
    for (const Rect& r : d.rects()) {
      if (r.overlaps(window)) changed = changed.join(r.intersect(window));
    }
    if (changed.is_empty()) continue;
    if (tiles[ti].print.columns() > 0) ++spliced;
    LithoTile next =
        simulate_litho_tile(layer, density, grid, ti, options, pool,
                            cal.valid ? &cal : nullptr, &tiles[ti], changed);
    tiles[ti] = std::move(next);
  }
  return spliced;
}

std::vector<std::vector<Hotspot>> assembled(const Tiles& tiles,
                                            const TileGrid& grid,
                                            const HotspotSimOptions& options) {
  std::vector<const LithoTile*> all;
  for (const LithoTile& t : tiles) all.push_back(&t);
  return assemble_hotspots(grid, all, options.edge_tolerance);
}

// Checks `tiles` against a cold run over `layer`: every tile's print
// memcmp-equal and its risk and skip bit equal, and the assembled
// hotspots equal `cold_hotspots` (a simulate_hotspots_tiled run's). With
// `printless_ok`, a tile that keeps no print is not compared by print.
void expect_matches_cold(const Tiles& tiles, const NormalizedRegion& layer,
                         const DensityMap* density, const TileGrid& grid,
                         const HotspotSimOptions& options,
                         const std::vector<std::vector<Hotspot>>& cold_hotspots,
                         const std::string& what, bool printless_ok = false) {
  const Tiles cold = cold_tiles(layer, density, grid, options);
  ASSERT_EQ(tiles.size(), cold.size()) << what;
  for (std::size_t ti = 0; ti < cold.size(); ++ti) {
    if (!printless_ok || tiles[ti].print.columns() > 0) {
      EXPECT_TRUE(same_runs(tiles[ti].print, cold[ti].print))
          << what << ", tile " << ti;
    }
    EXPECT_TRUE(tiles[ti].risk == cold[ti].risk) << what << ", tile " << ti;
    EXPECT_EQ(tiles[ti].skipped, cold[ti].skipped) << what << ", tile " << ti;
  }
  EXPECT_EQ(assembled(tiles, grid, options), cold_hotspots) << what;
}

// One edit of a stream over `extent` tiled by `tile` with halo `margin`.
Region stream_edit(Rng& rng, int kind, const Rect& extent, Coord tile,
                   Coord margin) {
  const std::vector<Rect> cores = make_tiles(extent, tile);
  const Rect& core = cores[static_cast<std::size_t>(
      rng.uniform(0, static_cast<Coord>(cores.size() - 1)))];
  Region d;
  switch (kind) {
    case 0:  // straddles the core's right edge
      d.add(Rect{core.hi.x - 60, core.lo.y + 200, core.hi.x + 60,
                 core.lo.y + 320});
      break;
    case 1:  // in the ring just outside the core, within its halo
      d.add(Rect{core.lo.x + 300, core.hi.y + margin / 3, core.lo.x + 420,
                 core.hi.y + margin / 3 + 40});
      break;
    case 2:  // at the outer edge of the extent's halo
      d.add(Rect{extent.lo.x - margin + 5, extent.lo.y + 100,
                 extent.lo.x - margin + 60, extent.lo.y + 400});
      break;
    case 3:  // a full-height stripe
      d.add(Rect{core.lo.x + 500, extent.lo.y, core.lo.x + 560, extent.hi.y});
      break;
    case 4:  // a multi-rect delta
      for (int i = 0; i < 3; ++i) {
        const Coord x = rng.uniform(extent.lo.x, extent.hi.x - 200);
        const Coord y = rng.uniform(extent.lo.y, extent.hi.y - 200);
        d.add(Rect{x, y, x + rng.uniform(20, 200), y + rng.uniform(20, 200)});
      }
      break;
    default: {  // a patch anywhere
      const Coord x = rng.uniform(extent.lo.x, extent.hi.x - 200);
      const Coord y = rng.uniform(extent.lo.y, extent.hi.y - 200);
      d.add(Rect{x, y, x + rng.uniform(20, 200), y + rng.uniform(20, 200)});
      break;
    }
  }
  return d;
}

class LithoWindowStream : public ::testing::TestWithParam<StreamCase> {};

TEST_P(LithoWindowStream, SplicedTilesMatchColdAfterEveryEdit) {
  HotspotSimOptions options;
  options.model = model_of(GetParam().sigma, GetParam().px);
  options.tile = GetParam().tile;
  options.threads = 4;
  const Coord margin = 6 * options.model.sigma;
  std::size_t spliced = 0;
  for (const std::uint64_t seed : {3u, 8u}) {
    Region layer = small_m1(seed);
    const Rect extent = layer.bbox();
    const TileGrid grid(extent, options.tile);
    Tiles tiles = cold_tiles(layer, nullptr, grid, options);
    EXPECT_EQ(assembled(tiles, grid, options),
              simulate_hotspots_tiled(layer, extent, options).per_tile);
    Rng rng(seed * 7 + static_cast<std::uint64_t>(options.model.px));
    for (int i = 0; i < 12; ++i) {
      const Region d = stream_edit(rng, i % 6, extent, options.tile, margin);
      layer = rng.chance(0.4) ? layer - d : layer | d;
      spliced += resimulate(tiles, layer, nullptr, grid, options, d);
      expect_matches_cold(
          tiles, layer, nullptr, grid, options,
          simulate_hotspots_tiled(layer, extent, options).per_tile,
          "seed " + std::to_string(seed) + " edit " + std::to_string(i));
    }
  }
  EXPECT_GT(spliced, 10u) << "the streams must exercise the splice";
}

INSTANTIATE_TEST_SUITE_P(
    Optics, LithoWindowStream,
    ::testing::Values(StreamCase{20, 10, 3000}, StreamCase{25, 5, 4000},
                      StreamCase{22, 7, 3500}),
    [](const ::testing::TestParamInfo<StreamCase>& p) {
      return "sigma" + std::to_string(p.param.sigma) + "_px" +
             std::to_string(p.param.px) + "_tile" +
             std::to_string(p.param.tile);
    });

// Over a snapshot (density gate on) tiles splice the same way.
TEST(LithoWindowStreamSnapshot, MatchesColdSnapshotRuns) {
  HotspotSimOptions options;
  options.model = model_of(25, 5);
  options.tile = 3000;
  options.threads = 2;
  Region layer = small_m1(5);
  const Rect extent = layer.bbox().expanded(4000);  // empty, gated tiles
  const TileGrid grid(extent, options.tile);
  const auto snapshot = [](const Region& m1) {
    LayerMap map;
    map.emplace(layers::kMetal1, m1);
    return LayoutSnapshot(std::move(map));
  };
  const LayoutSnapshot first = snapshot(layer);
  Tiles tiles = cold_tiles(first.layer(layers::kMetal1),
                           litho_density(first, layers::kMetal1, options),
                           grid, options);
  Rng rng(9);
  for (int i = 0; i < 6; ++i) {
    const Region d = stream_edit(rng, 5, layer.bbox(), options.tile,
                                 6 * options.model.sigma);
    layer = layer | d;
    const LayoutSnapshot snap = snapshot(layer);
    const DensityMap* density = litho_density(snap, layers::kMetal1, options);
    resimulate(tiles, snap.layer(layers::kMetal1), density, grid, options, d);
    expect_matches_cold(
        tiles, snap.layer(layers::kMetal1), density, grid, options,
        simulate_hotspots_tiled(snap, layers::kMetal1, extent, options)
            .per_tile,
        "edit " + std::to_string(i));
  }
}

// ---- Fallbacks -------------------------------------------------------------

TEST(LithoWindowFallback, FftTilesKeepNoPrints) {
  HotspotSimOptions options;
  options.model = model_of(20, 10);
  options.tile = 3000;
  options.fast = LithoFastMode::kFft;
  Region layer = small_m1(4);
  const Rect extent = layer.bbox();
  const TileGrid grid(extent, options.tile);
  Tiles tiles = cold_tiles(layer, nullptr, grid, options);
  Rng rng(4);
  for (int i = 0; i < 6; ++i) {
    const Region d = stream_edit(rng, i, extent, options.tile, 120);
    layer = layer | d;
    EXPECT_EQ(resimulate(tiles, layer, nullptr, grid, options, d), 0u);
    for (std::size_t ti = 0; ti < tiles.size(); ++ti) {
      EXPECT_EQ(tiles[ti].print.columns(), 0u);
    }
    expect_matches_cold(tiles, layer, nullptr, grid, options,
                        simulate_hotspots_tiled(layer, extent, options).per_tile,
                        "edit " + std::to_string(i));
  }
}

// A tile the prefilter skips keeps no print. A thin wire added next to a
// fat block makes it simulate (a full render: no print to splice into),
// a second edit then splices, and removing the wire skips it again.
TEST(LithoWindowFallback, TileMovesIntoAndOutOfPrefilterSkip) {
  HotspotSimOptions options;
  options.model = model_of(25, 5);
  options.tile = 2000;
  const Rect extent{0, 0, 6000, 6000};
  const TileGrid grid(extent, options.tile);
  Region layer;
  layer.add(Rect{2600, 2600, 3000, 3000});  // one fat block, skippable
  Tiles tiles = cold_tiles(layer, nullptr, grid, options);
  const std::size_t skipped_before =
      simulate_hotspots_tiled(layer, extent, options).skipped;
  ASSERT_GT(skipped_before, 0u);

  const Region wire{Rect{3080, 2700, 3100, 2950}};
  const Region patch{Rect{3150, 2650, 3190, 2700}};
  struct Step {
    Region delta;
    bool add;
  };
  const std::vector<Step> steps{{wire, true}, {patch, true}, {wire, false},
                                {patch, false}, {wire, true}};
  std::vector<std::size_t> skipped;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    layer = steps[i].add ? layer | steps[i].delta : layer - steps[i].delta;
    resimulate(tiles, layer, nullptr, grid, options, steps[i].delta);
    const HotspotTileSim cold = simulate_hotspots_tiled(layer, extent, options);
    expect_matches_cold(tiles, layer, nullptr, grid, options, cold.per_tile,
                        "step " + std::to_string(i));
    skipped.push_back(cold.skipped);
  }
  EXPECT_LT(skipped[0], skipped_before) << "the wire must defeat the skip";
  EXPECT_EQ(skipped[3], skipped_before) << "removing it must restore the skip";
}

// Tiles without prints — what FFT-convolved tiles leave — render in
// full when an edit reaches them; later edits splice into those renders.
TEST(LithoWindowFallback, PrintlessTilesRenderInFullThenSplice) {
  HotspotSimOptions options;
  options.model = model_of(20, 10);
  options.tile = 3000;
  Region layer = small_m1(6);
  const Rect extent = layer.bbox();
  const TileGrid grid(extent, options.tile);
  Tiles tiles = cold_tiles(layer, nullptr, grid, options);
  for (LithoTile& t : tiles) t.print = ColumnRuns{};
  Rng rng(6);
  std::size_t spliced = 0;
  for (int i = 0; i < 8; ++i) {
    const Region d = stream_edit(rng, 5, extent, options.tile, 120);
    layer = rng.chance(0.4) ? layer - d : layer | d;
    spliced += resimulate(tiles, layer, nullptr, grid, options, d);
    // Tiles no edit has reached yet carry no print; the rest match cold.
    expect_matches_cold(tiles, layer, nullptr, grid, options,
                        simulate_hotspots_tiled(layer, extent, options).per_tile,
                        "edit " + std::to_string(i), /*printless_ok=*/true);
  }
  EXPECT_GT(spliced, 0u) << "a re-rendered tile must splice on a later edit";
}

}  // namespace
}  // namespace dfm
