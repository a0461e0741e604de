#include "core/hotspot_flow.h"

#include "core/parallel.h"
#include "core/snapshot.h"
#include "core/telemetry.h"
#include "geometry/rtree.h"
#include "layout/tile_grid.h"
#include "litho/fft.h"
#include "litho/prefilter.h"

#include <algorithm>

namespace dfm {
namespace {

// Shared core of both scan overloads: clip each window through the given
// index, center it, and measure against every class representative.
// Windows are enumerated in scan order, matched concurrently, and kept
// grouped by window index: identical output to the serial sliding scan.
std::vector<HotspotMatch> scan_impl(const std::vector<Rect>& rects,
                                    const RTree& tree, const Rect& extent,
                                    const HotspotLibrary& library,
                                    const HotspotFlowOptions& options,
                                    ThreadPool* pool) {
  // Normalization by construction: viewing each representative
  // canonicalizes it before the windows read it concurrently.
  std::vector<NormalizedRegion> reps;
  reps.reserve(library.classes.size());
  for (const HotspotClass& cls : library.classes) {
    reps.emplace_back(cls.representative);
  }

  const Coord r = options.snippet_radius;
  std::vector<Rect> windows;
  for (Coord y = extent.lo.y; y + 2 * r <= extent.hi.y + options.scan_stride;
       y += options.scan_stride) {
    for (Coord x = extent.lo.x; x + 2 * r <= extent.hi.x + options.scan_stride;
         x += options.scan_stride) {
      windows.push_back(Rect{x, y, x + 2 * r, y + 2 * r});
    }
  }
  std::vector<std::vector<HotspotMatch>> per_window =
      parallel_map(pool, windows.size(), [&](std::size_t wi) {
        TELEM_SPAN_ARG("hotspot/scan_window", wi);
        const Rect& window = windows[wi];
        std::vector<HotspotMatch> local;
        Region clip;
        tree.visit(window, [&](std::uint32_t i) {
          const Rect c = rects[i].intersect(window);
          if (!c.is_empty()) clip.add(c);
        });
        if (clip.empty()) return local;
        const Region centered = clip.translated(-window.center());
        for (std::size_t ci = 0; ci < reps.size(); ++ci) {
          const double d = snippet_distance(reps[ci], centered);
          if (d <= options.match_threshold) {
            local.push_back(HotspotMatch{ci, window, d});
          }
        }
        return local;
      });
  std::vector<HotspotMatch> out;
  for (std::vector<HotspotMatch>& v : per_window) {
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

// Density-grid gate (snapshot path only): true when every grid cell the
// simulation window touches has zero coverage, i.e. the clip is provably
// empty before it is even built. Cells outside the analysed area hold no
// geometry by construction (the grid spans the snapshot bbox).
bool density_gate_empty(const DensityMap& dm, const Rect& window) {
  if (dm.tile <= 0 || dm.nx <= 0 || dm.ny <= 0) return false;
  const Rect overlap = window.intersect(dm.window);
  if (overlap.is_empty()) return true;
  std::vector<std::size_t> cells;
  TileGrid(dm.window, dm.tile)
      .touching(Rect{overlap.lo.x, overlap.lo.y, overlap.hi.x - 1,
                     overlap.hi.y - 1},
                cells);
  for (const std::size_t c : cells) {
    if (dm.values[c] > 0.0) return false;
  }
  return true;
}

// The print inside `w` (a sub-box of `window`), from the window's runs.
Region print_in(const Rect& window, Coord px, const ColumnRuns& runs,
                const Rect& w) {
  const Rect b = w.intersect(window);
  if (b.is_empty() || runs.columns() == 0) return {};
  const auto col = [&](Coord v) { return static_cast<int>((v - window.lo.x) / px); };
  const auto row = [&](Coord v) { return static_cast<int>((v - window.lo.y) / px); };
  const int i0 = col(b.lo.x);
  const int i1 = std::min(static_cast<int>(runs.columns()) - 1, col(b.hi.x - 1));
  const int j0 = row(b.lo.y);
  const int j1 = row(b.hi.y - 1) + 1;
  ColumnRuns sub;
  for (int i = i0; i <= i1; ++i) {
    const std::size_t c = static_cast<std::size_t>(i);
    for (const PixelRun* r = runs.begin(c); r != runs.end(c); ++r) {
      const int lo = std::max(r->lo, j0), hi = std::min(r->hi, j1);
      if (lo < hi) sub.runs.push_back(PixelRun{lo - j0, hi - j0});
    }
    sub.end_column();
  }
  const Rect sub_window{window.lo.x + i0 * px, window.lo.y + j0 * px,
                        window.hi.x, window.hi.y};
  return grid_region(sub_window, px, sub).clipped(b);
}

// One half of find_hotspots inside `w` (a sub-box of the compare region
// `z`): pinch risk is the eroded target that did not print, bridge risk
// the print outside the dilated target. `target_z` is the target clipped
// to `z`; it is read only near `w`, where erosion and dilation are exact.
Region risk_in(const Region& target_z, const Region& print_w, bool pinch,
               Coord tol, const Rect& w) {
  const Region near = target_z.clipped(w.expanded(tol + 2));
  return pinch ? (near.shrunk(tol) - print_w).clipped(w)
               : print_w - near.bloated(tol);
}

// True when `b` lies inside `w` away from every side of `w` that is not
// also a side of the compare region `z` (there the true risk is cut off
// for every tiling alike).
bool strictly_inside(const Rect& b, const Rect& w, const Rect& z) {
  return (b.lo.x > w.lo.x || w.lo.x == z.lo.x) &&
         (b.lo.y > w.lo.y || w.lo.y == z.lo.y) &&
         (b.hi.x < w.hi.x || w.hi.x == z.hi.x) &&
         (b.hi.y < w.hi.y || w.hi.y == z.hi.y);
}

// Files one risk component of the tile with cell `cell` (its ownership
// box; outer sides at TileGrid::kFar): wholly inside the cell it is the
// tile's own hotspot (when severe enough and centred in the extent);
// reaching a shared side it is kept as a piece for seam completion.
void file_component(Region comp, HotspotKind kind, const Rect& cell,
                    const Rect& extent, Coord tol, TileRisk& out) {
  const Rect b = comp.bbox();
  if (!b.overlaps(cell)) return;  // a neighbour's
  const auto shared = [](Coord side) {
    return side != TileGrid::kFar && side != -TileGrid::kFar;
  };
  const bool inside = (!shared(cell.lo.x) || b.lo.x > cell.lo.x) &&
                      (!shared(cell.lo.y) || b.lo.y > cell.lo.y) &&
                      (!shared(cell.hi.x) || b.hi.x < cell.hi.x) &&
                      (!shared(cell.hi.y) || b.hi.y < cell.hi.y);
  if (!inside) {
    out.edges.push_back(RiskPiece{kind, std::move(comp), b});
    return;
  }
  const Area min_severity = static_cast<Area>(tol) * tol;
  const Area area = comp.area();
  const Rect marker = b.expanded(tol);
  if (area < min_severity || !extent.contains(marker.center())) return;
  out.interior.push_back(
      Hotspot{kind, marker, static_cast<double>(area)});
}

// Pinches first, then bridges, each in bbox order: find_hotspots' order
// over one compare region.
void sort_hotspots(std::vector<Hotspot>& hs) {
  std::stable_sort(hs.begin(), hs.end(), [](const Hotspot& a, const Hotspot& b) {
    if (a.kind != b.kind) return a.kind == HotspotKind::kPinch;
    if (a.marker.lo != b.marker.lo) return a.marker.lo < b.marker.lo;
    return a.marker.hi < b.marker.hi;
  });
}

// The tile's compare: risk components inside the compare region `z`,
// filed against the tile's cell. With `prev` (the tile's state before an
// edit that changed the print only inside `rendered` and the target only
// inside `changed`), only a window around those boxes is compared: it
// starts at their join grown by the tolerance and grows until every
// component whose bbox reaches the changes lies strictly inside it.
// Components strictly inside the final window replace the state's; the
// rest of the state carries over, so the result equals a full compare.
TileRisk compare_tile(const Region& target_z, const Rect& window, Coord px,
                      const ColumnRuns& print, const Rect& z, const Rect& cell,
                      const Rect& extent, Coord tol, ThreadPool* pool,
                      const TileRisk* prev, const Rect& rendered,
                      const Rect& changed) {
  const std::uint64_t t0 = telemetry::now_ns();
  if (prev == nullptr) {
    // The two halves run concurrently, as in find_hotspots.
    const Region print_z = print_in(window, px, print, z);
    std::vector<TileRisk> halves = parallel_map(pool, 2, [&](std::size_t h) {
      const bool pinch = h == 0;
      TileRisk half;
      const Region risk = risk_in(target_z, print_z, pinch, tol, z);
      for (Region& comp : risk.components()) {
        file_component(std::move(comp),
                       pinch ? HotspotKind::kPinch : HotspotKind::kBridge,
                       cell, extent, tol, half);
      }
      return half;
    });
    TileRisk out = std::move(halves[0]);
    out.interior.insert(out.interior.end(), halves[1].interior.begin(),
                        halves[1].interior.end());
    out.edges.insert(out.edges.end(),
                     std::make_move_iterator(halves[1].edges.begin()),
                     std::make_move_iterator(halves[1].edges.end()));
    telemetry::record_span("litho/compare", t0, telemetry::now_ns(),
                           static_cast<std::uint64_t>(z.area() / (px * px)));
    return out;
  }
  const Rect touched =
      rendered.join(changed.is_empty() ? changed : changed.expanded(tol + 1))
          .intersect(z);
  if (touched.is_empty()) {
    telemetry::record_span("litho/compare", t0, telemetry::now_ns(), 0);
    return *prev;
  }
  Rect w = touched.expanded(tol).intersect(z);
  Coord step = 8 * tol + 8 * px;  // doubles per round: long lines converge
  std::vector<std::pair<HotspotKind, Region>> comps;
  std::uint64_t pixels = 0;
  for (;;) {
    comps.clear();
    const Region print_w = print_in(window, px, print, w);
    pixels += static_cast<std::uint64_t>(w.area() / (px * px));
    Rect grown = w;
    for (const bool pinch : {true, false}) {
      const Region risk = risk_in(target_z, print_w, pinch, tol, w);
      for (Region& comp : risk.components()) {
        const Rect b = comp.bbox();
        if (b.touches(touched) && !strictly_inside(b, w, z)) {
          grown = grown.hull(b.expanded(step)).intersect(z);
        }
        comps.emplace_back(pinch ? HotspotKind::kPinch : HotspotKind::kBridge,
                           std::move(comp));
      }
    }
    if (grown == w) break;
    w = grown;
    step *= 2;
  }
  TileRisk out;
  for (const Hotspot& h : prev->interior) {
    if (!strictly_inside(h.marker.expanded(-tol), w, z)) {
      out.interior.push_back(h);
    }
  }
  for (const RiskPiece& p : prev->edges) {
    if (!strictly_inside(p.bbox, w, z)) out.edges.push_back(p);
  }
  for (auto& [kind, comp] : comps) {
    if (strictly_inside(comp.bbox(), w, z)) {
      file_component(std::move(comp), kind, cell, extent, tol, out);
    }
  }
  sort_hotspots(out.interior);
  telemetry::record_span("litho/compare", t0, telemetry::now_ns(), pixels);
  return out;
}

// The cold tiled run: every tile of the grid simulated, then the seams
// completed.
HotspotTileSim simulate_tiled(const NormalizedRegion& layer,
                              const DensityMap* density, const Rect& extent,
                              const HotspotSimOptions& options) {
  const TileGrid grid(extent, options.tile);
  const PrefilterCalibration cal = grid.size() == 0
                                       ? PrefilterCalibration{}
                                       : resolve_litho_calibration(options);
  const PassPool pool(options);
  const std::vector<LithoTile> results =
      parallel_map(pool, grid.size(), [&](std::size_t ti) {
        return simulate_litho_tile(layer, density, grid, ti, options, pool,
                                   cal.valid ? &cal : nullptr);
      });
  HotspotTileSim sim;
  sim.tiles = grid.cores();
  std::vector<const LithoTile*> tiles;
  tiles.reserve(results.size());
  for (const LithoTile& r : results) {
    tiles.push_back(&r);
    if (r.skipped) ++sim.skipped;
  }
  sim.per_tile = assemble_hotspots(grid, tiles, options.edge_tolerance);
  return sim;
}

}  // namespace

PrefilterCalibration resolve_litho_calibration(
    const HotspotSimOptions& options) {
  if (!options.prefilter || options.fast == LithoFastMode::kOff) return {};
  return prefilter_calibration(options.model, options.edge_tolerance,
                               options.prefilter_window.empty()
                                   ? default_process_window()
                                   : options.prefilter_window);
}

const DensityMap* litho_density(const LayoutSnapshot& snap, LayerKey layer,
                                const HotspotSimOptions& options) {
  if (!options.prefilter || options.fast == LithoFastMode::kOff) return nullptr;
  if (!snap.has(layer)) return nullptr;
  return &snap.density(layer, options.tile);
}

LithoTile simulate_litho_tile(const NormalizedRegion& layer,
                              const DensityMap* density, const TileGrid& grid,
                              std::size_t ti, const HotspotSimOptions& options,
                              ThreadPool* pool, const PrefilterCalibration* cal,
                              const LithoTile* prev, const Rect& changed) {
  TELEM_SPAN_ARG("litho/tile", ti);
  const Coord margin = 6 * options.model.sigma;
  const Rect core = grid.core(ti);
  LithoTile out;
  const Rect window = core.expanded(margin);
  if (density != nullptr && density_gate_empty(*density, window)) return out;
  const Region clip = layer.clipped(window);
  if (clip.empty()) return out;
  if (cal != nullptr) {
    TELEM_SPAN("litho/prefilter");
    const TileFeatures f =
        tile_features(clip, window, *cal, core.expanded(margin / 2));
    if (prefilter_safe(f, *cal)) {
      TELEM_COUNTER_ADD("litho.prefilter_skip", 1);
      out.skipped = true;
      return out;
    }
  }
  const bool splice = prev != nullptr && prev->print.columns() != 0;
  WindowPrint print = print_window(clip, window, options.model, {}, pool,
                                   options.fast, options.kernels.get(),
                                   splice ? &prev->print : nullptr, changed);
  const Rect z = core.expanded(margin / 2);
  out.risk = compare_tile(clip.clipped(z), window, options.model.px,
                          print.runs, z, grid.cell(ti), grid.extent(),
                          options.edge_tolerance, pool,
                          splice ? &prev->risk : nullptr, print.rendered,
                          changed);
  if (print.direct) out.print = std::move(print.runs);
  return out;
}

std::vector<std::vector<Hotspot>> assemble_hotspots(
    const TileGrid& grid, const std::vector<const LithoTile*>& tiles,
    Coord tol) {
  const Area min_severity = static_cast<Area>(tol) * tol;
  std::vector<std::vector<Hotspot>> out(tiles.size());
  for (const HotspotKind kind : {HotspotKind::kPinch, HotspotKind::kBridge}) {
    Region all;
    for (const LithoTile* t : tiles) {
      for (const RiskPiece& p : t->risk.edges) {
        if (p.kind == kind) all.add(p.region);
      }
    }
    for (const Region& comp : all.components()) {
      const Area area = comp.area();
      const Rect marker = comp.bbox().expanded(tol);
      if (area < min_severity || !grid.extent().contains(marker.center())) {
        continue;
      }
      out[grid.owner(marker.center())].push_back(
          Hotspot{kind, marker, static_cast<double>(area)});
    }
  }
  for (std::size_t t = 0; t < tiles.size(); ++t) {
    std::vector<Hotspot> hs = tiles[t]->risk.interior;
    hs.insert(hs.end(), out[t].begin(), out[t].end());
    sort_hotspots(hs);
    out[t] = std::move(hs);
  }
  return out;
}

std::vector<Hotspot> HotspotTileSim::merged() const {
  std::vector<Hotspot> out;
  for (const std::vector<Hotspot>& v : per_tile) {
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

HotspotTileSim simulate_hotspots_tiled(NormalizedRegion layer,
                                       const Rect& extent,
                                       const HotspotSimOptions& options) {
  return simulate_tiled(layer, nullptr, extent, options);
}

HotspotTileSim simulate_hotspots_tiled(const LayoutSnapshot& snap,
                                       LayerKey layer, const Rect& extent,
                                       const HotspotSimOptions& options) {
  return simulate_tiled(snap.layer(layer), litho_density(snap, layer, options),
                        extent, options);
}

std::vector<Hotspot> simulate_hotspots(NormalizedRegion layer,
                                       const Rect& extent,
                                       const OpticalModel& model,
                                       Coord edge_tolerance, Coord tile,
                                       ThreadPool* pool) {
  if (extent.is_empty() || layer.empty()) return {};
  HotspotSimOptions options{pool};
  options.model = model;
  options.edge_tolerance = edge_tolerance;
  options.tile = tile;
  return simulate_hotspots_tiled(std::move(layer), extent, options).merged();
}

HotspotLibrary build_hotspot_library(NormalizedRegion layer, const Rect& extent,
                                     const HotspotFlowOptions& options) {
  const PassPool pool(options);
  HotspotLibrary lib;
  const auto hotspots = simulate_hotspots(layer, extent, options.model,
                                          options.edge_tolerance, 20000, pool);
  lib.training_hotspots = hotspots.size();

  std::vector<Snippet> snippets(hotspots.size());
  std::vector<HotspotKind> kinds;
  kinds.reserve(hotspots.size());
  for (const Hotspot& h : hotspots) kinds.push_back(h.kind);
  parallel_map(pool, hotspots.size(), [&](std::size_t i) {
    const Point c = hotspots[i].marker.center();
    const Rect clip{c.x - options.snippet_radius, c.y - options.snippet_radius,
                    c.x + options.snippet_radius, c.y + options.snippet_radius};
    snippets[i] = Snippet{layer.clipped(clip), c};
    return 0;
  });

  for (const SnippetCluster& cluster :
       leader_cluster(snippets, options.cluster_threshold)) {
    HotspotClass cls;
    cls.representative = snippets[cluster.representative].geometry.translated(
        -snippets[cluster.representative].center);
    cls.kind = kinds[cluster.representative];
    cls.population = cluster.members.size();
    lib.classes.push_back(std::move(cls));
  }
  return lib;
}

std::vector<HotspotMatch> scan_for_hotspots(NormalizedRegion layer,
                                            const Rect& extent,
                                            const HotspotLibrary& library,
                                            const HotspotFlowOptions& options) {
  if (library.classes.empty() || layer.empty()) return {};
  // Index layer rects once; clip per window via the tree.
  const std::vector<Rect>& rects = layer.rects();
  const RTree tree(rects);
  const PassPool pool(options);
  return scan_impl(rects, tree, extent, library, options, pool);
}

std::vector<HotspotMatch> scan_for_hotspots(const LayoutSnapshot& snap,
                                            LayerKey layer, const Rect& extent,
                                            const HotspotLibrary& library,
                                            const HotspotFlowOptions& options) {
  if (library.classes.empty() || !snap.has(layer) || snap.layer(layer).empty()) {
    return {};
  }
  const PassPool pool(options);
  return scan_impl(snap.layer(layer).rects(), snap.rtree(layer), extent,
                   library, options, pool);
}

}  // namespace dfm
