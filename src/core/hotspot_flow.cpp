#include "core/hotspot_flow.h"

#include "core/parallel.h"
#include "core/snapshot.h"
#include "core/telemetry.h"
#include "geometry/rtree.h"
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

// Resolves the prefilter calibration a tiled run should use; an invalid
// calibration (returned when the prefilter is off, forced off by kOff,
// or unprovable for this model) disables skipping entirely.
PrefilterCalibration resolve_calibration(const HotspotSimOptions& options) {
  if (!options.prefilter || options.fast == LithoFastMode::kOff) return {};
  return prefilter_calibration(options.model, options.edge_tolerance,
                               options.prefilter_window.empty()
                                   ? default_process_window()
                                   : options.prefilter_window);
}

// Density-grid gate (snapshot path only): true when every grid cell the
// simulation window touches has zero coverage, i.e. the clip is provably
// empty before it is even built. Cells outside the analysed area hold no
// geometry by construction (the grid spans the snapshot bbox).
bool density_gate_empty(const DensityMap& dm, const Rect& window) {
  if (dm.tile <= 0 || dm.nx <= 0 || dm.ny <= 0) return false;
  const Rect overlap = window.intersect(dm.window);
  if (overlap.is_empty()) return true;
  const auto cell = [&](Coord v, Coord lo, int n) {
    return std::clamp(static_cast<int>((v - lo) / dm.tile), 0, n - 1);
  };
  const int ix0 = cell(overlap.lo.x, dm.window.lo.x, dm.nx);
  const int ix1 = cell(overlap.hi.x - 1, dm.window.lo.x, dm.nx);
  const int iy0 = cell(overlap.lo.y, dm.window.lo.y, dm.ny);
  const int iy1 = cell(overlap.hi.y - 1, dm.window.lo.y, dm.ny);
  for (int iy = iy0; iy <= iy1; ++iy) {
    for (int ix = ix0; ix <= ix1; ++ix) {
      if (dm.at(ix, iy) > 0.0) return false;
    }
  }
  return true;
}

// What one tile simulation produces.
struct TileResult {
  std::vector<Hotspot> hotspots;  // the hotspots the core owns
  ColumnRuns print;  // the tile's print, kept when directly convolved
  bool skipped = false;  // the prefilter proved the tile hotspot-free
};

// One tile of the tiled simulation: clip the layer to the 6-sigma halo
// window around the core, simulate, and keep only the hotspots this core
// owns (marker center inside the core) so tiling never double-reports.
// With a valid calibration, tiles the prefilter proves hotspot-free skip
// the simulation (their owned-hotspot list is provably empty, so the
// merged output is unchanged). `prev` is the tile's print from before an
// edit inside `changed`, or null (or no columns) for a full render; the
// print is bit-identical either way (print_window), so the hotspots are
// too.
TileResult simulate_tile(const NormalizedRegion& layer, const Rect& core,
                         const HotspotSimOptions& options, ThreadPool* pool,
                         const PrefilterCalibration* cal, const DensityMap* dm,
                         const ColumnRuns* prev, const Rect& changed) {
  const Coord margin = 6 * options.model.sigma;
  TileResult out;
  const Rect window = core.expanded(margin);
  if (dm != nullptr && density_gate_empty(*dm, window)) return out;
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
  WindowPrint print =
      print_window(clip, window, options.model, {}, pool, options.fast,
                   options.kernels.get(), prev, changed);
  const Region printed = grid_region(window, options.model.px, print.runs);
  if (print.direct) out.print = std::move(print.runs);
  TELEM_SPAN("litho/compare");
  for (Hotspot h : find_hotspots(clip.clipped(core.expanded(margin / 2)),
                                 printed, options.edge_tolerance, pool)) {
    if (core.contains(h.marker.center())) out.hotspots.push_back(std::move(h));
  }
  return out;
}

// Stores tile `ti`'s result in `sim`; returns whether it was skipped.
bool store_tile(HotspotTileSim& sim, std::size_t ti, TileResult&& r) {
  sim.per_tile[ti] = std::move(r.hotspots);
  sim.prints[ti] = std::move(r.print);
  return r.skipped;
}

// Shared core of the region/snapshot overloads of the cold tiled run.
HotspotTileSim tiled_impl(const NormalizedRegion& layer, const DensityMap* dm,
                          const Rect& extent,
                          const HotspotSimOptions& options) {
  HotspotTileSim sim;
  sim.extent = extent;
  sim.tile = options.tile;
  if (extent.is_empty()) return sim;
  sim.tiles = make_tiles(extent, options.tile);
  sim.per_tile.resize(sim.tiles.size());
  sim.prints.resize(sim.tiles.size());
  const PrefilterCalibration cal = resolve_calibration(options);
  const PrefilterCalibration* calp = cal.valid ? &cal : nullptr;
  const PassPool pool(options);
  std::vector<TileResult> results =
      parallel_map(pool, sim.tiles.size(), [&](std::size_t ti) {
        TELEM_SPAN_ARG("litho/tile", ti);
        return simulate_tile(layer, sim.tiles[ti], options, pool, calp, dm,
                             nullptr, Rect::empty());
      });
  for (std::size_t ti = 0; ti < results.size(); ++ti) {
    if (store_tile(sim, ti, std::move(results[ti]))) ++sim.skipped;
  }
  sim.recomputed = sim.tiles.size();
  return sim;
}

// Shared core of the region/snapshot overloads of the incremental run.
HotspotTileSim resim_impl(const NormalizedRegion& layer, const DensityMap* dm,
                          const Rect& extent, const HotspotSimOptions& options,
                          HotspotTileSim prev, const Region& dirty) {
  if (!prev.same_grid(extent, options.tile)) {
    return tiled_impl(layer, dm, extent, options);
  }
  HotspotTileSim sim = std::move(prev);
  sim.prints.resize(sim.tiles.size());
  const std::vector<StaleTile> stale =
      stale_litho_tiles(sim.tiles, options, dirty);
  const PrefilterCalibration cal = resolve_calibration(options);
  const PrefilterCalibration* calp = cal.valid ? &cal : nullptr;
  const PassPool pool(options);
  std::vector<TileResult> results =
      parallel_map(pool, stale.size(), [&](std::size_t si) {
        const StaleTile& st = stale[si];
        TELEM_SPAN_ARG("litho/tile", st.index);
        return simulate_tile(layer, sim.tiles[st.index], options, pool, calp,
                             dm, &sim.prints[st.index], st.changed);
      });
  sim.skipped = 0;
  for (std::size_t si = 0; si < stale.size(); ++si) {
    if (store_tile(sim, stale[si].index, std::move(results[si]))) {
      ++sim.skipped;
    }
  }
  sim.recomputed = stale.size();
  return sim;
}

// The snapshot overloads gate on the memoized density grid only when the
// prefilter is active: kOff must stay byte-for-byte the historical path.
const DensityMap* density_for(const LayoutSnapshot& snap, LayerKey layer,
                              const HotspotSimOptions& options) {
  if (!options.prefilter || options.fast == LithoFastMode::kOff) return nullptr;
  if (!snap.has(layer)) return nullptr;
  return &snap.density(layer, options.tile);
}

}  // namespace

std::vector<Hotspot> simulate_litho_tile(const NormalizedRegion& layer,
                                         const Rect& core,
                                         const HotspotSimOptions& options,
                                         ThreadPool* pool,
                                         const PrefilterCalibration* cal,
                                         bool& skipped) {
  TileResult r = simulate_tile(layer, core, options, pool, cal, nullptr,
                               nullptr, Rect::empty());
  skipped = r.skipped;
  return std::move(r.hotspots);
}

PrefilterCalibration resolve_litho_calibration(
    const HotspotSimOptions& options) {
  return resolve_calibration(options);
}

std::vector<Hotspot> HotspotTileSim::merged() const {
  std::vector<Hotspot> out;
  for (const std::vector<Hotspot>& v : per_tile) {
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

bool HotspotTileSim::same_grid(const Rect& e, Coord t) const {
  return extent == e && tile == t && per_tile.size() == tiles.size();
}

std::vector<StaleTile> stale_litho_tiles(const std::vector<Rect>& tiles,
                                         const HotspotSimOptions& options,
                                         const Region& dirty) {
  const Coord margin = 6 * options.model.sigma;
  std::vector<StaleTile> out;
  for (std::size_t ti = 0; ti < tiles.size(); ++ti) {
    const Rect window = tiles[ti].expanded(margin);
    Rect changed = Rect::empty();
    for (const Rect& d : dirty.rects()) {
      if (d.overlaps(window)) changed = changed.join(d.intersect(window));
    }
    if (!changed.is_empty()) out.push_back({ti, changed});
  }
  return out;
}

HotspotTileSim simulate_hotspots_tiled(NormalizedRegion layer,
                                       const Rect& extent,
                                       const HotspotSimOptions& options) {
  return tiled_impl(layer, nullptr, extent, options);
}

HotspotTileSim simulate_hotspots_tiled(const LayoutSnapshot& snap,
                                       LayerKey layer, const Rect& extent,
                                       const HotspotSimOptions& options) {
  return tiled_impl(snap.layer(layer), density_for(snap, layer, options),
                    extent, options);
}

HotspotTileSim resimulate_hotspots(NormalizedRegion layer, const Rect& extent,
                                   const HotspotSimOptions& options,
                                   HotspotTileSim prev, const Region& dirty) {
  return resim_impl(layer, nullptr, extent, options, std::move(prev), dirty);
}

HotspotTileSim resimulate_hotspots(const LayoutSnapshot& snap, LayerKey layer,
                                   const Rect& extent,
                                   const HotspotSimOptions& options,
                                   HotspotTileSim prev, const Region& dirty) {
  return resim_impl(snap.layer(layer), density_for(snap, layer, options),
                    extent, options, std::move(prev), dirty);
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
