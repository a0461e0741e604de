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

// One tile of the tiled simulation: clip the layer to the 6-sigma halo
// window around the core, simulate, and keep only the hotspots this core
// owns (marker center inside the core) so tiling never double-reports.
// With a valid calibration, tiles the prefilter proves hotspot-free skip
// the simulation (their owned-hotspot list is provably empty, so the
// merged output is unchanged); `skipped` reports that outcome.
std::vector<Hotspot> simulate_tile(const NormalizedRegion& layer,
                                   const Rect& core,
                                   const HotspotSimOptions& options,
                                   ThreadPool* pool,
                                   const PrefilterCalibration* cal,
                                   const DensityMap* dm, bool& skipped) {
  const Coord margin = 6 * options.model.sigma;
  std::vector<Hotspot> local;
  const Rect window = core.expanded(margin);
  if (dm != nullptr && density_gate_empty(*dm, window)) return local;
  const Region clip = layer.clipped(window);
  if (clip.empty()) return local;
  if (cal != nullptr) {
    TELEM_SPAN("litho/prefilter");
    const TileFeatures f =
        tile_features(clip, window, *cal, core.expanded(margin / 2));
    if (prefilter_safe(f, *cal)) {
      TELEM_COUNTER_ADD("litho.prefilter_skip", 1);
      skipped = true;
      return local;
    }
  }
  const Region printed = simulate_print_ex(clip, window, options.model, {},
                                           pool, options.fast,
                                           options.kernels.get());
  TELEM_SPAN("litho/compare");
  for (Hotspot h : find_hotspots(clip.clipped(core.expanded(margin / 2)),
                                 printed, options.edge_tolerance)) {
    if (core.contains(h.marker.center())) local.push_back(std::move(h));
  }
  return local;
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
  const PrefilterCalibration cal = resolve_calibration(options);
  const PrefilterCalibration* calp = cal.valid ? &cal : nullptr;
  const PassPool pool(options);
  std::vector<char> skipped(sim.tiles.size(), 0);
  sim.per_tile = parallel_map(pool, sim.tiles.size(), [&](std::size_t ti) {
    TELEM_SPAN_ARG("litho/tile", ti);
    bool skip = false;
    auto local =
        simulate_tile(layer, sim.tiles[ti], options, pool, calp, dm, skip);
    skipped[ti] = skip ? 1 : 0;
    return local;
  });
  sim.recomputed = sim.tiles.size();
  sim.skipped = static_cast<std::size_t>(
      std::count(skipped.begin(), skipped.end(), 1));
  return sim;
}

// Shared core of the region/snapshot overloads of the incremental run.
HotspotTileSim resim_impl(const NormalizedRegion& layer, const DensityMap* dm,
                          const Rect& extent, const HotspotSimOptions& options,
                          const HotspotTileSim& prev, const Region& dirty) {
  if (prev.extent != extent || prev.tile != options.tile ||
      prev.per_tile.size() != prev.tiles.size()) {
    return tiled_impl(layer, dm, extent, options);
  }
  HotspotTileSim sim;
  sim.extent = extent;
  sim.tile = options.tile;
  sim.tiles = prev.tiles;
  sim.per_tile = prev.per_tile;
  const Coord margin = 6 * options.model.sigma;
  std::vector<std::size_t> stale;
  for (std::size_t ti = 0; ti < sim.tiles.size(); ++ti) {
    const Rect window = sim.tiles[ti].expanded(margin);
    for (const Rect& d : dirty.rects()) {
      if (d.overlaps(window)) {
        stale.push_back(ti);
        break;
      }
    }
  }
  const PrefilterCalibration cal = resolve_calibration(options);
  const PrefilterCalibration* calp = cal.valid ? &cal : nullptr;
  const PassPool pool(options);
  std::vector<char> skipped(stale.size(), 0);
  std::vector<std::vector<Hotspot>> redone =
      parallel_map(pool, stale.size(), [&](std::size_t si) {
        TELEM_SPAN_ARG("litho/tile", stale[si]);
        bool skip = false;
        auto local = simulate_tile(layer, sim.tiles[stale[si]], options, pool,
                                   calp, dm, skip);
        skipped[si] = skip ? 1 : 0;
        return local;
      });
  for (std::size_t si = 0; si < stale.size(); ++si) {
    sim.per_tile[stale[si]] = std::move(redone[si]);
  }
  sim.recomputed = stale.size();
  sim.skipped = static_cast<std::size_t>(
      std::count(skipped.begin(), skipped.end(), 1));
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
  return simulate_tile(layer, core, options, pool, cal, nullptr, skipped);
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
                                   const HotspotTileSim& prev,
                                   const Region& dirty) {
  return resim_impl(layer, nullptr, extent, options, prev, dirty);
}

HotspotTileSim resimulate_hotspots(const LayoutSnapshot& snap, LayerKey layer,
                                   const Rect& extent,
                                   const HotspotSimOptions& options,
                                   const HotspotTileSim& prev,
                                   const Region& dirty) {
  return resim_impl(snap.layer(layer), density_for(snap, layer, options),
                    extent, options, prev, dirty);
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
