// Hotspot classification system, after the automatic hotspot
// classification papers: simulate a training design, harvest hotspot
// snippets, cluster them into classes, and use the class representatives
// as a geometric match deck to find the same weak constructs in new
// designs without running simulation there.
#pragma once

#include "core/engine_api.h"
#include "geometry/normalized_region.h"
#include "layout/tile_grid.h"
#include "litho/litho.h"
#include "pattern/clustering.h"

#include <memory>
#include <string>
#include <vector>

namespace dfm {

class LayoutSnapshot;       // core/snapshot.h
struct DensityMap;          // layout/density.h
class KernelSpectrumCache;  // litho/fft.h

struct HotspotFlowOptions : PassOptions {
  using PassOptions::PassOptions;

  OpticalModel model;
  Coord snippet_radius = 400;    // clip half-size around a hotspot
  Coord edge_tolerance = 12;     // litho hotspot sensitivity
  double cluster_threshold = 0.25;  // snippet Jaccard-distance threshold
  double match_threshold = 0.25;    // scan-side distance threshold
  Coord scan_stride = 200;          // sliding-scan stride
};

struct HotspotClass {
  Region representative;  // geometry of the defining snippet
  HotspotKind kind;
  std::size_t population = 0;  // training snippets in this class
};

struct HotspotLibrary {
  std::vector<HotspotClass> classes;
  std::size_t training_hotspots = 0;
};

/// Training: simulate `layer` over `extent` tile by tile, harvest
/// hotspot snippets, cluster, and keep one representative per class.
/// Taking a NormalizedRegion canonicalizes the layer at the call
/// boundary, so the tiles can read it concurrently.
HotspotLibrary build_hotspot_library(NormalizedRegion layer, const Rect& extent,
                                     const HotspotFlowOptions& options);

struct HotspotMatch {
  std::size_t class_index;
  Rect window;
  double distance;
};

/// Scanning: slide a window over the target and report windows whose
/// geometry is within match_threshold of a class representative. No
/// simulation happens here — that is the point of the flow.
std::vector<HotspotMatch> scan_for_hotspots(NormalizedRegion layer,
                                            const Rect& extent,
                                            const HotspotLibrary& library,
                                            const HotspotFlowOptions& options);

/// Snapshot-native scan: reuses the snapshot's memoized R-tree for the
/// scanned layer instead of indexing from scratch. Bit-identical to the
/// region overload.
std::vector<HotspotMatch> scan_for_hotspots(const LayoutSnapshot& snap,
                                            LayerKey layer, const Rect& extent,
                                            const HotspotLibrary& library,
                                            const HotspotFlowOptions& options);

/// Litho simulation knobs shared by the cold and incremental tiled runs.
struct HotspotSimOptions : PassOptions {
  using PassOptions::PassOptions;

  OpticalModel model;
  Coord edge_tolerance = 12;
  Coord tile = 20000;  // core edge of one simulation tile

  /// The litho fast path. kAuto skips tiles the density gate or the
  /// conservative prefilter proves hotspot-free: tiles whose geometry
  /// provably cannot print a hotspot anywhere in `prefilter_window`
  /// bypass simulation entirely, so the merged hotspot set is unchanged.
  /// kOff simulates every tile.
  LithoFastMode fast = LithoFastMode::kAuto;
  /// Process window the prefilter must be safe across; empty means
  /// default_process_window() (litho/prefilter.h).
  std::vector<ProcessCondition> prefilter_window;
  /// Read by nothing; goes with ROADMAP item 8's benchmark revision.
  std::shared_ptr<KernelSpectrumCache> kernels;
};

/// One connected piece of a tile's pinch or bridge risk (find_hotspots'
/// two halves) that reaches a side the tile shares with a neighbour. Its
/// true component may continue across that seam, so it is completed by
/// merging with the neighbours' pieces before it can become a hotspot.
struct RiskPiece {
  HotspotKind kind;
  Region region;
  Rect bbox;

  friend bool operator==(const RiskPiece&, const RiskPiece&) = default;
};

/// What a tile's compare keeps for later runs: the hotspots of risk
/// components that lie wholly inside its cell (pinches, then bridges,
/// each in bbox order) and the pieces that reach a shared side.
struct TileRisk {
  std::vector<Hotspot> interior;
  std::vector<RiskPiece> edges;

  friend bool operator==(const TileRisk&, const TileRisk&) = default;
};

/// One simulation tile's result: the splice unit of incremental litho.
struct LithoTile {
  /// The print as runs of the window's pixel grid (print_window), which
  /// an edit splices into instead of re-rendering the tile. Every tile
  /// that renders keeps it; tiles the density gate or the prefilter
  /// skipped have no columns.
  ColumnRuns print;
  TileRisk risk;  // empty for skipped tiles
  bool skipped = false;  // the prefilter proved the tile hotspot-free
};

/// A tiled simulation with its per-tile hotspot lists kept separate.
/// merged() is exactly the row-major tile-order concatenation
/// simulate_hotspots returns.
///
/// A hotspot is one connected component of the risk region, wherever the
/// tile seams cut it. Each tile compares print and target inside its
/// core grown by half the optical margin; components wholly inside its
/// cell (TileGrid ownership over `extent`) are its own, and pieces that
/// reach a shared side are re-merged across tiles (the seam-completion
/// step, assemble_hotspots), each merged component owned by the tile
/// holding its marker centre (half-open). Components centred outside
/// `extent` are dropped. The result does not depend on the tile size.
struct HotspotTileSim {
  std::vector<Rect> tiles;  // TileGrid(extent, tile).cores(), row-major
  std::vector<std::vector<Hotspot>> per_tile;  // aligned with tiles
  std::size_t skipped = 0;  // tiles the prefilter proved hotspot-free

  std::vector<Hotspot> merged() const;
};

struct PrefilterCalibration;  // litho/prefilter.h

/// The prefilter calibration a tiled run with `options` uses; invalid
/// (never skips) under kOff, or when the prefilter is unprovable for this
/// model. Pure in (model, edge_tolerance, prefilter_window).
PrefilterCalibration resolve_litho_calibration(const HotspotSimOptions& options);

/// The density grid a snapshot run gates its tiles on: the snapshot's
/// memoized grid of `layer` at the tile pitch. Null under kOff (that
/// path reads nothing from the snapshot beyond the layer, as it
/// historically did) and when the snapshot lacks the layer.
const DensityMap* litho_density(const LayoutSnapshot& snap, LayerKey layer,
                                const HotspotSimOptions& options);

/// Simulates tile `ti` of `grid` (TileGrid(extent, options.tile)) over
/// `layer` under a "litho/tile" span: clips the layer to the tile's
/// window (the core expanded by the 6-sigma optical halo), simulates,
/// and compares print and target inside the core grown by half the
/// margin. A tile whose window covers only zero-density cells of
/// `density` (may be null) is provably empty and skips even the clip;
/// with a valid calibration `cal` (may be null), a tile the prefilter
/// proves hotspot-free skips the simulation. `pool` runs the tile's
/// inner parallelism.
///
/// The tile's output depends only on the layer clipped to its window.
/// `prev` is the tile's result before an edit that changed the layer
/// inside the window only within `changed`; when it keeps a print, only
/// the pixels the edit can reach re-render and splice into it
/// (print_window), and only a window around them is recompared. The
/// result is bit-identical to simulating the tile with no `prev`.
LithoTile simulate_litho_tile(const NormalizedRegion& layer,
                              const DensityMap* density, const TileGrid& grid,
                              std::size_t ti, const HotspotSimOptions& options,
                              ThreadPool* pool, const PrefilterCalibration* cal,
                              const LithoTile* prev = nullptr,
                              const Rect& changed = Rect::empty());

/// Seam completion over every tile of `grid` (`tiles` aligned with it,
/// none null): merges the tiles' edge pieces (per kind) into whole
/// components and returns each tile's hotspot list, its interior
/// hotspots plus the merged components it owns, in find_hotspots' order.
std::vector<std::vector<Hotspot>> assemble_hotspots(
    const TileGrid& grid, const std::vector<const LithoTile*>& tiles,
    Coord edge_tolerance);

/// Simulates every tile of `extent`. Tiles run concurrently on the
/// options pool; each tile's hotspot list is independent of the others
/// (core-ownership rule), so the structure is thread-count invariant.
HotspotTileSim simulate_hotspots_tiled(NormalizedRegion layer,
                                       const Rect& extent,
                                       const HotspotSimOptions& options);

/// Snapshot-native tiled simulation: additionally consults the
/// snapshot's memoized density grid (litho_density) as a zero-cost
/// first prefilter stage. Hotspot output is bit-identical to the region
/// overload.
HotspotTileSim simulate_hotspots_tiled(const LayoutSnapshot& snap,
                                       LayerKey layer, const Rect& extent,
                                       const HotspotSimOptions& options);

/// Simulates in tiles (bounded raster size) and returns all hotspots.
/// Tiles run concurrently on the pool; per-tile results are merged in
/// row-major tile order, so the list is identical to the serial scan.
std::vector<Hotspot> simulate_hotspots(NormalizedRegion layer,
                                       const Rect& extent,
                                       const OpticalModel& model,
                                       Coord edge_tolerance,
                                       Coord tile = 20000,
                                       ThreadPool* pool = nullptr);

}  // namespace dfm
