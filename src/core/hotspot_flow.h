// Hotspot classification system, after the automatic hotspot
// classification papers: simulate a training design, harvest hotspot
// snippets, cluster them into classes, and use the class representatives
// as a geometric match deck to find the same weak constructs in new
// designs without running simulation there.
#pragma once

#include "core/engine_api.h"
#include "geometry/normalized_region.h"
#include "litho/litho.h"
#include "pattern/clustering.h"

#include <memory>
#include <string>
#include <vector>

namespace dfm {

class LayoutSnapshot;  // core/snapshot.h

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

  /// Convolution strategy per tile (litho fast path). kOff restores the
  /// historical behaviour exactly: direct convolution, no prefilter.
  LithoFastMode fast = LithoFastMode::kAuto;
  /// Conservative prefilter: tiles whose geometry provably cannot print
  /// a hotspot anywhere in `prefilter_window` bypass simulation
  /// entirely. Only removes provably-empty tile results, so the merged
  /// hotspot set is unchanged. Forced off by fast == kOff.
  bool prefilter = true;
  /// Process window the prefilter must be safe across; empty means
  /// default_process_window() (litho/prefilter.h).
  std::vector<ProcessCondition> prefilter_window;
  /// Shared kernel-spectrum memo for the FFT path; null falls back to
  /// the process-global cache. FlowCaches keeps one per session.
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
};

/// What a tile's compare keeps for later runs: the hotspots of risk
/// components that lie wholly inside its cell (pinches, then bridges,
/// each in bbox order) and the pieces that reach a shared side.
struct TileRisk {
  std::vector<Hotspot> interior;
  std::vector<RiskPiece> edges;
};

/// A tiled simulation with its per-tile hotspot lists kept separate —
/// the splice unit of incremental litho. merged() is exactly the
/// row-major tile-order concatenation simulate_hotspots returns.
///
/// A hotspot is one connected component of the risk region, wherever the
/// tile seams cut it. Each tile compares print and target inside its
/// core grown by half the optical margin; components wholly inside its
/// cell (TileGrid ownership over `extent`) are its own, and pieces that
/// reach a shared side are re-merged across tiles (the seam-completion
/// step), each merged component owned by the tile holding its marker
/// centre (half-open). Components centred outside `extent` are dropped.
/// The result does not depend on the tile size.
///
/// A tile's print and risk state are immutable once computed: a
/// re-simulation shares every clean tile's state with the simulation it
/// started from instead of copying it.
struct HotspotTileSim {
  Rect extent;
  Coord tile = 0;
  std::vector<Rect> tiles;  // TileGrid(extent, tile).cores(), row-major
  std::vector<std::vector<Hotspot>> per_tile;  // aligned with tiles
  /// Aligned with tiles: each directly convolved tile's print as runs of
  /// its window's pixel grid (print_window), which an edit splices into
  /// instead of re-rendering the tile. Null for tiles the density gate
  /// or the prefilter skipped, and for FFT-convolved tiles.
  std::vector<std::shared_ptr<const ColumnRuns>> prints;
  /// Aligned with tiles: each tile's risk state, which a later edit's
  /// windowed compare splices into (and the seam completion reads);
  /// empty for skipped tiles.
  std::vector<std::shared_ptr<const TileRisk>> risk;
  std::size_t recomputed = 0;  // tiles simulated by the producing call
  std::size_t skipped = 0;  // tiles the prefilter proved hotspot-free

  std::vector<Hotspot> merged() const;
  /// Tile `ti`'s print, or no columns when it keeps none.
  const ColumnRuns& print(std::size_t ti) const;
  /// True when this simulation's tile grid is the one `extent` and `tile`
  /// make, so an incremental run can carry its tiles over.
  bool same_grid(const Rect& extent, Coord tile) const;
};

/// A tile an edit makes stale, and the part of the edit its simulation
/// window sees.
struct StaleTile {
  std::size_t index;  // into HotspotTileSim::tiles
  Rect changed;       // bbox of the dirty region inside the tile's window
};

/// The tiles whose simulation window — the core expanded by the 6-sigma
/// optical halo — `dirty` touches, in tile order. Every other tile's
/// output is unchanged by the edit (it depends only on the layer clipped
/// to its window).
std::vector<StaleTile> stale_litho_tiles(const std::vector<Rect>& tiles,
                                         const HotspotSimOptions& options,
                                         const Region& dirty);

struct PrefilterCalibration;  // litho/prefilter.h

/// The prefilter calibration a tiled run with `options` uses; invalid
/// (never skips) when the prefilter is off, forced off by kOff, or
/// unprovable for this model. Pure in (model, edge_tolerance,
/// prefilter_window).
PrefilterCalibration resolve_litho_calibration(const HotspotSimOptions& options);

/// Simulates every tile of `extent`. Tiles run concurrently on the
/// options pool; each tile's hotspot list is independent of the others
/// (core-ownership rule), so the structure is thread-count invariant.
HotspotTileSim simulate_hotspots_tiled(NormalizedRegion layer,
                                       const Rect& extent,
                                       const HotspotSimOptions& options);

/// Snapshot-native tiled simulation: additionally consults the
/// snapshot's memoized density grid (at the simulation tile pitch) as a
/// zero-cost first prefilter stage — tiles whose halo window covers
/// only zero-density cells are provably empty and skip even the clip.
/// Hotspot output is bit-identical to the region overload.
HotspotTileSim simulate_hotspots_tiled(const LayoutSnapshot& snap,
                                       LayerKey layer, const Rect& extent,
                                       const HotspotSimOptions& options);

/// Re-simulates only the stale tiles (stale_litho_tiles); every other
/// tile's state is shared with `prev`, which is only read. A stale tile
/// with a cached print re-renders only the pixels the edit can reach and
/// splices them in (print_window). A tile's output depends only on the
/// layer clipped to its window, so the result is bit-identical to
/// simulate_hotspots_tiled over the edited layer. Falls back to a full
/// run when extent or tile size changed.
HotspotTileSim resimulate_hotspots(NormalizedRegion layer, const Rect& extent,
                                   const HotspotSimOptions& options,
                                   const HotspotTileSim& prev,
                                   const Region& dirty);

/// Snapshot-native incremental re-simulation: stale tiles go through the
/// same density-gate + prefilter + convolution path as the snapshot
/// overload of simulate_hotspots_tiled, so a splice is bit-identical to
/// the cold snapshot run under every LithoFastMode.
HotspotTileSim resimulate_hotspots(const LayoutSnapshot& snap, LayerKey layer,
                                   const Rect& extent,
                                   const HotspotSimOptions& options,
                                   const HotspotTileSim& prev,
                                   const Region& dirty);

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
