// The shard compute node: one spatial shard's resident state and the
// three unit computations the coordinator outsources to it. A worker
// session holds each flow layer clipped to its hydration window and
// answers min-width morphology, pattern capture+match, and litho tile
// simulation for units whose influence region lies inside that window —
// producing exactly the bytes the coordinator's in-process engines
// would (see core/shard_backend.h for the contract).
//
// The same class backs both deployment shapes: LocalShardBackend holds
// N of these in-process (deterministic, TSan-friendly tests), and the
// `dfmkit shard-serve` worker wraps one behind the protocol-v4 framed
// ops (src/shard/shard_server.h).
//
// Workers are pure compute: no FlowCaches, no staleness tracking. The
// coordinator owns all caching and decides which units are stale; a
// worker just mirrors geometry (apply) and evaluates units on demand.
#pragma once

#include "core/drc_plus.h"
#include "core/hotspot_flow.h"
#include "core/snapshot.h"
#include "drc/rules.h"
#include "layout/tech.h"
#include "pattern/capture.h"
#include "pattern/matcher.h"

#include <memory>
#include <vector>

namespace dfm {
class LayoutDelta;
class SnapshotSource;
}  // namespace dfm

namespace dfm::shard {

/// Everything a worker needs to reproduce the coordinator's engines,
/// serialized over shard_open for the remote shape. All fields are pure
/// inputs of deterministic constructions (rule deck, matchers, litho
/// calibration), so coordinator and worker agree byte for byte.
struct ShardWorkerConfig {
  Tech tech;
  OpticalModel model;
  Coord litho_tile = 20000;
  Coord litho_edge_tolerance = 12;
  LithoFastMode litho_fast = LithoFastMode::kAuto;
  unsigned threads = 1;  // the worker's own compute pool (1 = serial)
};

class ShardWorkerSession {
 public:
  /// Takes ownership of `window_layers`: each flow layer already
  /// clipped to `window` (half-open).
  ShardWorkerSession(ShardWorkerConfig config, Rect core, Rect window,
                     LayerMap window_layers);

  /// Hydrates the window from a snapshot source
  /// (SnapshotSource::read_layer_window per standard flow layer).
  ShardWorkerSession(ShardWorkerConfig config, Rect core, Rect window,
                     const SnapshotSource& source);

  // Out of line: members hold types incomplete in this header.
  ~ShardWorkerSession();
  ShardWorkerSession(ShardWorkerSession&&) noexcept;
  ShardWorkerSession& operator=(ShardWorkerSession&&) noexcept;

  const Rect& core() const { return core_; }
  const Rect& window() const { return window_; }
  const ShardWorkerConfig& config() const { return config_; }

  /// min_width_bad2x of the windowed layer, clipped to the core on the
  /// 2x grid. Unioned across all shards this is exactly the whole-layer
  /// bad region (the morphology's influence radius fits in the halo).
  Region drc_width_bad2x(const Rule& rule);

  /// Captures and scans `sites` for pattern set `set_index` of the
  /// standard deck. Every site's window must lie inside this worker's
  /// window (the coordinator routes by anchor ownership and checks
  /// containment before dispatch).
  std::vector<std::vector<PatternMatch>> match(
      std::size_t set_index, const std::vector<AnchorWindow>& sites);

  /// One litho simulation tile (simulate_litho_tile over the windowed
  /// m1); `tile_core.expanded(6*sigma)` must lie inside the window.
  TileRisk litho_tile(const Rect& tile_core, bool& skipped);

  /// Applies an edit, clipped to the window: layer <- (layer - removed)
  /// | (added & window). Derived state (snapshot, views) rebuilds
  /// lazily on the next unit.
  void apply(const LayoutDelta& delta);

 private:
  const LayoutSnapshot& snapshot();
  const DrcPlusEngine& engine();

  ShardWorkerConfig config_;
  Rect core_;
  Rect window_;
  LayerMap layers_;
  std::unique_ptr<LayoutSnapshot> snap_;
  std::unique_ptr<DrcPlusEngine> engine_;
  std::unique_ptr<ThreadPool> pool_;  // null when config_.threads == 1
  std::shared_ptr<KernelSpectrumCache> kernels_;
  std::unique_ptr<PrefilterCalibration> cal_;  // resolved on first tile
};

}  // namespace dfm::shard
