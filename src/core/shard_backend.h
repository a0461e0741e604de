// The seam between the flow and the distributed shard subsystem. A
// ShardBackend is a pluggable provider of the three unit-parallel,
// window-local computations the flow can outsource to spatial shards:
// min-width DRC morphology, pattern capture+match per anchor site, and
// litho tile simulation. Everything else (spacing/area/enclosure rules,
// connectivity, scoring, caching, staleness) stays on the coordinator,
// which keeps the full snapshot — so a backend only ever accelerates
// work whose result is provably byte-identical to the local path.
//
// The contract for every dispatch method: the backend may decline a unit
// (handled[i] stays false) and the flow computes it locally; a unit it
// does handle must carry exactly the bytes the local computation would
// produce. Implementations live in src/shard/ (LocalShardBackend for
// in-process testing, RemoteShardBackend speaking protocol v4 to
// `dfmkit shard-serve` workers); the flow only sees this interface.
#pragma once

#include "drc/rules.h"
#include "geometry/region.h"
#include "litho/litho.h"
#include "pattern/capture.h"
#include "pattern/matcher.h"

#include <cstddef>
#include <vector>

namespace dfm {

class LayoutDelta;  // core/delta.h
struct TileRisk;    // core/hotspot_flow.h

class ShardBackend {
 public:
  virtual ~ShardBackend() = default;

  /// Deployment introspection for status surfaces (the service "shard"
  /// op, CLI banners). Number of spatial shards behind this backend.
  virtual std::size_t shard_count() const = 0;
  /// True once the backend stopped accelerating for good (an edit
  /// escaped the partition extent, a worker died mid-batch). Reports
  /// stay byte-identical — the flow just computes everything locally.
  virtual bool is_degraded() const = 0;

  /// Distributed min-width morphology. `rules` are the stale kMinWidth
  /// rules of this run; for each rule the backend may fill bad2x[i] with
  /// the whole-layer 2x-grid bad region (the union of every shard's
  /// core-clipped min_width_bad2x) and set handled[i]. The flow folds a
  /// handled region into markers itself via min_width_markers, so the
  /// violations are byte-equal to check_min_width by construction.
  /// Returns false to decline the whole batch (vectors untouched).
  virtual bool shard_drc(const std::vector<Rule>& rules,
                         std::vector<Region>* bad2x,
                         std::vector<char>* handled) = 0;

  /// Distributed pattern capture+match for pattern set `set_index` of
  /// the standard deck. `sites` are the stale anchor sites; a handled
  /// site's out[i] must equal matcher(set_index).scan_per_window over
  /// the site's captured window. Sites whose window escapes the owning
  /// shard's halo are declined. Returns false to decline the batch.
  virtual bool shard_match(std::size_t set_index,
                           const std::vector<AnchorWindow>& sites,
                           std::vector<std::vector<PatternMatch>>* out,
                           std::vector<char>* handled) = 0;

  /// Distributed litho tile simulation. `cores` are the stale tile
  /// cores (make_tiles order); a handled core's per_core[i] receives
  /// the core's risk state (own hotspots and seam pieces) and skipped[i]
  /// the prefilter outcome, exactly as simulate_litho_tile reports them. A core whose 6-sigma
  /// simulation window escapes every shard window is declined
  /// (handled[i] stays false) and the flow simulates it locally.
  /// Returns false to decline the whole batch.
  virtual bool shard_litho(const std::vector<Rect>& cores,
                           std::vector<TileRisk>* per_core,
                           std::vector<char>* skipped,
                           std::vector<char>* handled) = 0;

  /// Incremental edit: apply `delta` to every shard whose window
  /// intersects it, keeping worker geometry in lockstep with the
  /// coordinator session. The coordinator's damage model is the sole
  /// authority on staleness; workers just mirror geometry.
  virtual void shard_apply(const LayoutDelta& delta) = 0;
};

}  // namespace dfm
