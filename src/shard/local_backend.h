// In-process ShardBackend: N ShardWorkerSessions behind the same
// routing and stitching logic the remote backend uses, with no
// processes or sockets in the loop. This is the determinism and
// TSan/ASan workhorse — tests prove shard-count invariance against it
// directly, and the remote path adds only (exact) serialization on top.
#pragma once

#include "core/shard_backend.h"
#include "shard/plan.h"
#include "shard/worker.h"

#include <vector>

namespace dfm {
class Library;
}

namespace dfm::shard {

class LocalShardBackend : public ShardBackend {
 public:
  /// Partitions the flattened standard flow layers of `lib`/`top` into
  /// `shards` cores (ShardPlan::make over their joint bbox) and builds
  /// one worker session per core, each holding window-clipped layers.
  LocalShardBackend(const Library& lib, std::uint32_t top, int shards,
                    const ShardWorkerConfig& config);

  /// Same partition over already-flattened layers.
  LocalShardBackend(const LayerMap& layers, int shards,
                    const ShardWorkerConfig& config);

  const ShardPlan& plan() const { return plan_; }
  /// True once an edit escaped the plan extent: every dispatch then
  /// declines and the flow computes locally (still byte-identical; the
  /// shards just stop accelerating).
  bool degraded() const { return degraded_; }

  std::size_t shard_count() const override { return workers_.size(); }
  bool is_degraded() const override { return degraded_; }

  bool shard_drc(const std::vector<Rule>& rules, std::vector<Region>* bad2x,
                 std::vector<char>* handled) override;
  bool shard_match(std::size_t set_index,
                   const std::vector<AnchorWindow>& sites,
                   std::vector<std::vector<PatternMatch>>* out,
                   std::vector<char>* handled) override;
  bool shard_litho(const std::vector<Rect>& cores,
                   std::vector<TileRisk>* per_core,
                   std::vector<char>* skipped,
                   std::vector<char>* handled) override;
  void shard_apply(const LayoutDelta& delta) override;

 private:
  void build(const LayerMap& layers, int shards);

  ShardWorkerConfig config_;
  ShardPlan plan_;
  std::vector<ShardWorkerSession> workers_;
  bool degraded_ = false;
};

/// Shared routing rules (used by both backends and the tests):
/// the shard that owns a litho tile — the one whose core holds the tile
/// center, provided its window covers the 6-sigma simulation window —
/// or -1 when none qualifies.
int route_litho_tile(const ShardPlan& plan, const Rect& tile_core,
                     Coord sigma);
/// The shard that owns a pattern site — core holds the anchor, window
/// covers the capture window — or -1.
int route_pattern_site(const ShardPlan& plan, const AnchorWindow& site);

}  // namespace dfm::shard
