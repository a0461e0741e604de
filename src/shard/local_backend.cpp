#include "shard/local_backend.h"

#include "core/delta.h"
#include "core/telemetry.h"
#include "layout/library.h"

#include <map>
#include <utility>

namespace dfm::shard {

int route_litho_tile(const ShardPlan& plan, const Rect& tile_core,
                     Coord sigma) {
  const Rect needed = tile_core.expanded(6 * sigma);
  const int own = plan.owner(tile_core.center());
  if (own >= 0 &&
      plan.windows[static_cast<std::size_t>(own)].contains(needed)) {
    return own;
  }
  // Center-routing can miss only when the plan's halo is undersized for
  // this tile grid (e.g. a changed litho_tile); any covering window is
  // equally correct, so take the first.
  for (std::size_t i = 0; i < plan.windows.size(); ++i) {
    if (plan.windows[i].contains(needed)) return static_cast<int>(i);
  }
  return -1;
}

int route_pattern_site(const ShardPlan& plan, const AnchorWindow& site) {
  const int own = plan.owner(site.anchor);
  if (own < 0) return -1;
  if (!plan.windows[static_cast<std::size_t>(own)].contains(site.window)) {
    return -1;
  }
  return own;
}

LocalShardBackend::LocalShardBackend(const Library& lib, std::uint32_t top,
                                     int shards,
                                     const ShardWorkerConfig& config)
    : config_(config) {
  LayerMap layers;
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    layers.emplace(k, lib.flatten(top, k));
  }
  build(layers, shards);
}

LocalShardBackend::LocalShardBackend(const LayerMap& layers, int shards,
                                     const ShardWorkerConfig& config)
    : config_(config) {
  build(layers, shards);
}

void LocalShardBackend::build(const LayerMap& layers, int shards) {
  Rect bbox = Rect::empty();
  for (const auto& [k, r] : layers) {
    bbox = bbox.join(r.bbox());
  }
  plan_ = ShardPlan::make(bbox, shards, shard_halo(config_.tech,
                                                   config_.litho_tile,
                                                   config_.model.sigma));
  workers_.reserve(plan_.size());
  for (std::size_t s = 0; s < plan_.size(); ++s) {
    LayerMap clipped;
    for (const auto& [k, r] : layers) {
      clipped.emplace(k, r.clipped(plan_.windows[s]));
    }
    workers_.emplace_back(config_, plan_.cores[s], plan_.windows[s],
                          std::move(clipped));
  }
}

bool LocalShardBackend::shard_drc(const std::vector<Rule>& rules,
                                  std::vector<Region>* bad2x,
                                  std::vector<char>* handled) {
  if (degraded_) return false;
  TELEM_SPAN("shard/drc_local");
  for (std::size_t i = 0; i < rules.size(); ++i) {
    Region stitched;
    for (ShardWorkerSession& w : workers_) {
      // Named: rects() references the Region's storage, and a temporary
      // would die before the loop body ran.
      const Region piece = w.drc_width_bad2x(rules[i]);
      for (const Rect& b : piece.rects()) {
        stitched.add(b);
      }
    }
    (*bad2x)[i] = std::move(stitched);
    (*handled)[i] = 1;
  }
  return true;
}

bool LocalShardBackend::shard_match(std::size_t set_index,
                                    const std::vector<AnchorWindow>& sites,
                                    std::vector<std::vector<PatternMatch>>* out,
                                    std::vector<char>* handled) {
  if (degraded_) return false;
  TELEM_SPAN_ARG("shard/match_local", set_index);
  std::map<int, std::vector<std::size_t>> per_worker;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    const int w = route_pattern_site(plan_, sites[i]);
    if (w >= 0) per_worker[w].push_back(i);
  }
  for (const auto& [w, idx] : per_worker) {
    std::vector<AnchorWindow> batch;
    batch.reserve(idx.size());
    for (const std::size_t i : idx) batch.push_back(sites[i]);
    std::vector<std::vector<PatternMatch>> got =
        workers_[static_cast<std::size_t>(w)].match(set_index, batch);
    for (std::size_t j = 0; j < idx.size(); ++j) {
      (*out)[idx[j]] = std::move(got[j]);
      (*handled)[idx[j]] = 1;
    }
  }
  return true;
}

bool LocalShardBackend::shard_litho(const std::vector<Rect>& cores,
                                    std::vector<TileRisk>* per_core,
                                    std::vector<char>* skipped,
                                    std::vector<char>* handled) {
  if (degraded_) return false;
  TELEM_SPAN("shard/litho_local");
  for (std::size_t i = 0; i < cores.size(); ++i) {
    const int w = route_litho_tile(plan_, cores[i], config_.model.sigma);
    if (w < 0) continue;
    bool skip = false;
    (*per_core)[i] =
        workers_[static_cast<std::size_t>(w)].litho_tile(cores[i], skip);
    (*skipped)[i] = skip ? 1 : 0;
    (*handled)[i] = 1;
  }
  return true;
}

void LocalShardBackend::shard_apply(const LayoutDelta& delta) {
  TELEM_SPAN("shard/apply_local");
  Rect added = Rect::empty();
  Rect touched = Rect::empty();
  for (const auto& [k, ld] : delta.layers()) {
    if (!ld.added.empty()) added = added.join(ld.added.bbox());
    if (!ld.added.empty()) touched = touched.join(ld.added.bbox());
    if (!ld.removed.empty()) touched = touched.join(ld.removed.bbox());
  }
  // Growth past the plan extent leaves geometry no core owns; stop
  // accelerating (the flow recomputes locally, byte-identically).
  if (!added.is_empty() && !plan_.extent.contains(added)) degraded_ = true;
  if (degraded_) return;
  for (ShardWorkerSession& w : workers_) {
    if (touched.is_empty() || w.window().overlaps(touched)) w.apply(delta);
  }
}

}  // namespace dfm::shard
