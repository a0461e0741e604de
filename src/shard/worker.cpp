#include "shard/worker.h"

#include "core/delta.h"
#include "core/parallel.h"
#include "core/snapshot_source.h"
#include "core/telemetry.h"
#include "drc/engine.h"
#include "litho/fft.h"
#include "litho/prefilter.h"

#include <utility>

namespace dfm::shard {

ShardWorkerSession::ShardWorkerSession(ShardWorkerConfig config, Rect core,
                                       Rect window, LayerMap window_layers)
    : config_(config),
      core_(core),
      window_(window),
      layers_(std::move(window_layers)) {
  if (config_.threads != 1) pool_ = std::make_unique<ThreadPool>(config_.threads);
}

ShardWorkerSession::ShardWorkerSession(ShardWorkerConfig config, Rect core,
                                       Rect window,
                                       const SnapshotSource& source)
    : ShardWorkerSession(config, core, window, LayerMap{}) {
  for (const LayerKey k : LayoutSnapshot::standard_flow_layers()) {
    layers_.emplace(k, source.read_layer_window(k, window_));
  }
}

ShardWorkerSession::~ShardWorkerSession() = default;
ShardWorkerSession::ShardWorkerSession(ShardWorkerSession&&) noexcept = default;
ShardWorkerSession& ShardWorkerSession::operator=(ShardWorkerSession&&) noexcept =
    default;

const LayoutSnapshot& ShardWorkerSession::snapshot() {
  if (!snap_) {
    // Copy: layers_ stays the mutable authority across edits while the
    // snapshot normalizes its own view.
    snap_ = std::make_unique<LayoutSnapshot>(LayerMap(layers_));
  }
  return *snap_;
}

const DrcPlusEngine& ShardWorkerSession::engine() {
  if (!engine_) {
    engine_ = std::make_unique<DrcPlusEngine>(DrcPlusDeck::standard(config_.tech));
  }
  return *engine_;
}

Region ShardWorkerSession::drc_width_bad2x(const Rule& rule) {
  TELEM_SPAN("shard_worker/drc");
  const LayoutSnapshot& snap = snapshot();
  if (!snap.has(rule.layer)) return {};
  const Region bad = min_width_bad2x(snap.layer(rule.layer).region(),
                                     rule.value);
  const Rect core2x{core_.lo.x * 2, core_.lo.y * 2, core_.hi.x * 2,
                    core_.hi.y * 2};
  return bad.clipped(core2x);
}

std::vector<std::vector<PatternMatch>> ShardWorkerSession::match(
    std::size_t set_index, const std::vector<AnchorWindow>& sites) {
  TELEM_SPAN_ARG("shard_worker/match", set_index);
  const LayoutSnapshot& snap = snapshot();
  const DrcPlusEngine& eng = engine();
  const PatternRuleSet& set = eng.deck().pattern_sets.at(set_index);
  const std::vector<CapturedPattern> captured =
      parallel_map(pool_.get(), sites.size(), [&](std::size_t i) {
        return capture_window_at(snap, set.capture_layers, sites[i]);
      });
  return eng.matcher(set_index).scan_per_window(captured, pool_.get());
}

TileRisk ShardWorkerSession::litho_tile(const Rect& tile_core,
                                        bool& skipped) {
  TELEM_SPAN("shard_worker/litho");
  const LayoutSnapshot& snap = snapshot();
  HotspotSimOptions sim{pool_.get()};
  sim.model = config_.model;
  sim.edge_tolerance = config_.litho_edge_tolerance;
  sim.tile = config_.litho_tile;
  sim.fast = config_.litho_fast;
  if (kernels_ == nullptr) kernels_ = std::make_shared<KernelSpectrumCache>();
  sim.kernels = kernels_;
  if (cal_ == nullptr) {
    cal_ = std::make_unique<PrefilterCalibration>(
        resolve_litho_calibration(sim));
  }
  bool skip = false;
  TileRisk out = simulate_litho_tile(
      snap.layer(layers::kMetal1), tile_core, sim, pool_.get(),
      cal_->valid ? cal_.get() : nullptr, skip);
  skipped = skip;
  return out;
}

void ShardWorkerSession::apply(const LayoutDelta& delta) {
  TELEM_SPAN("shard_worker/apply");
  LayoutDelta clipped;
  for (const auto& [k, ld] : delta.layers()) {
    // Clipping distributes over the edit algebra: ((L - R) | A) & W ==
    // ((L & W) - R) | (A & W), so the windowed layer stays exactly the
    // edited design clipped to the window.
    if (!ld.added.empty()) clipped.add(k, ld.added.clipped(window_));
    if (!ld.removed.empty()) clipped.remove(k, ld.removed);
  }
  clipped.apply(layers_);
  snap_.reset();
}

}  // namespace dfm::shard
