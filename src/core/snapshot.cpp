#include "core/snapshot.h"

#include "core/delta.h"
#include "core/parallel.h"
#include "core/telemetry.h"
#include "layout/library.h"

#include <stdexcept>
#include <utility>

namespace dfm {

std::vector<LayerKey> LayoutSnapshot::standard_flow_layers() {
  return {layers::kMetal1, layers::kMetal2, layers::kVia1,
          layers::kPoly,   layers::kContact, layers::kDiff};
}

std::size_t LayoutSnapshot::region_bytes(const Region& r) {
  return r.rects().size() * sizeof(Rect);
}

LayoutSnapshot::Derived::~Derived() {
  // The slot may outlive the snapshot that built it (shared with an
  // IncrementalSnapshot); whoever holds it last returns the bytes.
  if (budget) {
    budget->release(rtree_bytes + edges_bytes + density_bytes +
                    components_bytes);
  }
}

LayoutSnapshot::LayoutSnapshot(const Library& lib, std::uint32_t top,
                               std::vector<LayerKey> layer_keys,
                               ThreadPool* pool) {
  // One flatten task per layer; parallel_map keeps the results in key
  // order so the map contents are identical at any thread count.
  std::vector<Region> flats =
      parallel_map(pool, layer_keys.size(), [&](std::size_t i) {
        TELEM_SPAN_ARG("snapshot/flatten", i);
        return lib.flatten(top, layer_keys[i]);
      });
  for (std::size_t i = 0; i < layer_keys.size(); ++i) {
    layers_.emplace(layer_keys[i], std::move(flats[i]));
  }
  finalize();
}

LayoutSnapshot::LayoutSnapshot(const Library& lib, std::uint32_t top,
                               ThreadPool* pool)
    : LayoutSnapshot(lib, top, standard_flow_layers(), pool) {}

LayoutSnapshot::LayoutSnapshot(const LayerMap& layers) : layers_(layers) {
  finalize();
}

LayoutSnapshot::LayoutSnapshot(LayerMap&& layers) : layers_(std::move(layers)) {
  finalize();
}

LayoutSnapshot::LayoutSnapshot(std::shared_ptr<const SnapshotSource> source,
                               std::vector<LayerKey> layer_keys)
    : source_(std::move(source)) {
  for (const LayerKey k : layer_keys) layers_.emplace(k, Region{});
  keys_.reserve(layers_.size());
  for (const auto& [key, region] : layers_) {
    (void)region;
    keys_.push_back(key);
    // The source's index gives the exact bbox of the flattened layer, so
    // bbox() matches an eager build bit for bit without hydrating.
    bbox_ = bbox_.join(source_->layer_bbox(key));
    auto& slot = derived_[key];
    slot = std::make_shared<Derived>();
    slot->budget = budget_;
    geo_[key] = std::make_shared<GeoSlot>();  // hydrated = false
  }
}

LayoutSnapshot::~LayoutSnapshot() {
  for (const auto& [key, g] : geo_) {
    (void)key;
    if (g->hydrated) budget_->release(g->bytes);
  }
}

void LayoutSnapshot::finalize() {
  keys_.reserve(layers_.size());
  for (auto& [key, region] : layers_) {
    // The one normalization point for the whole flow: the view's
    // constructor materializes the canonical form.
    (void)NormalizedRegion{region};
    keys_.push_back(key);
    bbox_ = bbox_.join(region.bbox());
    auto& slot = derived_[key];  // create the memoization slot
    if (!slot) {
      slot = std::make_shared<Derived>();
      slot->budget = budget_;
    }
    auto& g = geo_[key];
    if (!g) g = std::make_shared<GeoSlot>();
    g->hydrated = g->ever = true;
    g->bytes = region_bytes(region);
    budget_->charge(g->bytes);
    budget_->count_hydration();
    TELEM_GAUGE_ADD("snapshot.geometry_bytes", g->bytes);
  }
}

LayoutSnapshot::Derived* LayoutSnapshot::derived_of(LayerKey k) const {
  const auto it = derived_.find(k);
  if (it == derived_.end()) {
    throw std::out_of_range("LayoutSnapshot: no layer " + to_string(k));
  }
  return it->second.get();
}

const Region& LayoutSnapshot::hydrated_region(LayerKey k) const {
  const auto git = geo_.find(k);
  if (git == geo_.end()) {
    throw std::out_of_range("LayoutSnapshot: no layer " + to_string(k));
  }
  GeoSlot& g = *git->second;
  // Lock-free fast path for the common already-resident case (every
  // read in an in-memory snapshot, and every read between evictions in
  // a budgeted one). Eviction only runs at quiescent points, so a
  // resident layer cannot be cleared out from under this read.
  if (g.hydrated.load(std::memory_order_acquire)) return layers_.at(k);
  std::lock_guard<std::mutex> lock(g.mu);
  Region& r = layers_.at(k);
  if (!g.hydrated.load(std::memory_order_relaxed)) {
    // Hydration is a pure function of the source: a re-hydrated layer is
    // canonically identical to its first hydration.
    const std::uint64_t t0 = telemetry::now_ns();
    Region fresh = source_->read_layer(k);
    (void)NormalizedRegion{fresh};
    r = std::move(fresh);
    telemetry::record_span("snapshot/hydrate", t0, telemetry::now_ns(),
                           r.rect_count());
    g.bytes = region_bytes(r);
    budget_->charge(g.bytes);
    if (g.ever) {
      budget_->count_rehydration();
    } else {
      budget_->count_hydration();
    }
    g.ever = true;
    // Publishes the region to lock-free readers of the fast path above.
    g.hydrated.store(true, std::memory_order_release);
    TELEM_GAUGE_ADD("snapshot.geometry_bytes", g.bytes);
  }
  return r;
}

const LayerMap& LayoutSnapshot::layers() const {
  for (const LayerKey k : keys_) (void)hydrated_region(k);
  return layers_;
}

NormalizedRegion LayoutSnapshot::layer(LayerKey k) const {
  if (layers_.count(k) == 0) return NormalizedRegion{};
  return NormalizedRegion{hydrated_region(k)};
}

Region LayoutSnapshot::read_layer_window(LayerKey k,
                                         const Rect& window) const {
  const auto git = geo_.find(k);
  if (git == geo_.end()) return Region{};
  if (source_ != nullptr) {
    const bool resident =
        git->second->hydrated.load(std::memory_order_acquire);
    // Eviction requires quiescence (no concurrent accessors), so the
    // residency answer cannot flip to false before the clip below.
    if (!resident) return source_->read_layer_window(k, window);
  }
  return hydrated_region(k).clipped(window);
}

const RTree& LayoutSnapshot::rtree(LayerKey k) const {
  Derived* d = derived_of(k);
  rtree_reads_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(d->rtree_mu);
    if (d->rtree_built) return d->rtree;
  }
  // Hydrate outside the product lock (locks never nest: geometry slot
  // first, then the product slot).
  const Region& reg = hydrated_region(k);
  std::lock_guard<std::mutex> lock(d->rtree_mu);
  if (!d->rtree_built) {
    if (d->rtree_ever) {
      d->budget->count_rehydration();
    } else {
      rtree_builds_.fetch_add(1, std::memory_order_relaxed);
    }
    const std::uint64_t t0 = telemetry::now_ns();
    d->rtree.build(reg.rects());
    telemetry::record_span("snapshot/rtree_build", t0, telemetry::now_ns(),
                           d->rtree.size());
    d->rtree_bytes = d->rtree.memory_bytes();
    d->budget->charge(d->rtree_bytes);
    TELEM_GAUGE_ADD("snapshot.rtree_bytes", d->rtree_bytes);
    d->rtree_built = d->rtree_ever = true;
  }
  return d->rtree;
}

const std::vector<BoundaryEdge>& LayoutSnapshot::edges(LayerKey k) const {
  Derived* d = derived_of(k);
  edge_reads_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(d->edges_mu);
    if (d->edges_built) return d->edges;
  }
  const Region& reg = hydrated_region(k);
  std::lock_guard<std::mutex> lock(d->edges_mu);
  if (!d->edges_built) {
    if (d->edges_ever) {
      d->budget->count_rehydration();
    } else {
      edge_builds_.fetch_add(1, std::memory_order_relaxed);
    }
    const std::uint64_t t0 = telemetry::now_ns();
    d->edges = boundary_edges(reg);
    telemetry::record_span("snapshot/edges_build", t0, telemetry::now_ns(),
                           d->edges.size());
    d->edges_bytes = d->edges.size() * sizeof(BoundaryEdge);
    d->budget->charge(d->edges_bytes);
    TELEM_GAUGE_ADD("snapshot.edge_bytes", d->edges_bytes);
    d->edges_built = d->edges_ever = true;
  }
  return d->edges;
}

const DensityMap& LayoutSnapshot::density(LayerKey k, Coord tile) const {
  Derived* d = derived_of(k);
  density_reads_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(d->density_mu);
    const auto it = d->density.find(tile);
    if (it != d->density.end()) return it->second;
  }
  const Region& reg = hydrated_region(k);
  std::lock_guard<std::mutex> lock(d->density_mu);
  const auto it = d->density.find(tile);
  if (it != d->density.end()) return it->second;
  if (d->density_ever[tile]) {
    d->budget->count_rehydration();
  } else {
    density_builds_.fetch_add(1, std::memory_order_relaxed);
    d->density_ever[tile] = true;
  }
  const std::uint64_t t0 = telemetry::now_ns();
  const DensityMap& built =
      d->density.emplace(tile, density_map(reg, bbox_, tile)).first->second;
  telemetry::record_span("snapshot/density_build", t0, telemetry::now_ns(),
                         built.values.size());
  const std::size_t bytes = built.values.size() * sizeof(double);
  d->density_bytes += bytes;
  d->budget->charge(bytes);
  TELEM_GAUGE_ADD("snapshot.density_bytes", bytes);
  return built;
}

LayerComponents LayerComponents::of(const Region& layer) {
  LayerComponents c;
  c.regions = layer.components();
  c.boxes.reserve(c.regions.size());
  // bbox() normalizes each region here, so units that read the labelling
  // on the pool (DPT conflict units, via clusters, nets) share it
  // without touching its lazy, mutable state.
  for (const Region& r : c.regions) c.boxes.push_back(r.bbox());
  c.index.build(c.boxes);
  return c;
}

std::size_t LayerComponents::memory_bytes() const {
  std::size_t bytes = boxes.size() * sizeof(Rect) + index.memory_bytes();
  for (const Region& r : regions) bytes += r.rects().size() * sizeof(Rect);
  return bytes;
}

const LayerComponents& LayoutSnapshot::components(LayerKey k) const {
  static const LayerComponents kNone;
  if (layers_.count(k) == 0) return kNone;
  Derived* d = derived_of(k);
  {
    std::lock_guard<std::mutex> lock(d->components_mu);
    if (d->components_built) return d->components;
  }
  const Region& reg = hydrated_region(k);
  std::lock_guard<std::mutex> lock(d->components_mu);
  if (!d->components_built) {
    if (d->components_ever) d->budget->count_rehydration();
    const std::uint64_t t0 = telemetry::now_ns();
    LayerComponents& c = d->components;
    c = LayerComponents::of(reg);
    telemetry::record_span("snapshot/components_build", t0,
                           telemetry::now_ns(), c.regions.size());
    d->components_bytes = c.memory_bytes();
    d->budget->charge(d->components_bytes);
    TELEM_GAUGE_ADD("snapshot.components_bytes", d->components_bytes);
    d->components_built = d->components_ever = true;
  }
  return d->components;
}

std::size_t LayoutSnapshot::evict_derived(LayerKey k) const {
  Derived* d = derived_of(k);
  std::size_t freed = 0;
  {
    std::lock_guard<std::mutex> lock(d->components_mu);
    if (d->components_built) {
      freed += d->components_bytes;
      d->budget->release(d->components_bytes);
      d->budget->count_eviction();
      d->components_bytes = 0;
      d->components = LayerComponents{};
      d->components_built = false;
    }
  }
  {
    std::lock_guard<std::mutex> lock(d->density_mu);
    if (!d->density.empty()) {
      freed += d->density_bytes;
      d->budget->release(d->density_bytes);
      d->budget->count_eviction();
      d->density_bytes = 0;
      d->density.clear();
    }
  }
  {
    std::lock_guard<std::mutex> lock(d->edges_mu);
    if (d->edges_built) {
      freed += d->edges_bytes;
      d->budget->release(d->edges_bytes);
      d->budget->count_eviction();
      d->edges_bytes = 0;
      std::vector<BoundaryEdge>().swap(d->edges);
      d->edges_built = false;
    }
  }
  {
    std::lock_guard<std::mutex> lock(d->rtree_mu);
    if (d->rtree_built) {
      freed += d->rtree_bytes;
      d->budget->release(d->rtree_bytes);
      d->budget->count_eviction();
      d->rtree_bytes = 0;
      d->rtree = RTree{};
      d->rtree_built = false;
    }
  }
  if (freed != 0) TELEM_GAUGE_ADD("snapshot.evicted_bytes", freed);
  return freed;
}

std::size_t LayoutSnapshot::evict_geometry(LayerKey k) const {
  if (source_ == nullptr) return 0;
  const auto git = geo_.find(k);
  if (git == geo_.end()) return 0;
  GeoSlot& g = *git->second;
  std::lock_guard<std::mutex> lock(g.mu);
  if (!g.hydrated) return 0;
  layers_.at(k) = Region{};
  const std::size_t freed = g.bytes;
  budget_->release(freed);
  budget_->count_eviction();
  g.bytes = 0;
  g.hydrated = false;
  if (freed != 0) TELEM_GAUGE_ADD("snapshot.evicted_bytes", freed);
  return freed;
}

std::size_t LayoutSnapshot::evict_to_budget(
    const std::vector<LayerKey>& keep) const {
  return evict_to_budget(keep, budget_->limit());
}

std::size_t LayoutSnapshot::evict_to_budget(const std::vector<LayerKey>& keep,
                                            std::size_t target) const {
  if (budget_->limit() == 0) return 0;
  const auto kept = [&keep](LayerKey k) {
    for (const LayerKey other : keep) {
      if (other == k) return true;
    }
    return false;
  };
  const auto over = [&] { return budget_->current() > target; };
  std::size_t freed = 0;
  // Deterministic order: each phase walks the (ordered) key map; the
  // loop stops the moment the target is satisfied, so a given (target,
  // access history) pair always evicts the same set.
  for (const LayerKey k : keys_) {
    if (!over()) return freed;
    if (!kept(k)) freed += evict_derived(k);
  }
  for (const LayerKey k : keys_) {
    if (!over()) return freed;
    if (!kept(k)) freed += evict_geometry(k);
  }
  for (const LayerKey k : keys_) {
    if (!over()) return freed;
    if (kept(k)) freed += evict_derived(k);
  }
  return freed;
}

SnapshotCacheStats LayoutSnapshot::cache_stats() const {
  SnapshotCacheStats s;
  s.rtree_reads = rtree_reads_.load(std::memory_order_relaxed);
  s.rtree_builds = rtree_builds_.load(std::memory_order_relaxed);
  s.edge_reads = edge_reads_.load(std::memory_order_relaxed);
  s.edge_builds = edge_builds_.load(std::memory_order_relaxed);
  s.density_reads = density_reads_.load(std::memory_order_relaxed);
  s.density_builds = density_builds_.load(std::memory_order_relaxed);
  return s;
}

IncrementalSnapshot::IncrementalSnapshot(const LayoutSnapshot& base,
                                         const LayoutDelta& delta) {
  // Charge to the same budget as the base, so a session's accounting is
  // continuous across its snapshot chain.
  budget_ = base.budget_;
  for (const LayerKey key : base.keys_) {
    // hydrated_region: a source-backed base materializes here — the
    // delta applies to concrete geometry.
    const Region& old_region = base.hydrated_region(key);
    const LayerDelta* d = delta.find(key);
    if (d == nullptr || d->empty()) {
      // Clean layer: the copy carries the base's canonical rects, so
      // finalize()'s normalization below is a no-op for it.
      layers_.emplace(key, old_region);
      continue;
    }
    // Dirty layer: boolean results are canonical by construction and
    // equal what a cold flatten+normalize of the edited design yields.
    layers_.emplace(key, (old_region - d->removed) | d->added);
    dirty_.emplace(key, d->added | d->removed);
  }
  // Layers the delta introduces that the base never had.
  for (const auto& [key, d] : delta.layers()) {
    if (d.empty() || layers_.count(key) != 0) continue;
    layers_.emplace(key, d.added);  // (empty - removed) | added
    dirty_.emplace(key, d.added | d.removed);
  }
  finalize();
  bbox_changed_ = bbox_ != base.bbox_;
  if (!bbox_changed_) {
    // Share the base's memoized products for clean layers. Density grids
    // anchor at bbox(), which is unchanged, so every shared product is
    // exactly what this snapshot would compute itself.
    for (const auto& [key, slot] : base.derived_) {
      if (dirty_.count(key) == 0 && derived_.count(key) != 0) {
        derived_[key] = slot;
      }
    }
  }
}

const Region& IncrementalSnapshot::dirty_region(LayerKey k) const {
  static const Region kClean;
  const auto it = dirty_.find(k);
  return it == dirty_.end() ? kClean : it->second;
}

bool IncrementalSnapshot::any_dirty(const std::vector<LayerKey>& on) const {
  for (const LayerKey k : on) {
    if (layer_dirty(k)) return true;
  }
  return false;
}

Rect IncrementalSnapshot::damage_bbox(const std::vector<LayerKey>& on,
                                      Coord halo) const {
  Rect box = Rect::empty();
  for (const LayerKey k : on) {
    const Region& d = dirty_region(k);
    if (!d.empty()) box = box.join(d.bbox());
  }
  return box.is_empty() ? box : box.expanded(halo);
}

}  // namespace dfm
