#include "core/snapshot.h"

#include "core/delta.h"
#include "core/parallel.h"
#include "core/telemetry.h"
#include "layout/library.h"

#include <algorithm>
#include <mutex>
#include <stdexcept>
#include <utility>

namespace dfm {

namespace {

// What a memoized value holds resident, and the item count its build
// span carries.
struct Footprint {
  std::size_t bytes;
  std::uint64_t items;
};

Footprint footprint(const Region& r) {
  return {r.rects().size() * sizeof(Rect), r.rects().size()};
}
Footprint footprint(const RTree& t) { return {t.memory_bytes(), t.size()}; }
Footprint footprint(const std::vector<BoundaryEdge>& e) {
  return {e.size() * sizeof(BoundaryEdge), e.size()};
}
Footprint footprint(const DensityMap& d) {
  return {d.values.size() * sizeof(double), d.values.size()};
}
Footprint footprint(const LayerComponents& c) {
  return {c.memory_bytes(), c.regions.size()};
}

// One memoized value of a layer: its geometry or one derived product.
// The first reader after construction or an eviction builds it under the
// mutex; every later reader takes the lock-free fast path. The release
// store of `built` publishes the value, and eviction only runs at
// quiescent points, so an acquire load of true keeps the value valid for
// the read. `ever` records a first build, so a rebuild counts as a
// budget re-hydration; `bytes` is charged to the budget while built.
template <class T>
struct Memo {
  Memo(const char* build_span, const char* bytes_gauge)
      : span(build_span), gauge(bytes_gauge) {}

  const char* const span;   // recorded around each build
  const char* const gauge;  // accumulates the bytes each build charges
  std::mutex mu;
  std::atomic<bool> built{false};
  bool ever = false;
  std::size_t bytes = 0;
  T value{};

  /// The value, built first when absent: `build()` returns it, and
  /// `first()` runs on a first build. Products build their layer's
  /// geometry inside `build`, so locks nest in one order only: a
  /// product's, then its layer's geometry's.
  template <class Build, class First>
  const T& get(SnapshotBudget& budget, Build&& build, First&& first) {
    if (built.load(std::memory_order_acquire)) return value;
    std::lock_guard<std::mutex> lock(mu);
    if (!built.load(std::memory_order_relaxed)) {
      if (ever) {
        budget.count_rehydration();
      } else {
        first();
      }
      const std::uint64_t t0 = telemetry::now_ns();
      T fresh = build();
      telemetry::record_span(span, t0, telemetry::now_ns(),
                             footprint(fresh).items);
      put(budget, std::move(fresh));
    }
    return value;
  }

  /// Stores `fresh` as the built value and charges it to `budget`.
  void put(SnapshotBudget& budget, T fresh) {
    value = std::move(fresh);
    bytes = footprint(value).bytes;
    budget.charge(bytes);
    telemetry::gauge(gauge).add(static_cast<double>(bytes));
    ever = true;
    built.store(true, std::memory_order_release);
  }

  /// Drops the value, returning its bytes to `budget` and adding them to
  /// `freed`. False when nothing was built.
  bool evict(SnapshotBudget& budget, std::size_t& freed) {
    std::lock_guard<std::mutex> lock(mu);
    if (!built.load(std::memory_order_relaxed)) return false;
    budget.release(bytes);
    freed += bytes;
    bytes = 0;
    value = T{};
    built.store(false, std::memory_order_relaxed);
    return true;
  }
};

}  // namespace

// One layer's state, shared by every snapshot of a chain that has the
// layer clean: each snapshot holds it by shared_ptr, so it is charged to
// the budget once, and whoever drops it last returns its bytes.
struct LayoutSnapshot::Layer {
  /// Source-backed: nothing resident until the first read.
  Layer(std::shared_ptr<SnapshotBudget> b,
        std::shared_ptr<const SnapshotSource> s, Rect box)
      : budget(std::move(b)), source(std::move(s)), bbox(box) {}
  /// Owns `region`, normalized here: the one normalization point for
  /// eagerly built and edited geometry.
  Layer(std::shared_ptr<SnapshotBudget> b, Region region)
      : budget(std::move(b)) {
    (void)NormalizedRegion{region};
    bbox = region.bbox();
    geometry.put(*budget, std::move(region));
    budget->count_hydration();
  }
  ~Layer() {
    std::size_t held =
        geometry.bytes + rtree.bytes + edges.bytes + components.bytes;
    for (const auto& tile_grid : density) held += tile_grid.second.bytes;
    budget->release(held);
  }

  std::shared_ptr<SnapshotBudget> budget;
  std::shared_ptr<const SnapshotSource> source;  // null: geometry owned
  Rect bbox = Rect::empty();  // of the geometry, known without hydrating
  Memo<Region> geometry{"snapshot/hydrate", "snapshot.geometry_bytes"};
  Memo<RTree> rtree{"snapshot/rtree_build", "snapshot.rtree_bytes"};
  Memo<std::vector<BoundaryEdge>> edges{"snapshot/edges_build",
                                        "snapshot.edge_bytes"};
  Memo<LayerComponents> components{"snapshot/components_build",
                                   "snapshot.components_bytes"};
  // A dirty layer's edit and the slot it was derived from, kept while the
  // labelling has not been built: the first build splices it from that
  // slot's labelling when it is resident there, and drops this either
  // way, so a chain of edits holds no history. Guarded by components.mu.
  struct Splice {
    std::shared_ptr<const Layer> base;
    std::vector<Rect> replaced, local;  // RegionEdit's
  };
  std::unique_ptr<Splice> splice;
  std::mutex density_mu;  // guards the map's nodes; each grid is a Memo
  std::map<Coord, Memo<DensityMap>> density;  // keyed by tile edge
};

std::vector<LayerKey> LayoutSnapshot::standard_flow_layers() {
  return {layers::kMetal1, layers::kMetal2, layers::kVia1,
          layers::kPoly,   layers::kContact, layers::kDiff};
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
    if (!has(layer_keys[i])) own(layer_keys[i], std::move(flats[i]));
  }
  index();
}

LayoutSnapshot::LayoutSnapshot(const Library& lib, std::uint32_t top,
                               ThreadPool* pool)
    : LayoutSnapshot(lib, top, standard_flow_layers(), pool) {}

LayoutSnapshot::LayoutSnapshot(const LayerMap& layers) {
  for (const auto& [key, region] : layers) own(key, region);
  index();
}

LayoutSnapshot::LayoutSnapshot(LayerMap&& layers) {
  for (auto& [key, region] : layers) own(key, std::move(region));
  index();
}

LayoutSnapshot::LayoutSnapshot(std::shared_ptr<const SnapshotSource> source,
                               std::vector<LayerKey> layer_keys) {
  for (const LayerKey k : layer_keys) {
    // The source's index gives the exact bbox of the flattened layer, so
    // bbox() matches an eager build bit for bit without hydrating.
    slots_.try_emplace(k, std::make_shared<Layer>(budget_, source,
                                                   source->layer_bbox(k)));
  }
  index();
}

LayoutSnapshot::~LayoutSnapshot() = default;

void LayoutSnapshot::own(LayerKey k, Region region) {
  slots_[k] = std::make_shared<Layer>(budget_, std::move(region));
}

void LayoutSnapshot::index() {
  keys_.reserve(slots_.size());
  for (const auto& [key, layer] : slots_) {
    keys_.push_back(key);
    bbox_ = bbox_.join(layer->bbox);
  }
}

LayoutSnapshot::Layer& LayoutSnapshot::slot(LayerKey k) const {
  const auto it = slots_.find(k);
  if (it == slots_.end()) {
    throw std::out_of_range("LayoutSnapshot: no layer " + to_string(k));
  }
  return *it->second;
}

const Region& LayoutSnapshot::hydrated_region(LayerKey k) const {
  Layer& l = slot(k);
  // An owned layer is built from construction and never evicted, so only
  // a source-backed one reaches the build. Hydration is a pure function
  // of the source: a re-hydrated layer is canonically identical to its
  // first hydration.
  return l.geometry.get(
      *l.budget,
      [&] {
        Region fresh = l.source->read_layer(k);
        (void)NormalizedRegion{fresh};
        return fresh;
      },
      [&] { l.budget->count_hydration(); });
}

LayerMap LayoutSnapshot::layers() const {
  LayerMap out;
  for (const LayerKey k : keys_) out.emplace(k, hydrated_region(k));
  return out;
}

NormalizedRegion LayoutSnapshot::layer(LayerKey k) const {
  if (!has(k)) return NormalizedRegion{};
  return NormalizedRegion{hydrated_region(k)};
}

Region LayoutSnapshot::read_layer_window(LayerKey k,
                                         const Rect& window) const {
  const auto it = slots_.find(k);
  if (it == slots_.end()) return Region{};
  const Layer& l = *it->second;
  // Eviction requires quiescence (no concurrent accessors), so the
  // residency answer cannot flip to false before the clip below.
  if (l.source != nullptr &&
      !l.geometry.built.load(std::memory_order_acquire)) {
    return l.source->read_layer_window(k, window);
  }
  return hydrated_region(k).clipped(window);
}

const RTree& LayoutSnapshot::rtree(LayerKey k) const {
  Layer& l = slot(k);
  rtree_reads_.fetch_add(1, std::memory_order_relaxed);
  return l.rtree.get(
      *l.budget, [&] { return RTree(hydrated_region(k).rects()); },
      [&] { rtree_builds_.fetch_add(1, std::memory_order_relaxed); });
}

const std::vector<BoundaryEdge>& LayoutSnapshot::edges(LayerKey k) const {
  Layer& l = slot(k);
  edge_reads_.fetch_add(1, std::memory_order_relaxed);
  return l.edges.get(
      *l.budget, [&] { return boundary_edges(hydrated_region(k)); },
      [&] { edge_builds_.fetch_add(1, std::memory_order_relaxed); });
}

const DensityMap& LayoutSnapshot::density(LayerKey k, Coord tile) const {
  Layer& l = slot(k);
  density_reads_.fetch_add(1, std::memory_order_relaxed);
  Memo<DensityMap>* grid = nullptr;
  {
    std::lock_guard<std::mutex> lock(l.density_mu);
    grid = &l.density
                .try_emplace(tile, "snapshot/density_build",
                             "snapshot.density_bytes")
                .first->second;
  }
  // Every snapshot sharing the slot has this bbox: an edit that moves it
  // gives clean layers fresh slots.
  return grid->get(
      *l.budget,
      [&] { return density_map(hydrated_region(k), bbox_, tile); },
      [&] { density_builds_.fetch_add(1, std::memory_order_relaxed); });
}

LayerComponents LayerComponents::of(const Region& layer) {
  LayerComponents c;
  // Components come back normalized, so units that read the labelling on
  // the pool (DPT conflict units, via clusters, nets) share it without
  // touching its lazy, mutable state.
  c.regions = layer.components();
  c.boxes.reserve(c.regions.size());
  for (const Region& r : c.regions) c.boxes.push_back(r.bbox());
  c.index.build(c.boxes);
  return c;
}

LayerComponents LayerComponents::spliced(const LayerComponents& base,
                                         const std::vector<Rect>& replaced,
                                         const std::vector<Rect>& local) {
  TELEM_SPAN("snapshot/components_splice");
  // A component holding a replaced rect dissolves. Every other one is a
  // component of the edited layer still: its rects are bands of it, and
  // the local rects lie within the replaced rects and the edit, none of
  // which meets it along an edge.
  std::vector<bool> dissolved(base.regions.size(), false);
  for (const Rect& r : replaced) {
    base.index.visit(r, [&](std::uint32_t c) {
      const std::vector<Rect>& rs = base.regions[c].rects();
      if (std::binary_search(rs.begin(), rs.end(), r)) dissolved[c] = true;
    });
  }
  // What is left of the dissolved components, with the local rects, is
  // the canonical form of the layer minus its kept components, so it
  // relabels as it stands.
  std::vector<Rect> loose = local;
  for (std::size_t c = 0; c < base.regions.size(); ++c) {
    if (!dissolved[c]) continue;
    for (const Rect& r : base.regions[c].rects()) {
      if (!std::binary_search(replaced.begin(), replaced.end(), r)) {
        loose.push_back(r);
      }
    }
  }
  std::sort(loose.begin(), loose.end());
  std::vector<Region> fresh = components_of(loose);

  // Merge the kept components and the fresh ones in component_less order.
  LayerComponents out;
  out.regions.reserve(base.regions.size() + fresh.size());
  out.boxes.reserve(base.regions.size() + fresh.size());
  const auto keep = [&](std::size_t c) {
    out.regions.push_back(base.regions[c]);
    out.boxes.push_back(base.boxes[c]);
  };
  std::size_t c = 0;
  for (Region& f : fresh) {
    const Rect box = f.bbox();
    for (; c < base.regions.size(); ++c) {
      if (dissolved[c]) continue;
      const Rect& kept = base.boxes[c];
      if (box != kept ? box < kept : f.rects() < base.regions[c].rects()) {
        break;
      }
      keep(c);
    }
    out.regions.push_back(std::move(f));
    out.boxes.push_back(box);
  }
  for (; c < base.regions.size(); ++c) {
    if (!dissolved[c]) keep(c);
  }
  out.index.build(out.boxes);
  return out;
}

std::size_t LayerComponents::memory_bytes() const {
  std::size_t bytes = boxes.size() * sizeof(Rect) + index.memory_bytes();
  for (const Region& r : regions) bytes += r.rects().size() * sizeof(Rect);
  return bytes;
}

const LayerComponents& LayoutSnapshot::components(LayerKey k) const {
  static const LayerComponents kNone;
  if (!has(k)) return kNone;
  Layer& l = slot(k);
  return l.components.get(
      *l.budget,
      [&] {
        const std::unique_ptr<Layer::Splice> edit = std::move(l.splice);
        // Read only while resident there: an evicted labelling is not
        // rehydrated for this, the whole-layer build below is as exact.
        if (edit != nullptr &&
            edit->base->components.built.load(std::memory_order_acquire)) {
          return LayerComponents::spliced(edit->base->components.value,
                                          edit->replaced, edit->local);
        }
        return LayerComponents::of(hydrated_region(k));
      },
      [] {});
}

bool LayoutSnapshot::evictable() const {
  for (const auto& [key, layer] : slots_) {
    (void)key;
    if (layer->source != nullptr) return true;
  }
  return false;
}

std::size_t LayoutSnapshot::evict_derived(LayerKey k) const {
  Layer& l = slot(k);
  SnapshotBudget& budget = *l.budget;
  std::size_t freed = 0;
  // One eviction per product, however many density grids it holds.
  if (l.components.evict(budget, freed)) budget.count_eviction();
  {
    std::lock_guard<std::mutex> lock(l.density_mu);
    bool any = false;
    for (auto& tile_grid : l.density) {
      any = tile_grid.second.evict(budget, freed) || any;
    }
    if (any) budget.count_eviction();
  }
  if (l.edges.evict(budget, freed)) budget.count_eviction();
  if (l.rtree.evict(budget, freed)) budget.count_eviction();
  if (freed != 0) TELEM_GAUGE_ADD("snapshot.evicted_bytes", freed);
  return freed;
}

std::size_t LayoutSnapshot::evict_geometry(LayerKey k) const {
  const auto it = slots_.find(k);
  if (it == slots_.end() || it->second->source == nullptr) return 0;
  Layer& l = *it->second;
  std::size_t freed = 0;
  if (!l.geometry.evict(*l.budget, freed)) return 0;
  l.budget->count_eviction();
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
  slots_ = base.slots_;  // every clean layer shares the base's slot
  for (const auto& [key, d] : delta.layers()) {
    if (d.empty()) continue;
    dirty_.emplace(key, d.added | d.removed);
    // A layer the base never had is (empty - removed) | added.
    if (!base.has(key)) {
      own(key, d.added);
      continue;
    }
    // Dirty layer: the edit spliced into the base's canonical rects,
    // which equals what a cold flatten+normalize of the edited design
    // yields.
    const std::shared_ptr<Layer>& was = base.slots_.at(key);
    RegionEdit edit =
        edit_region(base.hydrated_region(key), d.removed, d.added);
    own(key, std::move(edit.result));
    if (was->components.built.load(std::memory_order_acquire)) {
      slots_[key]->splice = std::make_unique<Layer::Splice>(
          was, std::move(edit.replaced), std::move(edit.local));
    }
  }
  index();
  bbox_changed_ = bbox_ != base.bbox_;
  if (!bbox_changed_) return;
  // Density grids anchor at bbox(), which moved: no clean layer's
  // products carry over, so each gets a fresh slot over the same
  // geometry — lazily re-read from its source, or copied when owned.
  for (auto& [key, layer] : slots_) {
    if (layer_dirty(key)) continue;
    if (layer->source != nullptr) {
      layer = std::make_shared<Layer>(budget_, layer->source, layer->bbox);
    } else {
      own(key, base.hydrated_region(key));
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
