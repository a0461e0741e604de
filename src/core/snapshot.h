// LayoutSnapshot: the immutable, cached analysis substrate every DFM
// pass shares. Built once per flow from a Library + top cell (or from an
// existing LayerMap, or lazily over a SnapshotSource), it holds
// canonically-normalized layer regions — so the "call rects() before
// fan-out" ritual disappears by construction — plus memoized,
// thread-safe derived products (per-layer R-tree, boundary edge list,
// density grids, connected components, joint bbox) that are computed at
// most once per flow instead of once per pass.
//
// Each layer is one shared slot: its geometry, its four memoized
// products, the budget they are charged to and the source the geometry
// rehydrates from (none when the slot owns its geometry). Snapshots
// derived by an edit share the slots of the layers it leaves clean, so a
// clean layer is stored, built and charged once for the whole chain.
//
// Out-of-core mode: a snapshot built over a SnapshotSource starts with
// no geometry resident. Layer regions hydrate on first access (from an
// mmap-backed streaming reader or a Library),
// and both geometry and derived products can be evicted again under a
// SnapshotBudget and re-hydrated later. Hydration is deterministic — a
// re-hydrated layer is canonically identical to its first hydration — so
// analysis results are bit-identical at any budget. Eviction must only
// happen at quiescent points (pass boundaries): outstanding
// NormalizedRegion views and derived-product references are non-owning.
//
// Thread safety: bbox and the key set are finalized in the constructor;
// geometry and every derived product initialize under their own mutex,
// and once built are read lock-free, so concurrent first access from any
// number of passes — through any snapshot sharing the slot — is
// race-free and every caller sees the same object. Cache accounting
// (reads vs builds) uses relaxed atomics and is deterministic for a
// deterministic call pattern, which the flow tracer relies on; a rebuild
// after an eviction counts as a budget re-hydration, NOT a build, so the
// build counters (and the canonical flow report they feed) are identical
// whether or not anything was ever evicted.
//
// A snapshot built eagerly owns its geometry: the source Library may be
// destroyed after construction. A source-backed snapshot keeps its
// source alive for the snapshot's lifetime.
#pragma once

#include "core/snapshot_source.h"
#include "geometry/edge_ops.h"
#include "geometry/normalized_region.h"
#include "geometry/rtree.h"
#include "layout/density.h"
#include "layout/layer_map.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

namespace dfm {

class Library;
class LayoutDelta;  // core/delta.h
class ThreadPool;   // core/parallel.h

/// Cumulative cache accounting for one snapshot. A "read" is any derived-
/// product access; a "build" is the one that actually computed it for the
/// first time, so hits = reads - builds. Rebuilds after an eviction are
/// counted by the SnapshotBudget as re-hydrations, not here.
struct SnapshotCacheStats {
  std::uint64_t rtree_reads = 0, rtree_builds = 0;
  std::uint64_t edge_reads = 0, edge_builds = 0;
  std::uint64_t density_reads = 0, density_builds = 0;

  std::uint64_t reads() const {
    return rtree_reads + edge_reads + density_reads;
  }
  std::uint64_t builds() const {
    return rtree_builds + edge_builds + density_builds;
  }
  std::uint64_t hits() const { return reads() - builds(); }

  SnapshotCacheStats operator-(const SnapshotCacheStats& o) const {
    return {rtree_reads - o.rtree_reads,     rtree_builds - o.rtree_builds,
            edge_reads - o.edge_reads,       edge_builds - o.edge_builds,
            density_reads - o.density_reads, density_builds - o.density_builds};
  }
};

/// A layer's connected components in Region::components() order
/// (component_less), with their bboxes and an R-tree over those bboxes.
/// The one component labelling every pass shares: DRC spacing and area,
/// recommended rules, pattern anchors, DPT nodes, CAA shorts, the
/// vertices of net extraction and the vias of via doubling, and the
/// global net identity the spatial tile units need (a tile cannot see
/// whether two pieces connect outside it).
///
/// An edited layer's labelling is spliced from the labelling before the
/// edit when that one is resident: only the components the edit reaches
/// are relabelled, and the result equals of() of the edited layer.
struct LayerComponents {
  std::vector<Region> regions;
  std::vector<Rect> boxes;  // aligned with regions
  RTree index;              // over boxes

  /// The labelling of `layer`.
  static LayerComponents of(const Region& layer);
  /// The labelling of an edited layer, from `base`, the labelling of the
  /// layer before the edit, and the edit_region() that made it: the
  /// components holding a `replaced` rect dissolve, what is left of them
  /// is relabelled with the `local` rects, and the rest keep their
  /// regions and boxes. Equal to of() of the edited layer.
  static LayerComponents spliced(const LayerComponents& base,
                                 const std::vector<Rect>& replaced,
                                 const std::vector<Rect>& local);

  std::size_t memory_bytes() const;
};

class LayoutSnapshot {
 public:
  /// The layer set the full DFM flow consumes.
  static std::vector<LayerKey> standard_flow_layers();

  /// Flattens `layer_keys` of `top` (one task per layer on `pool`) and
  /// normalizes each region. Empty layers are kept so every pass sees the
  /// same key set.
  LayoutSnapshot(const Library& lib, std::uint32_t top,
                 std::vector<LayerKey> layer_keys, ThreadPool* pool = nullptr);
  /// Same over standard_flow_layers().
  LayoutSnapshot(const Library& lib, std::uint32_t top,
                 ThreadPool* pool = nullptr);
  /// Normalizing copy of an existing layer map — the compatibility path
  /// the LayerMap engine overloads route through.
  explicit LayoutSnapshot(const LayerMap& layers);
  /// Takes ownership of `layers` (no copy) and normalizes in place.
  explicit LayoutSnapshot(LayerMap&& layers);
  /// Out-of-core: nothing is flattened up front; each of `layer_keys`
  /// hydrates from `source` on first access and may be evicted again.
  /// The per-layer bboxes (and so bbox()) come from the source's index,
  /// bit-identical to an eager build.
  LayoutSnapshot(std::shared_ptr<const SnapshotSource> source,
                 std::vector<LayerKey> layer_keys);

  LayoutSnapshot(const LayoutSnapshot&) = delete;
  LayoutSnapshot& operator=(const LayoutSnapshot&) = delete;

  // Virtual: the flow driver finds an edit's damage by dynamic_cast.
  virtual ~LayoutSnapshot();

  /// Copies of the normalized layer regions, keyed as requested at
  /// construction. On a source-backed snapshot this hydrates every layer
  /// — prefer layer(k) where the consumer's key set is known.
  LayerMap layers() const;
  const std::vector<LayerKey>& layer_keys() const { return keys_; }
  bool has(LayerKey k) const { return slots_.count(k) != 0; }
  /// View of one layer (hydrating it if needed); a shared empty region
  /// when the key is absent.
  NormalizedRegion layer(LayerKey k) const;

  /// Joint bbox of every layer (known at construction in every mode).
  Rect bbox() const { return bbox_; }

  /// R-tree over the layer's canonical rects; built on first access.
  const RTree& rtree(LayerKey k) const;
  /// Merged boundary edges of the layer; built on first access.
  const std::vector<BoundaryEdge>& edges(LayerKey k) const;
  /// Density grid of the layer over bbox() with square tiles of edge
  /// `tile`; one grid per (layer, tile) pair, built on first access.
  const DensityMap& density(LayerKey k, Coord tile) const;
  /// Connected components of the layer; built on first access and
  /// charged to the budget like the R-tree. Not counted in
  /// cache_stats(), which keeps its historical three products. Empty
  /// when the key is absent.
  const LayerComponents& components(LayerKey k) const;

  /// The layer's geometry clipped to `window`, WITHOUT hydrating the
  /// layer: a resident layer is clipped in place; an evicted (or
  /// never-read) source-backed layer decodes only the records
  /// intersecting `window`, transiently — nothing is charged to the
  /// budget and nothing stays resident. Both paths cover the same point
  /// set and Region is canonical by point set, so the result is
  /// bit-identical either way. This is the accessor budgeted passes use
  /// for window-local work (pattern capture) so their working set is
  /// bounded by the window, not the layer. Unknown keys yield an empty
  /// region.
  Region read_layer_window(LayerKey k, const Rect& window) const;

  SnapshotCacheStats cache_stats() const;

  /// The byte budget this snapshot charges hydrated state to. Always
  /// present; limit 0 means nothing is ever required to be evicted but
  /// current/peak still measure the hydrated footprint.
  SnapshotBudget& budget() const { return *budget_; }
  /// True when some layer's geometry can be dropped and re-hydrated
  /// (its slot is source-backed).
  bool evictable() const;

  // Eviction. Callers must guarantee quiescence: no other thread is
  // inside an accessor of any snapshot sharing the layer, and no
  // NormalizedRegion / derived-product reference obtained earlier will be
  // used again before re-access. The flow driver calls these between
  // passes only. All return the bytes released.
  std::size_t evict_derived(LayerKey k) const;
  /// Drops the layer's region (source-backed layers only; a no-op —
  /// returns 0 — otherwise or when not hydrated).
  std::size_t evict_geometry(LayerKey k) const;
  /// Releases state in deterministic order until current() <= limit():
  /// derived products of layers outside `keep` (key order), then their
  /// geometry, then derived products of `keep` layers. Geometry of
  /// `keep` layers is never dropped. No-op when under budget or
  /// unlimited.
  std::size_t evict_to_budget(const std::vector<LayerKey>& keep) const;
  /// Same, but releases down to an explicit byte `target` instead of the
  /// budget limit. The flow evicts with headroom (target = limit / 2) at
  /// pass boundaries so the next working set hydrates into slack instead
  /// of starting at the ceiling.
  std::size_t evict_to_budget(const std::vector<LayerKey>& keep,
                              std::size_t target) const;

 protected:
  // Protected-member access rules bar a derived class from reaching
  // another instance's state through a base reference; the incremental
  // constructor reads its base snapshot, so it is a friend.
  friend class IncrementalSnapshot;

  /// One layer's shared slot (snapshot.cpp).
  struct Layer;

  /// For IncrementalSnapshot, which fills slots_ itself.
  LayoutSnapshot() = default;

  /// Adds `region` as a layer whose slot owns it (normalized and charged
  /// to the budget).
  void own(LayerKey k, Region region);
  /// Records keys_ and bbox_ from slots_. Called once, from
  /// constructors.
  void index();
  Layer& slot(LayerKey k) const;
  /// The layer's region with hydration guaranteed (hydrates from the
  /// slot's source when evicted or never yet read). Throws
  /// std::out_of_range for an unknown key.
  const Region& hydrated_region(LayerKey k) const;

  std::map<LayerKey, std::shared_ptr<Layer>> slots_;
  std::vector<LayerKey> keys_;
  Rect bbox_ = Rect::empty();
  std::shared_ptr<SnapshotBudget> budget_ = std::make_shared<SnapshotBudget>();

  mutable std::atomic<std::uint64_t> rtree_reads_{0}, rtree_builds_{0};
  mutable std::atomic<std::uint64_t> edge_reads_{0}, edge_builds_{0};
  mutable std::atomic<std::uint64_t> density_reads_{0}, density_builds_{0};
};

/// A LayoutSnapshot derived from a previous one by a LayoutDelta, paying
/// only for what the edit touched:
///
///  * clean layers share the base's slot — its geometry and memoized
///    products — so nothing is copied or charged again, an R-tree the
///    base already built is a cache hit here too, and a source-backed
///    clean layer stays unhydrated and evictable;
///  * dirty layers get a fresh slot owning (base - removed) | added —
///    whose canonical decomposition equals a from-scratch
///    flatten+normalize of the edited design — with fresh products. The
///    geometry is spliced (edit_region): a band of the canonical form
///    depends only on the points near it, so the base's rects that do
///    not touch the edit are kept as they are, and only the rects that
///    do are re-swept with it. When the base slot holds its labelling,
///    the new slot keeps a reference to it until its own labelling is
///    first built, and splices that labelling too
///    (LayerComponents::spliced): components away from the edit keep
///    their regions and boxes, the rest are relabelled. An evicted
///    labelling is not rehydrated for this; the layer is labelled whole.
///
/// When the edit moves the joint bbox, density grids (anchored at
/// bbox()) would shift for every layer, so clean layers get fresh slots
/// over the same geometry (re-read from the source, or copied when
/// owned) and every product rebuilds lazily; bbox_changed() reports
/// this so the flow can fall back to a full re-run.
///
/// The slots keep their state alive independently of the base snapshot,
/// so a chain of IncrementalSnapshots may drop each predecessor after
/// deriving from it. Every snapshot of a chain charges the base's budget,
/// so a session's accounting stays continuous.
class IncrementalSnapshot : public LayoutSnapshot {
 public:
  IncrementalSnapshot(const LayoutSnapshot& base, const LayoutDelta& delta);

  bool layer_dirty(LayerKey k) const { return dirty_.count(k) != 0; }
  /// added | removed of the edit on layer `k` — every point whose
  /// membership may have changed. Canonical; empty when clean.
  const Region& dirty_region(LayerKey k) const;
  bool any_dirty(const std::vector<LayerKey>& on) const;
  /// Joint bbox of the dirty regions across `on`, expanded by `halo` —
  /// the damage window a pass with interaction radius `halo` must
  /// recheck. Empty when every listed layer is clean.
  Rect damage_bbox(const std::vector<LayerKey>& on, Coord halo) const;
  bool bbox_changed() const { return bbox_changed_; }

 private:
  std::map<LayerKey, Region> dirty_;
  bool bbox_changed_ = false;
};

}  // namespace dfm
